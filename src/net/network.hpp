#pragma once
// The assembled network: topology + routing + switches over the keyed
// sharded event engine, with monitoring observers attached. This is the
// substrate equivalent of the paper's Mininet/BMv2 testbed. Build one with
// net::Engine (net/engine.hpp), which partitions the topology and sets up
// the engine first.
//
// Every switch schedules through a keyed Lane on the queue of the shard
// the partition gives it (one shard by default), so a run replays the
// same events at every shard count.
//
// Every packet lives in one PacketPool slot from inject() until it leaves
// the network (net/packet_pool.hpp has the ownership rules); switches,
// port queues and hop events pass the slot pointer. A link hop between
// two switches of the same shard — every hop at one shard — is one
// Lane::schedule_fixed(propagation + fault delay) call, so it rides the
// event queue's FIFO lane for that delay (sim/event_queue.hpp) instead of
// the heap.
//
// The one other hop path is cross-shard mail: a hop whose destination
// lives on another shard copies the packet into a PacketMail{arrival
// time, lane key, packet}, releases its source slot, and stages the mail
// in a per-(src shard, dst shard) mailbox. Mailboxes are double-buffered
// by window parity (ShardedSimulator::mail_half): at the start of the
// next window each destination, on its own thread, acquires a slot from
// its own pool for each mail addressed to it and schedules the hop in its
// own queue, from the half nobody writes during that window. Because the
// mail carries the sender's lane key, the destination pops the exact
// event order a single-shard run would — the determinism invariant.
//
// Each shard owns its own PacketPool and NetworkStats (cache-line padded;
// stats() merges), and packet ids are per source (source id << 40 |
// per-source seq), so id assignment never needs a cross-shard counter.

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "net/observer.hpp"
#include "net/packet.hpp"
#include "net/packet_pool.hpp"
#include "net/partition.hpp"
#include "net/routing.hpp"
#include "net/switch.hpp"
#include "net/topology.hpp"
#include "sim/lane.hpp"
#include "sim/simulator.hpp"

namespace mars::sim {
class ShardedSimulator;
}  // namespace mars::sim

namespace mars::net {

/// Aggregate substrate statistics (ground truth for conservation checks).
struct NetworkStats {
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t unroutable = 0;
};

class Network {
 public:
  /// Every switch binds a keyed lane on the shard the partition assigns
  /// it to; registers the mail hooks on `pdes`. The partition must cover
  /// this topology. The topology is copied; routing tables are built
  /// immediately. net::Engine is the one caller.
  Network(sim::ShardedSimulator& pdes, Topology topology,
          const Partition& partition);

  /// The control-plane simulator: the global (single-threaded,
  /// between-windows) domain of the engine.
  [[nodiscard]] sim::Simulator& simulator() { return *sim_; }
  [[nodiscard]] const Topology& topology() const { return topology_; }
  [[nodiscard]] RoutingTable& routing() { return routing_; }
  [[nodiscard]] const RoutingTable& routing() const { return routing_; }
  [[nodiscard]] Switch& node(SwitchId id) { return *switches_[id]; }
  [[nodiscard]] const Switch& node(SwitchId id) const { return *switches_[id]; }
  [[nodiscard]] std::size_t switch_count() const { return switches_.size(); }

  /// The engine: every shard queue plus the global domain.
  [[nodiscard]] sim::ShardedSimulator& pdes() { return *pdes_; }
  [[nodiscard]] int shard_of(SwitchId sw) const { return shard_of_[sw]; }
  /// A keyed lane for the flow generator of flow `flow_index` homed at
  /// `source`, on the source's shard. Entity ids switch_count()+index
  /// never collide with switch lanes.
  [[nodiscard]] sim::Lane flow_lane(SwitchId source, std::size_t flow_index);

  /// Attach a monitoring system. Observers are invoked in attach order.
  void add_observer(PacketObserver& observer) {
    observers_.push_back(&observer);
  }

  /// Inject a packet at its source switch at the current simulation time.
  /// `flow_hash` carries the per-flow entropy a real switch would take from
  /// the 5-tuple. Returns the assigned packet id. Must run on the source's
  /// shard (flow arrival events do) or between windows.
  std::uint64_t inject(FlowId flow, std::uint32_t flow_hash,
                       std::uint32_t size_bytes);

  /// Delivery callback invoked after observers at the sink switch.
  using DeliveryFn = std::function<void(const Packet&, sim::Time)>;
  void set_delivery_callback(DeliveryFn fn) { on_delivery_ = std::move(fn); }

  /// Aggregate counters, merged across shards.
  [[nodiscard]] NetworkStats stats() const;

  /// Packets in the network right now (queued, in service, or on a
  /// link), summed over every pool. Undrained cross-shard mail is not
  /// pooled and not counted here (see undrained_mail()).
  [[nodiscard]] std::size_t pool_in_flight() const;
  /// High-water mark of pooled packets (pool arenas only grow), summed
  /// over every pool — the memory footprint of the traffic in the network.
  [[nodiscard]] std::size_t pool_peak_in_flight() const;

  /// Cross-shard packet-mailbox accounting (all-zero at one shard). One
  /// batch is the mail posted in one window, counted at
  /// the barrier that ends it; one "drain" is a window that posted at
  /// least one mail. `batch_hist` buckets mails-per-batch by log2, so a
  /// fat tail means windows move bursts rather than a steady trickle.
  struct MailboxStats {
    static constexpr std::size_t kHistBuckets = 16;
    std::uint64_t drains = 0;      ///< windows that posted mail
    std::uint64_t total_mail = 0;  ///< packets moved across shards
    std::uint64_t max_batch = 0;   ///< largest single-window volume
    std::array<std::uint64_t, kHistBuckets> batch_hist{};
  };
  [[nodiscard]] const MailboxStats& mailbox_stats() const {
    return mailbox_stats_;
  }
  /// Cross-shard packets posted but not yet drained into their
  /// destination: each is one pending event and one packet in flight that
  /// no queue or pool shows yet. Read between windows.
  [[nodiscard]] std::size_t undrained_mail() const;

  // ---- internal API used by Switch ----
  /// Send the serviced packet in `pkt`'s slot over the link behind
  /// (from, from_port), `extra_delay` ns after its propagation delay.
  void forward_to_neighbor(SwitchId from, PortId from_port, Packet* pkt,
                           sim::Time extra_delay);
  /// Hand the packet to observers and the delivery callback at its sink,
  /// then release its slot.
  void deliver(Switch& sink, Packet* pkt);
  /// Release the slot of a packet leaving the network undelivered
  /// (dropped or unroutable) at switch `at`.
  void release(SwitchId at, Packet* pkt) { pool_for(at).release(pkt); }
  void count_drop(SwitchId at) { ++stats_for(at).dropped; }
  void count_unroutable(SwitchId at) { ++stats_for(at).unroutable; }
  [[nodiscard]] std::vector<PacketObserver*>& observers() {
    return observers_;
  }

 private:
  /// Per-port link facts, flattened out of Topology so the per-hop path
  /// (forward_to_neighbor) reads one cache line instead of chasing
  /// peer()/links() indirections.
  struct PortLink {
    SwitchId neighbor = kInvalidSwitch;
    PortId neighbor_port = 0;
    sim::Time propagation = 0;
    double gbps = 0.0;
  };

  /// A cross-shard hop staged until the next barrier: arrival time and
  /// the sender's lane key travel with the packet so the destination
  /// queue orders it exactly as a single-shard run would.
  struct PacketMail {
    sim::Time at = 0;
    std::uint64_t key = 0;
    SwitchId dst = kInvalidSwitch;
    Packet pkt;
  };

  /// Per-shard hot state, padded so shards never share a cache line.
  struct alignas(64) ShardState {
    PacketPool pool;
    NetworkStats stats;
    /// Mail this shard posted into each mailbox half, and its earliest
    /// arrival (kNoMail if none).
    std::array<std::uint64_t, 2> mail_posted{};
    std::array<sim::Time, 2> earliest_mail{};
  };

  /// One mailbox on its own cache line: during a window only its sender
  /// touches it, during the next only its destination.
  struct alignas(64) Mailbox {
    std::vector<PacketMail> mail;
  };

  void wire_topology();
  /// The sharded simulator's mail hooks (sim::ShardedSimulator::MailHooks):
  /// drain_mail runs on shard `shard`'s thread at the start of each
  /// window; seal_mail runs single-threaded at the barrier after it.
  void drain_mail(int shard);
  [[nodiscard]] std::optional<sim::Time> seal_mail();

  [[nodiscard]] NetworkStats& stats_for(SwitchId sw) {
    return shard_state_[shard_of_[sw]].stats;
  }
  [[nodiscard]] PacketPool& pool_for(SwitchId sw) {
    return shard_state_[shard_of_[sw]].pool;
  }
  [[nodiscard]] std::vector<PacketMail>& mailbox(std::size_t half,
                                                 int src_shard,
                                                 int dst_shard) {
    const std::size_t n = shard_state_.size();
    return mailbox_[(half * n + static_cast<std::size_t>(src_shard)) * n +
                    static_cast<std::size_t>(dst_shard)]
        .mail;
  }

  sim::ShardedSimulator* pdes_;
  sim::Simulator* sim_;  ///< pdes_->global()
  Topology topology_;
  RoutingTable routing_;
  std::vector<std::vector<PortLink>> port_links_;  // [switch][port]
  std::vector<std::unique_ptr<Switch>> switches_;
  std::vector<PacketObserver*> observers_;
  DeliveryFn on_delivery_;
  std::vector<int> shard_of_;                   // per switch
  std::vector<ShardState> shard_state_;         // per shard
  std::vector<Mailbox> mailbox_;  // [half][src shard][dst shard]
  std::vector<std::uint64_t> packet_seq_;       // per source switch
  MailboxStats mailbox_stats_;
};

}  // namespace mars::net
