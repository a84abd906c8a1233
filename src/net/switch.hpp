#pragma once
// Output-queued switch model.
//
// Each inter-switch port has a FIFO queue drained at
// min(link rate, configured packet rate). Fault knobs cover the paper's
// injection scenarios (§5.2): `max_pps` (process-rate decrease),
// `extra_delay` (delay outside the queue), `drop_probability` (drop) —
// plus the gray-failure family (DESIGN.md "Gray failures"): `slow_drain`
// (service slows with instantaneous queue occupancy, so the fault only
// bites under load) and `gated_delay` (extra latency only above a queue-
// depth threshold). Gray knobs cost two zero-compares on the healthy
// service path and draw no RNG.
//
// All of a switch's event scheduling goes through its Lane, bound by the
// Network right after construction: a keyed lane on the owning shard's
// simulator, so service and hop events replay identically at any shard
// count.
//
// Packets are handled by pool slot (net/packet_pool.hpp): receive() takes
// ownership of a slot pointer, the port queues hold slot pointers, and a
// serviced packet's pointer is handed to Network::forward_to_neighbor.

#include <cstdint>
#include <vector>

#include "net/packet.hpp"
#include "net/types.hpp"
#include "sim/lane.hpp"
#include "sim/time.hpp"
#include "util/fifo_ring.hpp"
#include "util/rng.hpp"

namespace mars::net {

class Network;

/// Monotonic counters per egress port (ground truth / figures, not visible
/// to the monitored algorithms).
struct PortCounters {
  std::uint64_t tx_packets = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t drops = 0;
  sim::Time busy_time = 0;  ///< cumulative serialization time
  // Fault-attributable perturbations, separated from ambient behavior so
  // the injector's manifestation probes can tell "fault actually touched
  // traffic this window" apart from tail drops / plain queueing.
  std::uint64_t fault_drops = 0;      ///< drops from drop_probability
  std::uint64_t drain_penalties = 0;  ///< services slowed by slow_drain
  std::uint64_t gated_delays = 0;     ///< packets delayed by gated_delay
};

class Switch {
 public:
  Switch(Network& net, SwitchId id, Layer layer, std::size_t port_count);

  [[nodiscard]] SwitchId id() const { return id_; }
  [[nodiscard]] Layer layer() const { return layer_; }
  [[nodiscard]] std::size_t port_count() const { return ports_.size(); }

  /// Entry point: a packet arrives from a link or is injected by a host.
  /// Takes ownership of its pool slot: the switch queues it, forwards it,
  /// or releases the slot where the packet leaves the network (delivered,
  /// dropped, unroutable). No packet bytes are copied.
  void receive(Packet* pkt);

  // ---- fault knobs (per port) ----
  void set_max_pps(PortId port, double pps);
  void set_extra_delay(PortId port, sim::Time delay);
  void set_drop_probability(PortId port, double p);
  /// Slow-drain: every service takes `per_pkt` extra ns per packet
  /// WAITING behind the head (zero penalty at depth <= 1), so the fault
  /// is invisible on an idle port and self-reinforcing under load.
  void set_slow_drain(PortId port, sim::Time per_pkt);
  /// Load-gated delay: packets leaving while the queue holds at least
  /// `min_depth` packets (counting the departing head) gain `delay` ns of
  /// post-service latency; below the threshold the port is healthy.
  void set_gated_delay(PortId port, sim::Time delay, std::uint32_t min_depth);

  [[nodiscard]] const PortCounters& counters(PortId port) const {
    return ports_[port].counters;
  }
  [[nodiscard]] std::uint32_t queue_depth(PortId port) const {
    return static_cast<std::uint32_t>(ports_[port].queue.size());
  }
  /// Sum of queue depths across all ports (total buffer occupancy).
  [[nodiscard]] std::uint32_t total_queue_depth() const;

  void set_queue_capacity(std::uint32_t packets) { queue_capacity_ = packets; }

  /// Internal: called once by Network after topology wiring to cache the
  /// egress link rate (bits/ns) next to the queue it drains.
  void set_port_rate(PortId port, double gbps) {
    ports_[port].rate_gbps = gbps;
  }

  /// Internal: called once by Network to attach this switch to a keyed
  /// lane on its shard's simulator.
  void bind_lane(sim::Lane lane) { lane_ = lane; }
  [[nodiscard]] sim::Lane& lane() { return lane_; }

 private:
  struct PortState {
    util::FifoRing<Packet*> queue;  ///< pool slots, oldest first
    bool busy = false;
    double rate_gbps = 1.0;  ///< egress link rate, cached from Network
    // fault knobs. service_floor is the precomputed per-packet
    // serialization floor in ns derived from set_max_pps (0 = no fault);
    // keeping it as an integer keeps isfinite/divide off the service path.
    sim::Time service_floor = 0;
    sim::Time extra_delay = 0;
    double drop_probability = 0.0;
    // gray-failure knobs (0 = healthy)
    sim::Time drain_per_pkt = 0;   ///< slow-drain ns per queued packet
    sim::Time gated_delay = 0;     ///< load-gated extra latency
    std::uint32_t gate_depth = 0;  ///< queue depth arming gated_delay
    PortCounters counters;
  };

  void enqueue(Packet* pkt, PortId out);
  void start_service(PortId out);
  void finish_service(PortId out);

  Network& net_;
  SwitchId id_;
  Layer layer_;
  std::uint32_t queue_capacity_ = 256;
  std::vector<PortState> ports_;
  util::Rng rng_;
  sim::Lane lane_;
};

}  // namespace mars::net
