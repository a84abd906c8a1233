#include "net/network.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <memory>
#include <utility>

#include "sim/sharded.hpp"

namespace mars::net {

namespace {
constexpr sim::Time kNoMail = std::numeric_limits<sim::Time>::max();
}  // namespace

Network::Network(sim::ShardedSimulator& pdes, Topology topology,
                 const Partition& partition)
    : pdes_(&pdes),
      sim_(&pdes.global()),
      topology_(std::move(topology)),
      routing_(topology_),
      shard_of_(partition.shard_of) {
  assert(shard_of_.size() == topology_.switch_count());
  assert(partition.shards <= pdes.shard_count());
  wire_topology();
  shard_state_ =
      std::vector<ShardState>(static_cast<std::size_t>(pdes.shard_count()));
  for (ShardState& s : shard_state_) s.earliest_mail.fill(kNoMail);
  mailbox_.resize(2 * shard_state_.size() * shard_state_.size());
  packet_seq_.assign(switch_count(), 0);
  for (auto& sw : switches_) {
    sw->bind_lane(
        sim::Lane::keyed(pdes.shard(shard_of_[sw->id()]), sw->id()));
  }
  pdes.set_mail_hooks({.drain = [this](int shard) { drain_mail(shard); },
                       .seal = [this] { return seal_mail(); }});
}

void Network::wire_topology() {
  port_links_.resize(topology_.switch_count());
  switches_.reserve(topology_.switch_count());
  for (SwitchId id = 0; id < topology_.switch_count(); ++id) {
    auto& links = port_links_[id];
    links.resize(topology_.port_count(id));
    for (PortId p = 0; p < links.size(); ++p) {
      const auto& peer = topology_.peer(id, p);
      const Link& link = topology_.links()[peer.link];
      links[p] = PortLink{peer.neighbor, peer.neighbor_port,
                          link.propagation, link.gbps};
    }
    switches_.push_back(std::make_unique<Switch>(
        *this, id, topology_.layer(id), topology_.port_count(id)));
    for (PortId p = 0; p < links.size(); ++p) {
      switches_.back()->set_port_rate(p, links[p].gbps);
    }
  }
}

sim::Lane Network::flow_lane(SwitchId source, std::size_t flow_index) {
  return sim::Lane::keyed(
      pdes_->shard(shard_of_[source]),
      static_cast<std::uint64_t>(switch_count()) + flow_index);
}

std::uint64_t Network::inject(FlowId flow, std::uint32_t flow_hash,
                              std::uint32_t size_bytes) {
  assert(flow.source < switch_count() && flow.sink < switch_count());
  Packet pkt;
  pkt.flow = flow;
  pkt.flow_hash = flow_hash;
  pkt.size_bytes = size_bytes;
  // Per-source ids keep assignment shard-local; the source's shard clock
  // is the injection time (flow arrival events run on that shard).
  pkt.id = (static_cast<std::uint64_t>(flow.source) << 40) |
           ++packet_seq_[flow.source];
  pkt.created = switches_[flow.source]->lane().now();
  ++stats_for(flow.source).injected;
  switches_[flow.source]->receive(pool_for(flow.source).acquire(pkt));
  return pkt.id;
}

void Network::forward_to_neighbor(SwitchId from, PortId from_port,
                                  Packet* pkt, sim::Time extra_delay) {
  const PortLink& link = port_links_[from][from_port];
  pkt->ingress_port = link.neighbor_port;
  const SwitchId next = link.neighbor;
  sim::Lane& lane = switches_[from]->lane();
  const sim::Time delay = link.propagation + extra_delay;

  if (shard_of_[from] != shard_of_[next]) {
    // Boundary hop: post into this window's mailbox half; the destination
    // drains it at the start of the next window. link.propagation >=
    // lookahead (validated), so the arrival is provably outside the window
    // currently running on the destination shard.
    const sim::Time at = lane.now() + delay;
    const std::uint64_t key = lane.next_key();
    const int src_shard = shard_of_[from];
    const std::size_t half = pdes_->mail_half();
    mailbox(half, src_shard, shard_of_[next])
        .push_back(PacketMail{at, key, next, *pkt});
    ShardState& src = shard_state_[src_shard];
    src.pool.release(pkt);
    ++src.mail_posted[half];
    src.earliest_mail[half] = std::min(src.earliest_mail[half], at);
    return;
  }

  // The hop event carries only the slot pointer, so the closure stays in
  // the inline buffer, and a fixed delay puts it on the queue's FIFO lane.
  auto hop = [this, next, pkt] { switches_[next]->receive(pkt); };
  static_assert(sim::event_fn_fits_inline<decltype(hop)>,
                "link-hop closure must fit the inline event buffer");
  lane.schedule_fixed(delay, std::move(hop));
}

void Network::drain_mail(int shard) {
  // On `shard`'s own thread, before its window's first event. The senders
  // post into half `post` during this window; half `post ^ 1` was filled
  // in the previous window and is touched by nobody else now, so no lock.
  // Visit order is irrelevant for determinism — each mail carries its own
  // (time, key) — but keep it fixed anyway.
  const std::size_t post = pdes_->mail_half();
  ShardState& own = shard_state_[shard];
  // Our own half `post` starts empty: its destinations drained it at the
  // start of the previous window.
  own.mail_posted[post] = 0;
  own.earliest_mail[post] = kNoMail;
  sim::Simulator& queue = pdes_->shard(shard);
  for (int src = 0; src < static_cast<int>(shard_state_.size()); ++src) {
    std::vector<PacketMail>& box = mailbox(post ^ 1, src, shard);
    for (const PacketMail& mail : box) {
      Packet* slot = own.pool.acquire(mail.pkt);
      auto hop = [this, dst = mail.dst, slot] {
        switches_[dst]->receive(slot);
      };
      static_assert(sim::event_fn_fits_inline<decltype(hop)>,
                    "mailbox-hop closure must fit the inline event buffer");
      queue.schedule_at_keyed(mail.at, mail.key, std::move(hop));
    }
    // clear(), not shrink: mail slots are reused, so steady state is
    // alloc-free.
    box.clear();
  }
}

std::optional<sim::Time> Network::seal_mail() {
  // Single-threaded (barrier): the window that just ended posted into
  // half mail_half(); its destinations drain it at the next window start.
  const std::uint64_t batch = undrained_mail();
  if (batch == 0) return std::nullopt;
  ++mailbox_stats_.drains;
  mailbox_stats_.total_mail += batch;
  mailbox_stats_.max_batch = std::max(mailbox_stats_.max_batch, batch);
  std::size_t b = 0;
  for (std::uint64_t n = batch;
       n > 0 && b + 1 < MailboxStats::kHistBuckets; n >>= 1) {
    ++b;
  }
  ++mailbox_stats_.batch_hist[b];
  sim::Time earliest = kNoMail;
  for (const ShardState& s : shard_state_) {
    earliest = std::min(earliest, s.earliest_mail[pdes_->mail_half()]);
  }
  return earliest;
}

std::size_t Network::undrained_mail() const {
  // Between windows only the half the last window posted into holds mail:
  // the other half was drained at that window's start.
  std::size_t total = 0;
  for (const ShardState& s : shard_state_) {
    total += s.mail_posted[pdes_->mail_half()];
  }
  return total;
}

std::size_t Network::pool_in_flight() const {
  std::size_t total = 0;
  for (const auto& s : shard_state_) total += s.pool.in_flight();
  return total;
}

std::size_t Network::pool_peak_in_flight() const {
  // slot_count() is the arena high-water mark: slots are only ever added
  // (never shrunk), one per peak concurrent packet in the network.
  std::size_t total = 0;
  for (const auto& s : shard_state_) total += s.pool.slot_count();
  return total;
}

void Network::deliver(Switch& sink, Packet* pkt) {
  sim::Simulator& sim = sink.lane().simulator();
  if (!observers_.empty()) {
    SwitchContext ctx{sim, sink, sink.id(), sink.layer()};
    for (auto* obs : observers_) obs->on_deliver(ctx, *pkt);
  }
  ++stats_for(sink.id()).delivered;
  if (on_delivery_) on_delivery_(*pkt, sim.now());
  pool_for(sink.id()).release(pkt);
}

NetworkStats Network::stats() const {
  NetworkStats total;
  for (const ShardState& s : shard_state_) {
    total.injected += s.stats.injected;
    total.delivered += s.stats.delivered;
    total.dropped += s.stats.dropped;
    total.unroutable += s.stats.unroutable;
  }
  return total;
}

}  // namespace mars::net
