#include "net/switch.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace mars::net {

Switch::Switch(Network& net, SwitchId id, Layer layer, std::size_t port_count)
    : net_(net), id_(id), layer_(layer), ports_(port_count),
      rng_(0xC0FFEEull ^ (static_cast<std::uint64_t>(id) << 20)) {}

void Switch::receive(Packet* pkt) {
  auto& sim = lane_.simulator();
  pkt->switch_arrival = sim.now();

  const auto& observers = net_.observers();
  if (!observers.empty()) {
    SwitchContext ctx{sim, *this, id_, layer_};
    for (auto* obs : observers) obs->on_ingress(ctx, *pkt);
  }

  if (id_ == pkt->flow.sink) {
    net_.deliver(*this, pkt);
    return;
  }

  PortId out = 0;
  if (!net_.routing().select_port(id_, pkt->flow.sink, pkt->flow_hash, out)) {
    net_.count_unroutable(id_);
    net_.release(id_, pkt);
    return;
  }
  enqueue(pkt, out);
}

void Switch::enqueue(Packet* pkt, PortId out) {
  auto& sim = lane_.simulator();
  PortState& port = ports_[out];
  const auto& observers = net_.observers();

  // p >= 1 (a flapped-down link) short-circuits the RNG draw: certain
  // drops must not consume the stream that probabilistic faults replay.
  const bool fault_drop =
      port.drop_probability > 0.0 &&
      (port.drop_probability >= 1.0 || rng_.chance(port.drop_probability));
  const bool tail_drop = port.queue.size() >= queue_capacity_;
  if (fault_drop || tail_drop) {
    ++port.counters.drops;
    if (fault_drop) ++port.counters.fault_drops;
    net_.count_drop(id_);
    if (!observers.empty()) {
      SwitchContext ctx{sim, *this, id_, layer_};
      for (auto* obs : observers) obs->on_drop(ctx, *pkt, out);
    }
    net_.release(id_, pkt);
    return;
  }

  if (!observers.empty()) {
    SwitchContext ctx{sim, *this, id_, layer_};
    const auto depth = static_cast<std::uint32_t>(port.queue.size());
    for (auto* obs : observers) obs->on_enqueue(ctx, *pkt, out, depth);
  }
  port.queue.push_back(pkt);
  if (!port.busy) start_service(out);
}

void Switch::start_service(PortId out) {
  PortState& port = ports_[out];
  assert(!port.queue.empty());
  port.busy = true;

  const Packet& head = *port.queue.front();
  const double gbps = port.rate_gbps;  // bits per nanosecond
  const double bits = static_cast<double>(head.wire_bytes()) * 8.0;
  auto service = static_cast<sim::Time>(std::ceil(bits / gbps));
  service = std::max(service, port.service_floor);
  service = std::max<sim::Time>(service, 1);
  if (port.drain_per_pkt > 0 && port.queue.size() > 1) {
    // Slow-drain: occupancy-proportional penalty (packets waiting behind
    // the head), so an unloaded port services at the healthy rate.
    service +=
        port.drain_per_pkt * static_cast<sim::Time>(port.queue.size() - 1);
    ++port.counters.drain_penalties;
  }
  port.counters.busy_time += service;
  auto done = [this, out] { finish_service(out); };
  static_assert(sim::event_fn_fits_inline<decltype(done)>,
                "service-completion closure must fit the inline buffer");
  lane_.schedule_in(service, std::move(done));
}

void Switch::finish_service(PortId out) {
  auto& sim = lane_.simulator();
  PortState& port = ports_[out];
  assert(port.busy && !port.queue.empty());

  // The head's slot pointer goes straight to the hop event: a serviced
  // packet is never copied.
  Packet& pkt = *port.queue.front();
  ++port.counters.tx_packets;
  port.counters.tx_bytes += pkt.wire_bytes();

  const auto& observers = net_.observers();
  if (!observers.empty()) {
    SwitchContext ctx{sim, *this, id_, layer_};
    const sim::Time hop_latency = sim.now() - pkt.switch_arrival;
    for (auto* obs : observers) obs->on_egress(ctx, pkt, out, hop_latency);
  }

  sim::Time extra = port.extra_delay;
  if (port.gated_delay > 0 && port.queue.size() >= port.gate_depth) {
    extra += port.gated_delay;
    ++port.counters.gated_delays;
  }
  net_.forward_to_neighbor(id_, out, &pkt, extra);
  port.queue.drop_front_moved();

  if (!port.queue.empty()) {
    start_service(out);
  } else {
    port.busy = false;
  }
}

void Switch::set_max_pps(PortId port, double pps) {
  // Same expression the service path used to evaluate per packet, now
  // folded to an integer floor once at fault-injection time.
  if (std::isfinite(pps) && pps > 0.0) {
    ports_[port].service_floor = static_cast<sim::Time>(1e9 / pps);
  } else {
    ports_[port].service_floor = 0;
  }
}

void Switch::set_extra_delay(PortId port, sim::Time delay) {
  ports_[port].extra_delay = delay;
}

void Switch::set_drop_probability(PortId port, double p) {
  ports_[port].drop_probability = p;
}

void Switch::set_slow_drain(PortId port, sim::Time per_pkt) {
  ports_[port].drain_per_pkt = per_pkt;
}

void Switch::set_gated_delay(PortId port, sim::Time delay,
                             std::uint32_t min_depth) {
  ports_[port].gated_delay = delay;
  ports_[port].gate_depth = min_depth;
}

std::uint32_t Switch::total_queue_depth() const {
  std::uint32_t total = 0;
  for (const auto& port : ports_) {
    total += static_cast<std::uint32_t>(port.queue.size());
  }
  return total;
}

}  // namespace mars::net
