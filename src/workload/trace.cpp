#include "workload/trace.hpp"

#include <algorithm>
#include <ostream>

#include "util/rng.hpp"

namespace mars::workload {

void FlowTrace::sort() {
  std::stable_sort(events_.begin(), events_.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.at < b.at;
                   });
}

std::size_t FlowTrace::replay(net::Network& network) const {
  auto& sim = network.simulator();
  std::size_t skipped = 0;
  for (const TraceEvent& event : events_) {
    if (event.at < sim.now()) {
      ++skipped;
      continue;
    }
    auto replay_one = [&network, event] {
      network.inject(event.flow, event.flow_hash, event.size_bytes);
    };
    static_assert(sim::event_fn_fits_inline<decltype(replay_one)>,
                  "trace-replay closure must fit the inline buffer");
    sim.schedule_at(event.at, std::move(replay_one));
  }
  return skipped;
}

void FlowTrace::write_csv(std::ostream& out) const {
  out << "# time_ns,src,dst,flow_hash,size_bytes\n";
  for (const TraceEvent& e : events_) {
    out << e.at << ',' << e.flow.source << ',' << e.flow.sink << ','
        << e.flow_hash << ',' << e.size_bytes << '\n';
  }
}

void TraceRecorder::on_ingress(net::SwitchContext& ctx, net::Packet& pkt) {
  if (ctx.id != pkt.flow.source) return;
  trace_.add(TraceEvent{ctx.sim.now(), pkt.flow, pkt.flow_hash,
                        pkt.size_bytes});
}

FlowTrace make_incast(const IncastConfig& config, std::uint64_t seed) {
  util::Rng rng(seed);
  FlowTrace trace;
  for (const net::SwitchId src : config.sources) {
    if (src == config.sink) continue;
    const auto flow_hash = static_cast<std::uint32_t>(rng());
    const sim::Time start =
        config.start +
        static_cast<sim::Time>(rng.below(
            static_cast<std::uint64_t>(std::max<sim::Time>(config.jitter, 1))));
    // Synchronized burst: sources pace at `spacing`, which in aggregate
    // exceeds what the sink's links can drain — that is what makes an
    // incast an incast.
    for (int i = 0; i < config.packets_per_source; ++i) {
      trace.add(TraceEvent{start + i * config.spacing,
                           net::FlowId{src, config.sink}, flow_hash,
                           config.size_bytes});
    }
  }
  trace.sort();
  return trace;
}

}  // namespace mars::workload
