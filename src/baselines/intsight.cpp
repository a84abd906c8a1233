#include "baselines/intsight.hpp"

#include <algorithm>
#include <map>

#include "sim/simulator.hpp"

namespace mars::baselines {

IntSight::IntSight(IntSightConfig config) : config_(config) {}

void IntSight::on_ingress(net::SwitchContext& ctx, net::Packet& pkt) {
  if (ctx.id != pkt.flow.source) return;
  auto& sc = flows_[pkt.flow].source_count;
  const auto epoch = telemetry::epoch_of(ctx.sim.now(), config_.epoch_period);
  if (epoch != sc.epoch) {
    sc.previous = (epoch == sc.epoch + 1) ? sc.count : 0;
    sc.epoch = epoch;
    sc.count = 0;
  }
  ++sc.count;
}

void IntSight::on_egress(net::SwitchContext& ctx, net::Packet& pkt,
                         net::PortId /*out*/, sim::Time hop_latency) {
  overheads_.telemetry_bytes += config_.header_bytes;
  if (hop_latency > config_.contention_threshold && ctx.id < 64) {
    pkt.intsight_contention |= (1ull << ctx.id);
  }
}

void IntSight::flush(const net::FlowId& flow, EpochState& state) {
  if (state.violations == 0) return;  // conditional report: violations only
  FlowReport report;
  report.flow = flow;
  report.epoch = state.epoch;
  report.contention_mask = state.contention_mask;
  report.violations = state.violations;
  report.packets = state.packets;
  overheads_.diagnosis_bytes += config_.report_bytes;
  reports_.push_back(std::move(report));
}

void IntSight::on_deliver(net::SwitchContext& ctx, net::Packet& pkt) {
  const sim::Time now = ctx.sim.now();
  const auto epoch = telemetry::epoch_of(now, config_.epoch_period);
  FlowState& flow = flows_[pkt.flow];
  auto& state = flow.sink;
  if (epoch != state.epoch) {
    flush(pkt.flow, state);
    state = EpochState{};
    state.epoch = epoch;
  }
  ++state.packets;

  const sim::Time e2e = now - pkt.created;
  if (e2e > config_.slo) {
    ++state.violations;
    state.contention_mask |= pkt.intsight_contention;
  }

  // Flow-level end-to-end count tracking (drop detection).
  auto& kc = flow.sink_count;
  if (epoch != kc.epoch) {
    // Compare the closed epoch's sink count against the source's.
    const auto& sc = flow.source_count;
    if (sc.epoch == epoch && sc.previous > kc.count + 2) {
      FlowReport report;
      report.flow = pkt.flow;
      report.epoch = kc.epoch;
      report.dropped_estimate = sc.previous - kc.count;
      overheads_.diagnosis_bytes += config_.report_bytes;
      reports_.push_back(std::move(report));
    }
    kc.previous = (epoch == kc.epoch + 1) ? kc.count : 0;
    kc.epoch = epoch;
    kc.count = 0;
  }
  ++kc.count;
}

rca::CulpritList IntSight::diagnose() {
  if (reports_.empty()) return {};

  // Rank switches by contention marks across violating reports; flows
  // with drop estimates become flow-level drop culprits (IntSight cannot
  // say which switch lost them). Anomalies that never build a queue leave
  // no contention marks — IntSight has nothing to rank then, the paper's
  // "-" cells for delay.
  std::map<net::SwitchId, double> contention_score;
  std::map<net::FlowId, double> drop_score;
  for (const auto& r : reports_) {
    for (net::SwitchId sw = 0; sw < 64; ++sw) {
      if (r.contention_mask & (1ull << sw)) {
        contention_score[sw] += r.violations;
      }
    }
    if (r.dropped_estimate > 0) {
      drop_score[r.flow] += r.dropped_estimate;
    }
  }

  rca::CulpritList out;
  for (const auto& [sw, score] : contention_score) {
    rca::Culprit c;
    c.level = rca::CulpritLevel::kSwitch;
    c.location = {sw};
    // IntSight reports contention points, not causes; the placeholder
    // cause is ignored by location-based grading.
    c.cause = rca::CauseKind::kProcessRateDecrease;
    c.score = score;
    out.push_back(std::move(c));
  }
  for (const auto& [flow, score] : drop_score) {
    rca::Culprit c;
    c.level = rca::CulpritLevel::kFlow;
    c.flow = flow;
    c.cause = rca::CauseKind::kDrop;
    c.score = score;
    out.push_back(std::move(c));
  }
  std::sort(out.begin(), out.end(),
            [](const rca::Culprit& a, const rca::Culprit& b) {
              return a.score > b.score;
            });
  if (out.size() > config_.max_culprits) out.resize(config_.max_culprits);
  return out;
}

OverheadReport IntSight::overheads() const { return overheads_; }

}  // namespace mars::baselines
