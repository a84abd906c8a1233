#include "baselines/syndb.hpp"

#include <algorithm>
#include <map>

#include "sim/simulator.hpp"

namespace mars::baselines {

SynDb::SynDb(SynDbConfig config) : config_(config) {}

void SynDb::on_ingress(net::SwitchContext& ctx, net::Packet& pkt) {
  ++record_count_;
  if (ctx.id == pkt.flow.source) {
    source_ingress_.push_back(SourceRecord{pkt.flow, ctx.sim.now()});
  }
}

void SynDb::on_egress(net::SwitchContext& ctx, net::Packet& /*pkt*/,
                      net::PortId out, sim::Time hop_latency) {
  ++record_count_;
  egress_.push_back(EgressRecord{ctx.id, out, ctx.sim.now(), hop_latency});
}

void SynDb::on_drop(net::SwitchContext& ctx, const net::Packet& /*pkt*/,
                    net::PortId /*out*/) {
  // A real SyNDB sees the drop implicitly (record present at switch k,
  // absent at k+1); we record the terminal hop explicitly to run the same
  // differential query cheaply.
  ++record_count_;
  drops_.push_back(DropRecord{ctx.id, ctx.sim.now()});
}

rca::CulpritList SynDb::diagnose_with_hint(faults::FaultKind hint,
                                           sim::Time now) {
  switch (hint) {
    case faults::FaultKind::kMicroBurst:
      return query_burst(now);
    case faults::FaultKind::kEcmpImbalance:
      return query_ecmp(now);
    case faults::FaultKind::kProcessRateDecrease:
      return query_latency_per_switch(now,
                                      rca::CauseKind::kProcessRateDecrease);
    case faults::FaultKind::kDelay:
      return query_latency_per_switch(now, rca::CauseKind::kDelay);
    case faults::FaultKind::kDrop:
    case faults::FaultKind::kLinkFlap:
    case faults::FaultKind::kAsymmetricLoss:
      return query_drop(now);
    case faults::FaultKind::kSlowDrain:
      return query_latency_per_switch(now,
                                      rca::CauseKind::kProcessRateDecrease);
    case faults::FaultKind::kLoadGatedDelay:
      return query_latency_per_switch(now, rca::CauseKind::kDelay);
    case faults::FaultKind::kNotificationLoss:
    case faults::FaultKind::kReadOutage:
      return {};  // channel chaos is not a queryable network incident
  }
  return {};
}

rca::CulpritList SynDb::query_latency_per_switch(sim::Time now,
                                                 rca::CauseKind cause) {
  // Per-switch mean hop latency: problem window vs everything before.
  struct Acc {
    double base_sum = 0;
    std::uint64_t base_n = 0;
    double prob_sum = 0;
    std::uint64_t prob_n = 0;
  };
  std::map<net::SwitchId, Acc> acc;
  const sim::Time from = now - config_.window;
  for (const auto& r : egress_) {
    Acc& a = acc[r.sw];
    if (r.when >= from) {
      a.prob_sum += static_cast<double>(r.hop_latency);
      ++a.prob_n;
    } else {
      a.base_sum += static_cast<double>(r.hop_latency);
      ++a.base_n;
    }
  }
  rca::CulpritList out;
  for (const auto& [sw, a] : acc) {
    if (a.prob_n == 0) continue;
    const double prob = a.prob_sum / static_cast<double>(a.prob_n);
    const double base =
        a.base_n > 0 ? a.base_sum / static_cast<double>(a.base_n) : 1.0;
    const double score = prob / std::max(base, 1.0);
    rca::Culprit c;
    c.level = rca::CulpritLevel::kSwitch;
    c.location = {sw};
    c.cause = cause;
    c.score = score;
    out.push_back(std::move(c));
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.score > b.score; });
  if (out.size() > config_.max_culprits) out.resize(config_.max_culprits);
  return out;
}

rca::CulpritList SynDb::query_drop(sim::Time now) {
  // Differential per-switch loss in the window.
  std::map<net::SwitchId, std::uint64_t> drops;
  const sim::Time from = now - config_.window;
  for (const auto& r : drops_) {
    if (r.when >= from) ++drops[r.sw];
  }
  rca::CulpritList out;
  for (const auto& [sw, n] : drops) {
    rca::Culprit c;
    c.level = rca::CulpritLevel::kSwitch;
    c.location = {sw};
    c.cause = rca::CauseKind::kDrop;
    c.score = static_cast<double>(n);
    out.push_back(std::move(c));
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.score > b.score; });
  if (out.size() > config_.max_culprits) out.resize(config_.max_culprits);
  return out;
}

rca::CulpritList SynDb::query_burst(sim::Time now) {
  // Per-flow pps: problem window vs baseline.
  struct Acc {
    std::uint64_t base = 0;
    std::uint64_t prob = 0;
  };
  std::map<net::FlowId, Acc> acc;
  const sim::Time from = now - config_.window;
  sim::Time earliest = now;
  for (const auto& r : source_ingress_) {  // counted once, at the source
    earliest = std::min(earliest, r.when);
    if (r.when >= from) {
      ++acc[r.flow].prob;
    } else {
      ++acc[r.flow].base;
    }
  }
  const double base_seconds =
      std::max(sim::to_seconds(from - earliest), 1e-3);
  const double prob_seconds = std::max(sim::to_seconds(config_.window), 1e-3);
  rca::CulpritList out;
  for (const auto& [flow, a] : acc) {
    const double base_pps = static_cast<double>(a.base) / base_seconds;
    const double prob_pps = static_cast<double>(a.prob) / prob_seconds;
    const double score = prob_pps / std::max(base_pps, 1.0);
    rca::Culprit c;
    c.level = rca::CulpritLevel::kFlow;
    c.flow = flow;
    c.cause = rca::CauseKind::kMicroBurst;
    c.score = score;
    out.push_back(std::move(c));
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.score > b.score; });
  if (out.size() > config_.max_culprits) out.resize(config_.max_culprits);
  return out;
}

rca::CulpritList SynDb::query_ecmp(sim::Time now) {
  // Per-switch egress-port split: problem window vs baseline. The faulty
  // chooser's split skews the most.
  struct PortCounts {
    std::map<net::PortId, std::uint64_t> base;
    std::map<net::PortId, std::uint64_t> prob;
  };
  std::map<net::SwitchId, PortCounts> acc;
  const sim::Time from = now - config_.window;
  for (const auto& r : egress_) {
    auto& pc = acc[r.sw];
    auto& counts = (r.when >= from) ? pc.prob : pc.base;
    ++counts[r.out_port];
  }
  auto imbalance = [](const std::map<net::PortId, std::uint64_t>& counts) {
    if (counts.size() < 2) return 1.0;
    std::uint64_t lo = UINT64_MAX, hi = 0;
    for (const auto& [port, n] : counts) {
      lo = std::min(lo, n);
      hi = std::max(hi, n);
    }
    return static_cast<double>(hi) /
           static_cast<double>(std::max<std::uint64_t>(lo, 1));
  };
  rca::CulpritList out;
  for (const auto& [sw, pc] : acc) {
    const double score = imbalance(pc.prob) / std::max(imbalance(pc.base), 1.0);
    rca::Culprit c;
    c.level = rca::CulpritLevel::kSwitch;
    c.location = {sw};
    c.cause = rca::CauseKind::kEcmpImbalance;
    c.score = score;
    out.push_back(std::move(c));
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.score > b.score; });
  if (out.size() > config_.max_culprits) out.resize(config_.max_culprits);
  return out;
}

OverheadReport SynDb::overheads() const {
  OverheadReport report;
  report.telemetry_bytes = 0;  // no INT headers
  report.diagnosis_bytes = record_count_ * config_.record_bytes;
  return report;
}

}  // namespace mars::baselines
