// diagnosis_dump — run one trial MARS-only and dump the diagnosis
// session's Ring Table records plus the per-flow features the signature
// matcher computes. A developer's microscope into §4.4.

#include <cstdio>
#include <cstring>
#include <map>
#include <optional>

#include "faults/schedule.hpp"
#include "mars/scenario.hpp"
#include "net/engine.hpp"
#include "net/topology_registry.hpp"
#include "rca/signatures.hpp"

namespace {

mars::faults::FaultKind parse_fault(const char* arg) {
  const auto kind = mars::faults::kind_from_name(arg);
  if (!kind) {
    std::fprintf(stderr, "unknown fault '%s' (known: %s)\n", arg,
                 mars::faults::known_kind_names());
    std::exit(2);
  }
  return *kind;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mars;
  const auto fault = argc > 1 ? parse_fault(argv[1])
                              : faults::FaultKind::kMicroBurst;
  const std::uint64_t seed =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 23;

  auto cfg = default_scenario(fault, seed);
  const sim::Time fault_at = cfg.first_fault_at();

  auto fabric = net::TopologyRegistry::instance().build(cfg.topology);
  net::Engine engine(fabric.topology,
                     {.shards = cfg.sim.shards,
                      .control_latency = cfg.sim.control_latency});
  net::Network& network = engine.network();
  for (net::SwitchId sw = 0; sw < network.switch_count(); ++sw) {
    network.node(sw).set_queue_capacity(cfg.queue_capacity);
  }
  MarsSystem mars_system(network, cfg.mars);
  workload::TrafficGenerator traffic(network, cfg.seed);
  traffic.add_background(cfg.background, fabric.edge, fabric.pods);
  faults::FaultInjector injector(network, traffic, cfg.seed ^ 0xFA17,
                                 cfg.injector);
  mars_system.start();
  traffic.start();
  const auto truths = injector.apply(cfg.faults);
  const auto truth = truths.empty() ? std::nullopt : truths.front();
  engine.run(cfg.duration);

  if (!truth || mars_system.diagnoses().empty()) {
    std::printf("no fault or no diagnosis\n");
    return 1;
  }
  std::printf("truth: %s\n", truth->describe().c_str());
  const auto& poh = mars_system.pipeline().overheads();
  std::printf(
      "pipeline: %llu latency + %llu drop notifications, %llu suppressed\n",
      static_cast<unsigned long long>(poh.latency_notifications),
      static_cast<unsigned long long>(poh.drop_notifications),
      static_cast<unsigned long long>(poh.window_suppressed));
  std::printf("diagnoses: %zu\n", mars_system.diagnoses().size());
  // Pick the same session culprits_for() grades: first trigger >= fault.
  const Diagnosis* chosen = nullptr;
  for (const auto& d : mars_system.diagnoses()) {
    if (d.session.trigger.when >= fault_at) {
      chosen = &d;
      break;
    }
  }
  if (chosen == nullptr) chosen = &mars_system.diagnoses().back();
  const auto& diag = *chosen;
  const auto& d = diag.session;
  std::printf("trigger kind=%d at t=%.3f, collected at %.3f, records=%zu\n",
              static_cast<int>(d.trigger.kind), sim::to_seconds(d.trigger.when),
              sim::to_seconds(d.collected_at), d.records.size());
  for (const auto& n : d.notifications) {
    std::printf("  notification kind=%d from s%u flow=%s t=%.3f\n",
                static_cast<int>(n.kind), n.reporter,
                net::to_string(n.flow).c_str(), sim::to_seconds(n.when));
  }

  const sim::Time problem_start = d.trigger.when - 100 * sim::kMillisecond;
  // Per-flow feature summary.
  std::map<net::FlowId, int> flows;
  for (const auto& rec : d.records) flows[rec.flow]++;
  for (const auto& [flow, n] : flows) {
    const auto f = rca::extract_flow_features(d.records, flow, problem_start,
                                              100 * sim::kMillisecond);
    std::printf(
        "flow %s: recs=%d base_pps=%.0f prob_pps=%.0f base_q=%.1f "
        "prob_q=%.1f%s\n",
        net::to_string(flow).c_str(), n, f.baseline_pps, f.problem_pps,
        f.baseline_queue, f.problem_queue,
        f.pps_spiked({}) ? "  << SPIKED" : "");
  }
  std::printf("\nrecords near the trigger for interesting flows:\n");
  for (const auto& rec : d.records) {
    if (rec.sink_timestamp < problem_start - 300 * sim::kMillisecond) {
      continue;
    }
    std::printf(
        "  t=%.3f flow=%s path=%u lat=%.2fms q=%u src_cnt=%u sink_cnt=%u "
        "flow_pkts=%u gap=%u\n",
        sim::to_seconds(rec.sink_timestamp),
        net::to_string(rec.flow).c_str(), rec.path_id,
        sim::to_millis(rec.latency), rec.total_queue_depth,
        rec.src_last_epoch_count, rec.sink_last_epoch_count,
        rec.flow_epoch_packets, rec.epoch_gap);
  }
  // Manual classification summary: how many recent records are abnormal?
  int abnormal = 0, normal = 0, unknown_path = 0, no_threshold = 0;
  for (const auto& rec : d.records) {
    if (rec.sink_timestamp < d.trigger.when - 800 * sim::kMillisecond) {
      continue;
    }
    if (!d.thresholds.count(rec.flow)) ++no_threshold;
    if (mars_system.registry().lookup(rec.path_id).empty()) {
      ++unknown_path;
    }
    if (d.is_abnormal(rec)) {
      ++abnormal;
    } else {
      ++normal;
    }
  }
  std::printf(
      "\nrecent records: %d abnormal, %d normal, %d without threshold, "
      "%d with unknown path\n",
      abnormal, normal, no_threshold, unknown_path);

  std::printf("\nculprits (this session):\n");
  for (std::size_t i = 0; i < diag.culprits.size() && i < 10; ++i) {
    std::printf("  %zu. %s\n", i + 1, diag.culprits[i].describe().c_str());
  }
  std::printf("\nculprits (merged across sessions, as graded):\n");
  const auto merged = mars_system.culprits_for(fault_at);
  for (std::size_t i = 0; i < merged.size() && i < 10; ++i) {
    std::printf("  %zu. %s\n", i + 1, merged[i].describe().c_str());
  }
  return 0;
}
