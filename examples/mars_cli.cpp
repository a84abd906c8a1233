// mars_cli — scenario runner with command-line knobs; the operator's
// entry point for one-off experiments without writing C++.
//
//   mars_cli [--scenario FILE] [knob flags] [other flags]
//
// A run starts from the --scenario spec, or without one from
// {"faults": [{"kind": "rate", "at_s": 3.0}]}, which lowers to
// default_scenario(rate, seed 1). Each knob flag (--seed, --k, --flows,
// --duration, --backend, --path-id-bits, ...; the usage text lists them
// all) is an assignment to its spec key, declared in the same table row
// (mars/scenario_spec.cpp) and parsed and checked exactly like that key in
// a spec file. Flags apply in command-line order on top of the spec, which
// is then lowered once and validated. Two knobs act on the fault schedule:
//     --fault <kind>          replace the schedule with one event of this
//                             kind at the first event's time
//     --fault-at <seconds>    move every event to this time
// The other flags:
//     --list-topologies       print registered topologies and exit
//     --list-systems          print registered telemetry systems and exit
//     --list-backends         print telemetry-export backends and exit
//     --trace-out <file>      dump the workload as CSV
//     --metrics-out <file>    metrics snapshot + sampled series (JSON)
//     --spans-out <file>      Chrome/Perfetto trace-event JSON
//     --log-out <file>        structured event log (NDJSON, one event/line)
//     --provenance-out <file> diagnosis provenance DAG (JSON)
//     --flight-out <file>     flight-recorder dumps (JSON; arms the
//                             recorder)
//     --path-audit            build the PathID registry for the configured
//                             topology, print the collision audit, and exit
//                             0 if conflict-free / 1 if not (no simulation)
//     --json                  machine-readable result summary
//
// A bad flag value, an unknown name or an invalid scenario exits 2 with
// every error (each names its flag or JSON path); an unwritable output
// file or a fault with no viable target exits 1.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "control/path_registry_cache.hpp"
#include "mars/scenario.hpp"
#include "mars/scenario_spec.hpp"
#include "mars/system_registry.hpp"
#include "net/engine.hpp"
#include "net/routing.hpp"
#include "obs/json_writer.hpp"
#include "telemetry/backend.hpp"
#include "workload/trace.hpp"

namespace {

using namespace mars;

/// Where a run without --scenario starts: default_scenario(rate, seed 1).
constexpr const char* kFlagsOnlySpec =
    R"({"faults": [{"kind": "rate", "at_s": 3.0}]})";

[[noreturn]] void usage(const char* argv0) {
  std::string knobs;  // each flag's value is the spec key it assigns
  for (const SpecKey& key : spec_keys()) {
    if (key.flag.empty()) continue;
    knobs += " [" + std::string(key.flag) + " <" +
             (key.per_fault ? "faults[]." : "") + std::string(key.path) + ">]";
  }
  std::fprintf(stderr,
               "usage: %s [--scenario FILE]%s "
               "[--list-topologies] [--list-systems] [--list-backends] "
               "[--trace-out FILE] [--metrics-out FILE] "
               "[--spans-out FILE] [--log-out FILE] "
               "[--provenance-out FILE] [--flight-out FILE] [--path-audit] "
               "[--json]\n",
               argv0, knobs.c_str());
  std::exit(2);
}

void print_outcome_text(const SystemOutcome& outcome) {
  char conf[16], pres[16];
  if (outcome.confidence) {
    std::snprintf(conf, sizeof(conf), "%.2f", *outcome.confidence);
  } else {
    std::snprintf(conf, sizeof(conf), "-");
  }
  if (outcome.presence) {
    std::snprintf(pres, sizeof(pres), "%.2f", *outcome.presence);
  } else {
    std::snprintf(pres, sizeof(pres), "-");
  }
  std::printf("%-10s rank=%-4s conf=%-4s presence=%-4s telemetry=%-9llu "
              "diagnosis=%-9llu top=[",
              outcome.system.c_str(),
              outcome.rank ? std::to_string(*outcome.rank).c_str() : "-",
              conf, pres,
              static_cast<unsigned long long>(outcome.telemetry_bytes),
              static_cast<unsigned long long>(outcome.diagnosis_bytes));
  for (std::size_t i = 0; i < outcome.culprits.size() && i < 3; ++i) {
    if (i) std::printf("; ");
    std::printf("%s", outcome.culprits[i].describe().c_str());
  }
  std::printf("]\n");
}

void write_outcome_json(obs::JsonWriter& w, const SystemOutcome& outcome) {
  w.key(outcome.system).begin_object();
  if (outcome.rank) {
    w.member("rank", std::uint64_t{*outcome.rank});
  } else {
    w.member_null("rank");
  }
  w.member("triggered", outcome.triggered);
  if (outcome.confidence) {
    w.member("confidence", *outcome.confidence);
  } else {
    w.member_null("confidence");
  }
  if (outcome.presence) {
    w.member("presence", *outcome.presence);
  } else {
    w.member_null("presence");
  }
  w.member("telemetry_bytes", outcome.telemetry_bytes);
  w.member("diagnosis_bytes", outcome.diagnosis_bytes);
  w.key("culprits").begin_array();
  for (const auto& c : outcome.culprits) w.value(c.describe());
  w.end_array();
  w.end_object();
}

bool open_out(std::ofstream& out, const std::string& path) {
  out.open(path);
  if (!out) std::fprintf(stderr, "cannot write %s\n", path.c_str());
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario_file;
  std::vector<std::pair<std::string, std::string>> knobs;  // flag, value
  bool json = false, path_audit = false;
  std::string trace_out, metrics_out, spans_out;
  std::string log_out, provenance_out, flight_out;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--scenario") {
      scenario_file = next();
    } else if (arg.starts_with("--") && find_spec_key(arg) != nullptr) {
      knobs.emplace_back(arg, next());
    } else if (arg == "--list-topologies") {
      for (const auto& name : net::TopologyRegistry::instance().names()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    } else if (arg == "--list-systems") {
      for (const auto& name : SystemRegistry::instance().names()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    } else if (arg == "--list-backends") {
      for (const auto& name : telemetry::known_backend_names()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    } else if (arg == "--trace-out") {
      trace_out = next();
    } else if (arg == "--metrics-out") {
      metrics_out = next();
    } else if (arg == "--spans-out") {
      spans_out = next();
    } else if (arg == "--log-out") {
      log_out = next();
    } else if (arg == "--provenance-out") {
      provenance_out = next();
    } else if (arg == "--flight-out") {
      flight_out = next();
    } else if (arg == "--path-audit") {
      path_audit = true;
    } else if (arg == "--json") {
      json = true;
    } else {
      usage(argv[0]);
    }
  }

  ScenarioConfig cfg;
  try {
    ScenarioSpec spec = scenario_file.empty()
                            ? parse_scenario_spec(kFlagsOnlySpec)
                            : load_scenario_spec(scenario_file);
    for (const auto& [flag, value] : knobs) spec.set(flag, value);
    if (!provenance_out.empty()) spec.set("obs.provenance", "true");
    if (!flight_out.empty()) spec.set("obs.flight_recorder.enabled", "true");
    cfg = spec.to_config();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  if (path_audit) {
    // Audit only: build the registry for the configured topology and
    // PathID shape, report, and exit — deliberately before full scenario
    // validation, because auditing a non-conflict-free shape (which
    // validation rejects when MARS is deployed) is the flag's purpose.
    std::vector<std::string> errors =
        net::TopologyRegistry::instance().validate(cfg.topology);
    check_spec_ranges(cfg, errors);
    if (!errors.empty()) {
      for (const auto& error : errors) {
        std::fprintf(stderr, "invalid scenario: %s\n", error.c_str());
      }
      return 2;
    }
    const telemetry::PathIdConfig& pid = cfg.mars.pipeline.path_id;
    const auto fabric = net::TopologyRegistry::instance().build(cfg.topology);
    const net::RoutingTable routing(fabric.topology);
    const auto registry = control::PathRegistryCache::instance().get_or_build(
        fabric.topology, routing, pid);
    const control::PathAuditReport& a = registry->audit();
    if (json) {
      obs::JsonWriter w(std::cout);
      w.begin_object();
      w.member("topology", cfg.topology.name);
      w.member("hash", telemetry::hash_name(a.config.hash));
      w.member("width_bits", std::uint64_t{a.config.width_bits});
      w.member("paths", std::uint64_t{a.path_count});
      w.member("hops", std::uint64_t{a.hop_count});
      w.member("id_space", std::uint64_t{a.id_space});
      w.member("initial_collisions", std::uint64_t{a.initial_collisions});
      w.member("residual_collisions", std::uint64_t{a.residual_collisions});
      w.member("ambiguous_ids", std::uint64_t{a.ambiguous_ids});
      w.member("mat_entries", std::uint64_t{a.mat_entries});
      w.member("mat_overwrites", std::uint64_t{a.mat_overwrites});
      w.member("rounds", std::uint64_t{static_cast<std::uint64_t>(a.rounds)});
      w.member("pigeonhole_infeasible", a.pigeonhole_infeasible);
      w.member("conflict_free", a.conflict_free);
      w.member("mars_memory_bytes", std::uint64_t{a.mars_memory_bytes});
      w.member("intsight_memory_bytes",
               std::uint64_t{a.intsight_memory_bytes});
      w.member("build_seconds", a.build_seconds);
      w.end_object();
      std::cout << "\n";
    } else {
      std::printf("topology %s: %zu paths, %zu hops, %s/%u bits "
                  "(id space %zu)\n",
                  cfg.topology.name.c_str(), a.path_count, a.hop_count,
                  telemetry::hash_name(a.config.hash), a.config.width_bits,
                  a.id_space);
      std::printf("collisions: %zu initial -> %zu residual "
                  "(%zu ambiguous ids) in %d rounds%s\n",
                  a.initial_collisions, a.residual_collisions,
                  a.ambiguous_ids, a.rounds,
                  a.pigeonhole_infeasible
                      ? " [pigeonhole: more paths than id values]"
                      : "");
      std::printf("mat: %zu entries (%zu overwrites), %zu bytes "
                  "(IntSight-equivalent %zu bytes)\n",
                  a.mat_entries, a.mat_overwrites, a.mars_memory_bytes,
                  a.intsight_memory_bytes);
      std::printf("build: %.3fs\n", a.build_seconds);
      std::printf("verdict: %s\n",
                  a.conflict_free ? "conflict-free" : "NOT conflict-free");
    }
    return a.conflict_free ? 0 : 1;
  }

  if (const auto errors = validate_scenario(cfg); !errors.empty()) {
    for (const auto& error : errors) {
      std::fprintf(stderr, "invalid scenario: %s\n", error.c_str());
    }
    return 2;
  }

  Observability obs;
  const bool want_obs = !metrics_out.empty() || !spans_out.empty() ||
                        !log_out.empty() || !provenance_out.empty() ||
                        !flight_out.empty();
  if (want_obs) cfg.observability = &obs;

  // The trace dump reruns the workload generator standalone so the CSV
  // matches what the scenario injected (same seed, same generator). Flow
  // arrivals are the same at every shard count, so one shard keeps the
  // recorder on one thread.
  if (!trace_out.empty()) {
    auto fabric = net::TopologyRegistry::instance().build(cfg.topology);
    net::Engine engine(fabric.topology);
    net::Network& network = engine.network();
    workload::TraceRecorder recorder;
    network.add_observer(recorder);
    workload::TrafficGenerator traffic(network, cfg.seed);
    traffic.add_background(cfg.background, fabric.edge, fabric.pods);
    traffic.start();
    engine.run(cfg.duration);
    std::ofstream out;
    if (!open_out(out, trace_out)) return 1;
    recorder.trace().write_csv(out);
    std::fprintf(stderr, "wrote %zu events to %s\n",
                 recorder.trace().size(), trace_out.c_str());
  }

  ScenarioResult result;
  try {
    result = run_scenario(cfg);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  if (!metrics_out.empty()) {
    std::ofstream out;
    if (!open_out(out, metrics_out)) return 1;
    obs::JsonWriter w(out);
    w.begin_object();
    w.key("snapshot");
    obs::MetricsRegistry::write_json(w, obs.snapshot);
    w.key("series");
    obs.series.write_json(w);
    w.end_object();
    out << "\n";
    std::fprintf(stderr, "wrote %zu gauges x %zu samples to %s\n",
                 obs.snapshot.gauges.size(), obs.series.rows(),
                 metrics_out.c_str());
  }
  if (!spans_out.empty()) {
    std::ofstream out;
    if (!open_out(out, spans_out)) return 1;
    obs.tracer.write_chrome_json(out);
    std::fprintf(stderr,
                 "wrote %zu trace events to %s "
                 "(load in ui.perfetto.dev or chrome://tracing)\n",
                 obs.tracer.size(), spans_out.c_str());
  }
  if (!log_out.empty()) {
    std::ofstream out;
    if (!open_out(out, log_out)) return 1;
    obs.log.write_ndjson(out);
    std::fprintf(stderr,
                 "wrote %zu log events to %s (%llu below level, %llu rate-"
                 "suppressed)\n",
                 obs.log.events().size(), log_out.c_str(),
                 static_cast<unsigned long long>(obs.log.stats().below_level),
                 static_cast<unsigned long long>(
                     obs.log.stats().rate_suppressed));
  }
  if (!provenance_out.empty()) {
    std::ofstream out;
    if (!open_out(out, provenance_out)) return 1;
    obs.provenance.write_json(out);
    std::fprintf(stderr, "wrote %zu provenance nodes, %zu edges to %s\n",
                 obs.provenance.nodes().size(), obs.provenance.edges().size(),
                 provenance_out.c_str());
  }
  if (!flight_out.empty()) {
    std::ofstream out;
    if (!open_out(out, flight_out)) return 1;
    obs.recorder.write_json(out);
    std::fprintf(stderr, "wrote %zu flight-recorder dumps to %s "
                 "(%llu triggers)\n",
                 obs.recorder.dumps().size(), flight_out.c_str(),
                 static_cast<unsigned long long>(
                     obs.recorder.triggers_total()));
  }

  if (!cfg.faults.empty() && !result.fault_injected) {
    std::fprintf(stderr, "fault injection found no viable target\n");
    return 1;
  }

  if (json) {
    obs::JsonWriter w(std::cout);
    w.begin_object();
    w.key("truths").begin_array();
    for (const auto& truth : result.truths) {
      w.begin_object();
      w.member("describe", truth.describe());
      if (truth.windows_total > 0) {
        w.member("manifestation", truth.manifestation_ratio);
        w.member("windows_active", std::uint64_t{truth.windows_active});
        w.member("windows_total", std::uint64_t{truth.windows_total});
      }
      w.end_object();
    }
    w.end_array();
    w.member("injected", result.net_stats.injected);
    w.member("delivered", result.net_stats.delivered);
    w.member("dropped", result.net_stats.dropped);
    w.member("events_executed", result.events_executed);
    w.key("systems").begin_object();
    for (const auto& outcome : result.systems) {
      write_outcome_json(w, outcome);
    }
    w.end_object();
    w.end_object();
    std::cout << "\n";
    return 0;
  }

  for (const auto& truth : result.truths) {
    std::printf("truth: %s\n", truth.describe().c_str());
  }
  for (const auto& outcome : result.systems) {
    print_outcome_text(outcome);
  }
  return 0;
}
