// mars_cli — scenario runner with command-line knobs; the operator's
// entry point for one-off experiments without writing C++.
//
//   mars_cli [options]
//     --scenario <file.json>  run a declarative ScenarioSpec (other
//                             flags below override the spec)
//     --fault <microburst|ecmp|rate|delay|drop|flap|slowdrain|asymloss|
//              gateddelay>                        (default rate)
//     --seed <n>                                  (default 1)
//     --topology <name>       fabric from the registry (default fat-tree)
//     --k <even n>            fat-tree arity      (default 4)
//     --leaves <n> --spines <n>  leaf-spine shape
//     --systems <a,b,...>     telemetry systems to deploy (default all)
//     --backend <name>        MARS telemetry-export backend
//                             (postcard|int-md|histogram, default postcard)
//     --flows <n>             background flows    (scenario default)
//     --pps <x>               per-flow rate       (scenario default)
//     --duration <seconds>    simulated time      (default 5)
//     --fault-at <seconds>    injection time      (default 3)
//     --no-baselines          deploy MARS only
//     --list-topologies       print registered topologies and exit
//     --list-systems          print registered telemetry systems and exit
//     --list-backends         print telemetry-export backends and exit
//     --trace-out <file>      dump the workload as CSV
//     --metrics-out <file>    metrics snapshot + sampled series (JSON)
//     --spans-out <file>      Chrome/Perfetto trace-event JSON
//     --log-out <file>        structured event log (NDJSON, one event/line)
//     --log-level <level>     log admission floor: debug|info|warn|error
//     --provenance-out <file> diagnosis provenance DAG (JSON)
//     --flight-out <file>     flight-recorder dumps (JSON; arms the
//                             recorder)
//     --path-id-hash <name>   PathID hash generator (crc16|crc32)
//     --path-id-bits <n>      PathID width carried in the header, [1, 32]
//     --path-audit            build the PathID registry for the configured
//                             topology, print the collision audit, and exit
//                             0 if conflict-free / 1 if not (no simulation)
//     --json                  machine-readable result summary
//
// Unknown fault / topology / system names exit nonzero with the list of
// known names; so does an invalid scenario (every validation error is
// printed).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
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

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--scenario FILE] [--fault F] [--seed N] "
               "[--topology NAME] [--k K] [--leaves N] [--spines N] "
               "[--systems A,B,...] [--backend NAME] [--flows N] [--pps X] "
               "[--duration S] [--fault-at S] [--no-baselines] "
               "[--list-topologies] [--list-systems] [--list-backends] "
               "[--trace-out FILE] [--metrics-out FILE] "
               "[--spans-out FILE] [--log-out FILE] [--log-level LEVEL] "
               "[--provenance-out FILE] [--flight-out FILE] "
               "[--path-id-hash NAME] [--path-id-bits N] [--path-audit] "
               "[--json]\n",
               argv0);
  std::exit(2);
}

faults::FaultKind parse_fault(const std::string& arg) {
  const auto kind = faults::kind_from_name(arg);
  if (!kind) {
    std::fprintf(stderr, "unknown fault '%s' (known: %s)\n", arg.c_str(),
                 faults::known_kind_names());
    std::exit(2);
  }
  return *kind;
}

telemetry::BackendKind parse_backend(const std::string& arg) {
  const auto kind = telemetry::backend_from_name(arg);
  if (kind) return *kind;
  std::string names;
  for (const auto& name : telemetry::known_backend_names()) {
    if (!names.empty()) names += ", ";
    names += name;
  }
  const std::string hint = telemetry::suggest_backend(arg);
  if (hint.empty()) {
    std::fprintf(stderr, "unknown telemetry backend '%s' (known: %s)\n",
                 arg.c_str(), names.c_str());
  } else {
    std::fprintf(stderr,
                 "unknown telemetry backend '%s' (known: %s); did you mean "
                 "'%s'?\n",
                 arg.c_str(), names.c_str(), hint.c_str());
  }
  std::exit(2);
}

std::vector<std::string> split_csv(const std::string& arg) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= arg.size()) {
    const std::size_t comma = arg.find(',', start);
    const std::size_t end = comma == std::string::npos ? arg.size() : comma;
    if (end > start) out.push_back(arg.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
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
  std::optional<faults::FaultKind> fault;
  std::optional<std::uint64_t> seed;
  std::optional<int> k, flows, leaves, spines;
  std::optional<double> pps, duration_s, fault_at_s;
  std::optional<std::string> topology;
  std::optional<std::vector<std::string>> systems;
  std::optional<telemetry::BackendKind> backend;
  std::string scenario_file;
  bool baselines = true, json = false;
  std::string trace_out, metrics_out, spans_out;
  std::string log_out, provenance_out, flight_out;
  std::optional<obs::LogLevel> log_level;
  std::optional<telemetry::HashKind> path_id_hash;
  std::optional<std::uint32_t> path_id_bits;
  bool path_audit = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--scenario") {
      scenario_file = next();
    } else if (arg == "--fault") {
      fault = parse_fault(next());
    } else if (arg == "--seed") {
      seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--topology") {
      topology = next();
    } else if (arg == "--k") {
      k = std::atoi(next());
    } else if (arg == "--leaves") {
      leaves = std::atoi(next());
    } else if (arg == "--spines") {
      spines = std::atoi(next());
    } else if (arg == "--systems") {
      systems = split_csv(next());
    } else if (arg == "--backend") {
      backend = parse_backend(next());
    } else if (arg == "--flows") {
      flows = std::atoi(next());
    } else if (arg == "--pps") {
      pps = std::atof(next());
    } else if (arg == "--duration") {
      duration_s = std::atof(next());
    } else if (arg == "--fault-at") {
      fault_at_s = std::atof(next());
    } else if (arg == "--no-baselines") {
      baselines = false;
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
    } else if (arg == "--log-level") {
      const std::string name = next();
      log_level = obs::level_from_name(name);
      if (!log_level) {
        std::fprintf(stderr,
                     "unknown log level '%s' (known: debug, info, warn, "
                     "error)\n",
                     name.c_str());
        return 2;
      }
    } else if (arg == "--provenance-out") {
      provenance_out = next();
    } else if (arg == "--flight-out") {
      flight_out = next();
    } else if (arg == "--path-id-hash") {
      const std::string name = next();
      path_id_hash = telemetry::hash_from_name(name);
      if (!path_id_hash) {
        std::fprintf(stderr,
                     "unknown path_id hash '%s' (known: crc16, crc32)\n",
                     name.c_str());
        return 2;
      }
    } else if (arg == "--path-id-bits") {
      path_id_bits = static_cast<std::uint32_t>(std::atoi(next()));
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
    if (!scenario_file.empty()) {
      cfg = load_scenario_spec(scenario_file).to_config();
    } else {
      cfg = default_scenario(
          fault.value_or(faults::FaultKind::kProcessRateDecrease),
          seed.value_or(1));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  // Flags override the spec (or the defaults).
  if (scenario_file.empty()) {
    // defaults already applied via default_scenario
  } else if (fault || fault_at_s) {
    // Flag-specified fault replaces the spec's whole schedule.
    cfg.faults = faults::FaultSchedule::single(
        fault.value_or(faults::FaultKind::kProcessRateDecrease),
        cfg.first_fault_at());
  }
  if (seed) cfg.seed = *seed;
  if (topology) cfg.topology.name = *topology;
  if (k) cfg.topology.k = *k;
  if (leaves) cfg.topology.leaves = *leaves;
  if (spines) cfg.topology.spines = *spines;
  if (flows) cfg.background.flows = *flows;
  if (pps) cfg.background.pps = *pps;
  if (duration_s) {
    cfg.duration = static_cast<sim::Time>(*duration_s * sim::kSecond);
  }
  if (fault_at_s) {
    for (auto& event : cfg.faults.events) {
      event.at = static_cast<sim::Time>(*fault_at_s * sim::kSecond);
    }
  }
  if (systems) {
    cfg.systems = *systems;
  } else if (!baselines) {
    cfg.systems = {"mars"};
  }
  if (backend) cfg.mars.pipeline.backend.kind = *backend;
  if (path_id_hash) cfg.mars.pipeline.path_id.hash = *path_id_hash;
  if (path_id_bits) cfg.mars.pipeline.path_id.width_bits = *path_id_bits;

  if (log_level) cfg.obs.log_level = *log_level;
  if (!provenance_out.empty()) cfg.obs.provenance = true;
  if (!flight_out.empty()) cfg.obs.flight_recorder = true;

  if (path_audit) {
    // Audit only: build the registry for the configured topology and
    // PathID shape, report, and exit — deliberately before full scenario
    // validation, because auditing a non-conflict-free shape (which
    // validation rejects when MARS is deployed) is the flag's purpose.
    if (const auto errors =
            net::TopologyRegistry::instance().validate(cfg.topology);
        !errors.empty()) {
      for (const auto& error : errors) {
        std::fprintf(stderr, "invalid topology: %s\n", error.c_str());
      }
      return 2;
    }
    const telemetry::PathIdConfig& pid = cfg.mars.pipeline.path_id;
    if (pid.width_bits < 1 || pid.width_bits > 32) {
      std::fprintf(stderr,
                   "telemetry.path_id.width_bits must be in [1, 32] "
                   "(got %u)\n",
                   pid.width_bits);
      return 2;
    }
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
