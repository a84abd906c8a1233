#include "mars/scenario.hpp"

#include <algorithm>
#include <memory>
#include <optional>

#include "control/path_registry_cache.hpp"
#include "mars/scenario_spec.hpp"
#include "mars/system_registry.hpp"
#include "net/engine.hpp"
#include "net/partition.hpp"
#include "net/routing.hpp"
#include "obs/net_scrape.hpp"
#include "sim/sharded.hpp"

namespace mars {

ScenarioConfig default_scenario(faults::FaultKind fault, std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.faults = faults::FaultSchedule::single(fault, 3 * sim::kSecond);
  cfg.seed = seed;
  cfg.background.flows = 40;
  cfg.background.pps = 250.0;
  if (fault == faults::FaultKind::kEcmpImbalance) {
    // The skewed branch must exceed edge-uplink capacity for the
    // imbalance to surface within the one-second fault (Fig. 7b); that
    // needs more sourced traffic per edge than the other scenarios want.
    cfg.background.flows = 48;
    cfg.background.pps = 320.0;
  }
  cfg.mars.pipeline.epoch_period = 100 * sim::kMillisecond;
  cfg.mars.controller.poll_interval = 100 * sim::kMillisecond;
  cfg.mars.controller.reservoir.warmup = 12;
  cfg.mars.controller.reservoir.volume = 128;
  // Queueing latency in a loaded fat-tree is heavy-tailed; a pure m+3σ
  // threshold flags the ambient tail several times a second. The margin
  // floor keeps the dynamic threshold above everyday jitter so the
  // response window stays free for real faults.
  cfg.mars.controller.reservoir.relative_margin = 0.3;
  cfg.mars.controller.reservoir.sigma_multiplier = 3.0;
  cfg.mars.controller.response_window = 500 * sim::kMillisecond;
  // SpiderMon's static trigger, set the way an operator would for this
  // workload: above ambient queueing, below fault-grade congestion.
  cfg.spidermon.queue_delay_threshold = 30 * sim::kMillisecond;
  // ECMP imbalance draws from the stronger end of the paper's 1:4..1:10
  // range so the loaded branch reliably exceeds edge-uplink capacity.
  cfg.injector.imbalance_min = 8;
  return cfg;
}

std::vector<std::string> validate_scenario(const ScenarioConfig& config) {
  std::vector<std::string> errors =
      net::TopologyRegistry::instance().validate(config.topology);
  const bool topology_ok = errors.empty();
  // Single-field bounds come from the spec table; the rest are cross-field
  // rules or fields no spec key sets. The checks that build the fabric
  // run only on a config whose every field is in range.
  const bool in_range = check_spec_ranges(config, errors);
  if (config.background.flows > 0 && config.background.pps <= 0.0) {
    errors.push_back("background flow rate must be positive (got " +
                     std::to_string(config.background.pps) + " pps)");
  }
  if (config.observability != nullptr && config.sample_period <= 0) {
    errors.push_back("sample period must be positive when observability "
                     "is attached");
  }
  const auto fault_errors = config.faults.validate(config.duration);
  errors.insert(errors.end(), fault_errors.begin(), fault_errors.end());
  const control::ChannelConfig& ch = config.mars.channel;
  if (ch.notification_delay_max < ch.notification_delay_min) {
    errors.push_back(
        "channel.notification_delay_max_s must be >= "
        "notification_delay_min_s");
  }
  if (config.injector.manifestation_window <= 0) {
    errors.push_back("injector manifestation_window must be positive");
  }
  const telemetry::BackendConfig& be = config.mars.pipeline.backend;
  if (be.histogram.marker_bytes == 0 || be.histogram.marker_bytes > 64) {
    errors.push_back("telemetry.histogram.marker_bytes must be in [1, 64] "
                     "(got " + std::to_string(be.histogram.marker_bytes) +
                     ")");
  }
  if (be.histogram.trigger_exit > be.histogram.trigger_enter) {
    errors.push_back(
        "telemetry.histogram.trigger_exit must be <= trigger_enter "
        "(hysteresis re-arms below the firing level; got exit " +
        std::to_string(be.histogram.trigger_exit) + " > enter " +
        std::to_string(be.histogram.trigger_enter) + ")");
  }
  if (config.systems.empty()) {
    // A trial with no system deployed simulates the whole run and grades
    // nothing.
    errors.push_back("systems must name at least one telemetry system "
                     "(known: " + SystemRegistry::instance().known_names() +
                     ")");
  }
  for (std::size_t i = 0; i < config.systems.size(); ++i) {
    const std::string& name = config.systems[i];
    if (!SystemRegistry::instance().contains(name)) {
      errors.push_back("unknown telemetry system '" + name + "' (known: " +
                       SystemRegistry::instance().known_names() + ")");
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (config.systems[j] == name) {
        errors.push_back("telemetry system '" + name +
                         "' is listed more than once");
        break;
      }
    }
  }
  if (in_range && config.sim.shards >= 2) {
    // Shard threads run observer callbacks concurrently: only state that
    // each switch owns may be written there.
    for (const std::string& name : config.systems) {
      if (name != "mars") {
        errors.push_back("sim.shards >= 2 supports only the 'mars' "
                         "telemetry system (got '" + name +
                         "'); the baselines keep cross-switch observer "
                         "state that shard threads may not share");
      }
    }
    if (be.kind != telemetry::BackendKind::kPostcard) {
      errors.push_back(
          std::string("sim.shards >= 2 supports only the 'postcard' "
                      "telemetry backend (got '") +
          telemetry::to_string(be.kind) +
          "'; int-md and histogram keep cross-switch state that shard "
          "threads may not share)");
    }
    if (topology_ok) {
      const net::BuiltFabric fabric =
          net::TopologyRegistry::instance().build(config.topology);
      const int capacity = net::partition_capacity(fabric.topology);
      if (config.sim.shards > capacity) {
        errors.push_back(
            "sim.shards exceeds the topology's partition capacity: no "
            "partition boundary supports " +
            std::to_string(config.sim.shards) + " shards (topology '" +
            config.topology.name + "' splits into " +
            std::to_string(capacity) + " components)");
      } else {
        const net::Partition partition =
            net::partition_topology(fabric.topology, config.sim.shards);
        if (!partition.boundary_links.empty() &&
            partition.min_boundary_propagation < 1) {
          errors.push_back(
              "sim.shards >= 2 requires positive propagation delay on "
              "shard-boundary links (topology '" + config.topology.name +
              "' has a zero-delay boundary link)");
        }
      }
    }
  }
  const telemetry::PathIdConfig& pid = config.mars.pipeline.path_id;
  if (in_range && topology_ok &&
      std::find(config.systems.begin(), config.systems.end(), "mars") !=
          config.systems.end()) {
    // An unresolved PathID collision decompresses diagnosis reports to the
    // wrong switch sequence, silently corrupting localization — so a
    // registry that cannot resolve every collision is a configuration
    // error, not a runtime condition. The build is cached by (topology
    // structure, PathIdConfig); deployment reuses this exact registry.
    const net::BuiltFabric fabric =
        net::TopologyRegistry::instance().build(config.topology);
    const net::RoutingTable routing(fabric.topology);
    const auto registry = control::PathRegistryCache::instance().get_or_build(
        fabric.topology, routing, pid);
    if (!registry->conflict_free()) {
      const control::PathAuditReport& audit = registry->audit();
      errors.push_back(
          "PathID registry for topology '" + config.topology.name +
          "' is not conflict-free at " +
          std::string(telemetry::hash_name(pid.hash)) + "/" +
          std::to_string(pid.width_bits) + " bits: " +
          std::to_string(audit.residual_collisions) + " of " +
          std::to_string(audit.path_count) + " paths remain ambiguous" +
          (audit.pigeonhole_infeasible
               ? std::string(" (pigeonhole: more paths than PathID values)")
               : " after " + std::to_string(audit.rounds) +
                     " resolution rounds") +
          " — widen telemetry.path_id (e.g. crc32 / 32 bits) or shrink "
          "the topology");
    }
  }
  return errors;
}

obs::Context trial_context(Observability* bundle,
                           const ScenarioConfig::ObsConfig& flags) {
  if (bundle == nullptr) return {};
  return {.metrics = &bundle->registry,
          .tracer = &bundle->tracer,
          .log = &bundle->log,
          .provenance = flags.provenance ? &bundle->provenance : nullptr,
          .recorder = flags.flight_recorder ? &bundle->recorder : nullptr};
}

namespace {

void throw_if_invalid(const ScenarioConfig& config) {
  if (const auto errors = validate_scenario(config); !errors.empty()) {
    std::string joined;
    for (const auto& e : errors) {
      if (!joined.empty()) joined += "; ";
      joined += e;
    }
    throw std::invalid_argument("scenario config invalid: " + joined);
  }
}

/// Reset + configure the bundle's ops plane from the "obs" block. Called
/// before any system deploys so every component sees the final admission
/// settings.
void configure_obs(const ScenarioConfig& config, const obs::Context& ctx) {
  Observability* obs = config.observability;
  if (obs == nullptr) return;
  obs::EventLogConfig log_cfg;
  log_cfg.min_level = config.obs.log_level;
  log_cfg.rate_limit_per_s = config.obs.log_rate_limit_per_s;
  log_cfg.rate_limit_burst = config.obs.log_rate_limit_burst;
  obs->log.configure(log_cfg);
  obs->provenance.clear();
  obs::FlightRecorderConfig rec_cfg;
  rec_cfg.capacity = config.obs.flight_capacity;
  rec_cfg.confidence_threshold = config.obs.flight_confidence_threshold;
  obs->recorder.configure(rec_cfg);
  // The recorder taps the log BEFORE level/rate admission: the black box
  // keeps full verbosity even when the exported log is quiet.
  obs->log.set_recorder(ctx.recorder);
}

/// Post-grading provenance attribution: annotate every suspect node that
/// survived into the final ranked list with its final rank, and add
/// fault -> suspect "manifested_as" edges for culprits that name an
/// injected ground truth (same matcher the Table-1 grading uses).
void attribute_faults(obs::ProvenanceGraph& graph,
                      const ScenarioResult& result,
                      const std::vector<std::string>& fault_nodes) {
  // Gray faults: fault nodes gain their post-run manifestation accounting
  // (the probe counts only exist once the simulation finished).
  for (std::size_t t = 0; t < result.truths.size() && t < fault_nodes.size();
       ++t) {
    const faults::GroundTruth& truth = result.truths[t];
    if (!faults::is_gray_fault(truth.kind) || truth.windows_total == 0) {
      continue;
    }
    graph.annotate(fault_nodes[t],
                   {"manifestation", truth.manifestation_ratio});
    graph.annotate(fault_nodes[t],
                   {"windows_active", std::uint64_t{truth.windows_active}});
    graph.annotate(fault_nodes[t],
                   {"windows_total", std::uint64_t{truth.windows_total}});
  }
  const SystemOutcome* mars = result.find("mars");
  if (mars == nullptr) return;
  using NodeKind = obs::ProvenanceGraph::NodeKind;
  for (std::size_t c = 0; c < mars->culprits.size(); ++c) {
    const auto ids = graph.find_nodes(NodeKind::kSuspect, "key",
                                      rca::provenance_key(mars->culprits[c]));
    for (const std::string& id : ids) {
      graph.annotate(id, {"final_rank", std::uint64_t{c + 1}});
    }
  }
  for (std::size_t t = 0; t < result.truths.size() && t < fault_nodes.size();
       ++t) {
    for (const auto& culprit : mars->culprits) {
      if (!metrics::culprit_matches(culprit, result.truths[t],
                                    {.require_cause = true})) {
        continue;
      }
      for (const std::string& id : graph.find_nodes(
               NodeKind::kSuspect, "key", rca::provenance_key(culprit))) {
        graph.add_edge(fault_nodes[t], id, "manifested_as");
      }
    }
  }
}

/// Result assembly: grading queries, per-system outcomes, ground truths.
ScenarioResult assemble_result(
    const ScenarioConfig& config, const obs::Context& ctx,
    std::vector<std::unique_ptr<systems::TelemetrySystem>>& deployed,
    std::vector<faults::GroundTruth>&& truths, net::NetworkStats net_stats,
    std::uint64_t packets_injected, std::uint64_t events_executed,
    sim::Time now) {
  ScenarioResult result;
  result.truths = std::move(truths);
  result.fault_injected =
      !config.faults.empty() && result.truths.size() == config.faults.size();
  result.net_stats = net_stats;
  result.packets_injected = packets_injected;
  result.events_executed = events_executed;

  // One query for every system. SyNDB reads the expert hint (the Table-1
  // caveat — "we have to assume SyNDB knows the root cause at first"):
  // the FIRST scheduled fault's class and incident window.
  systems::DiagnosisQuery query;
  query.fault_start = config.first_fault_at();
  query.now = now;
  if (!config.faults.empty()) {
    const faults::FaultEvent& first = config.faults.events.front();
    query.hint = first.kind;
    const sim::Time fault_len =
        first.duration > 0 ? first.duration : config.injector.duration;
    query.incident_end = std::min(now, first.at + fault_len);
  }

  result.systems.reserve(deployed.size());
  for (std::size_t i = 0; i < deployed.size(); ++i) {
    systems::TelemetrySystem& system = *deployed[i];
    SystemOutcome outcome;
    outcome.system = config.systems[i];
    outcome.culprits = system.diagnose(query);
    outcome.triggered = system.triggered();
    outcome.confidence = system.confidence();
    outcome.presence = system.presence();
    const auto oh = system.overheads();
    outcome.telemetry_bytes = oh.telemetry_bytes;
    outcome.diagnosis_bytes = oh.diagnosis_bytes;
    const metrics::MatchOptions match = system.match_options();
    outcome.ranks.reserve(result.truths.size());
    for (const auto& truth : result.truths) {
      outcome.ranks.push_back(
          metrics::rank_of_truth(outcome.culprits, truth, match));
    }
    if (!outcome.ranks.empty()) outcome.rank = outcome.ranks.front();
    if (outcome.system == "mars") outcome.provenance = ctx.provenance;
    result.systems.push_back(std::move(outcome));
  }
  return result;
}

}  // namespace

ScenarioResult run_scenario(const ScenarioConfig& config) {
  throw_if_invalid(config);
  net::BuiltFabric fabric =
      net::TopologyRegistry::instance().build(config.topology);
  net::Engine engine(fabric.topology,
                     {.shards = config.sim.shards,
                      .control_latency = config.sim.control_latency});
  sim::ShardedSimulator& ssim = engine.sim();
  net::Network& network = engine.network();
  for (net::SwitchId sw = 0; sw < network.switch_count(); ++sw) {
    network.node(sw).set_queue_capacity(config.queue_capacity);
  }

  Observability* obs = config.observability;
  const obs::Context ctx = trial_context(obs, config.obs);
  configure_obs(config, ctx);

  // Deploy the named systems in config order onto the same packets. Order
  // matters for observer callbacks (MARS's pipeline first, as the golden
  // fingerprints were captured) — each factory attaches its observers.
  std::vector<std::unique_ptr<systems::TelemetrySystem>> deployed;
  deployed.reserve(config.systems.size());
  for (const std::string& name : config.systems) {
    deployed.push_back(
        SystemRegistry::instance().create(name, network, config, obs));
  }

  workload::TrafficGenerator traffic(network, config.seed);
  traffic.add_background(config.background, fabric.edge, fabric.pods);

  faults::FaultInjector injector(network, traffic, config.seed ^ 0xFA17,
                                 config.injector, ctx);
  // Telemetry faults land on the first deployed system that models a
  // degradable channel (MARS); without one they are skipped visibly.
  for (auto& system : deployed) {
    if (auto* channel = system->control_channel(); channel != nullptr) {
      injector.attach_channel(channel);
      break;
    }
  }

  std::optional<obs::Sampler> sampler;
  if (obs != nullptr) {
    obs::scrape_network(network, *ctx.metrics);
    // Sampler scrapes run as global events: between windows, with every
    // shard quiescent, so the per-shard gauges read stable state.
    sampler.emplace(ssim.global(), *ctx.metrics, obs->series,
                    obs::SamplerConfig{.period = config.sample_period,
                                       .until = config.duration},
                    ctx);
    sampler->start();
  }

  if (ctx.log != nullptr) {
    ctx.log->log(obs::LogLevel::kInfo, 0, "scenario", "start",
                 {{"topology", config.topology.name},
                  {"seed", config.seed},
                  {"duration_s", sim::to_seconds(config.duration)},
                  {"systems", std::uint64_t{deployed.size()}}});
  }
  for (auto& system : deployed) system->start();
  traffic.start();

  const auto injected = injector.apply(config.faults);
  std::vector<faults::GroundTruth> truths;
  std::vector<std::string> fault_nodes;  // parallel to truths
  for (std::size_t i = 0; i < injected.size(); ++i) {
    if (!injected[i]) continue;
    truths.push_back(*injected[i]);
    const faults::FaultEvent& event = config.faults.events[i];
    if (ctx.provenance != nullptr) {
      // Ground-truth anchor: attribute_faults joins the graded culprits
      // back to this node after the run.
      fault_nodes.push_back(ctx.provenance->add_node(
          obs::ProvenanceGraph::NodeKind::kFault,
          {{"kind", faults::to_string(event.kind)},
           {"truth", injected[i]->describe()},
           {"ts_s", sim::to_seconds(event.at)}}));
    }
    if (ctx.tracer != nullptr) {
      obs::SpanArgs args{{"fault", faults::to_string(event.kind)},
                         {"truth", injected[i]->describe()}};
      if (ctx.provenance != nullptr) {
        args.push_back({"prov", fault_nodes.back()});
      }
      ctx.tracer->instant("fault_injected", "scenario", event.at, args);
    }
  }

  {
    auto run_span = ctx.wall_span(
        "simulator.run", "sim",
        {{"duration_s", sim::to_seconds(config.duration)},
         {"shards", static_cast<std::uint64_t>(config.sim.shards)}});
    ssim.run(config.duration);
    if (run_span) run_span->arg({"events", ssim.events_executed()});
  }
  // Gray manifestation accounting is filled in by the injector's probes
  // during the run; re-read the final ground truths (same order).
  truths = injector.injected();

  if (ctx.tracer != nullptr) {
    for (int i = 0; i < ssim.shard_count(); ++i) {
      ctx.tracer->complete(
          "sim.shard", "sim", 0, config.duration,
          {{"shard", static_cast<std::uint64_t>(i)},
           {"events", ssim.shard(i).events_executed()},
           {"windows", ssim.shard_stats(i).windows},
           {"busy_windows", ssim.shard_stats(i).busy_windows},
           {"max_window_events", ssim.shard_stats(i).max_window_events}});
    }
  }
  if (obs != nullptr) {
    sampler->stop();
    obs->snapshot = ctx.metrics->snapshot();
    // Scenario-scoped gauges capture the network/systems on this stack;
    // drop them all so nothing dangles after return.
    ctx.metrics->remove_gauges("");
  }

  ScenarioResult result = assemble_result(
      config, ctx, deployed, std::move(truths), network.stats(),
      traffic.packets_injected(), ssim.events_executed(),
      ssim.global().now());
  if (ctx.log != nullptr) {
    ctx.log->log(obs::LogLevel::kInfo, ssim.global().now(), "scenario",
                 "complete",
                 {{"events", result.events_executed},
                  {"packets", result.packets_injected}});
  }
  if (ctx.provenance != nullptr) {
    attribute_faults(*ctx.provenance, result, fault_nodes);
  }
  return result;
}

}  // namespace mars
