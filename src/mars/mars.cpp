#include "mars/mars.hpp"

#include <algorithm>
#include <map>

#include "control/path_registry_cache.hpp"
#include "obs/event_log.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/sharded.hpp"

namespace mars {

MarsSystem::MarsSystem(net::Network& network, MarsConfig config,
                       obs::Context obs)
    : network_(&network), config_(config), obs_(obs),
      accumulator_(config.rca.accumulator) {
  registry_ = control::PathRegistryCache::instance().get_or_build(
      network.topology(), network.routing(), config_.pipeline.path_id);
  if (obs_.log != nullptr) {
    registry_->log_audit(*obs_.log, 0);
  }
  if (obs_.provenance != nullptr) {
    const auto& audit = registry_->audit();
    obs_.provenance->add_node(
        obs::ProvenanceGraph::NodeKind::kRegistry,
        {{"paths", std::uint64_t{audit.path_count}},
         {"hash", telemetry::hash_name(audit.config.hash)},
         {"width_bits", std::uint64_t{audit.config.width_bits}},
         {"initial_collisions", std::uint64_t{audit.initial_collisions}},
         {"mat_entries", std::uint64_t{audit.mat_entries}},
         {"conflict_free", std::uint64_t{audit.conflict_free ? 1u : 0u}}});
  }

  // One latency histogram serves every sink, so the pipeline gets metrics
  // at one shard only (ROADMAP item 1).
  const obs::Context pipeline_obs{
      .metrics = network.pdes().shard_count() == 1 ? obs_.metrics : nullptr};
  // Notifications cross to the control plane as control mail: posted from
  // the sending switch's shard thread, keyed on its lane, and run in the
  // global (control-plane) domain one control latency later, where the
  // channel decides whether and when the controller sees them.
  pipeline_ = std::make_unique<dataplane::MarsPipeline>(
      network.topology().switch_count(), config_.pipeline,
      [this](const dataplane::Notification& n) {
        sim::ShardedSimulator& pdes = network_->pdes();
        sim::Lane& lane = network_->node(n.origin).lane();
        pdes.post_control(
            network_->shard_of(n.origin), lane.now() + pdes.control_latency(),
            lane.next_key(),
            sim::EventFn([this, n] { on_notification(n); }));
      },
      pipeline_obs);
  pipeline_->set_control_mat(registry_->mat());

  // The channel and the controller live in the global domain, which runs
  // only between windows, so they work at every shard count. A perfect
  // channel forwards synchronously and draws nothing.
  channel_ = std::make_unique<control::ControlChannel>(
      network.simulator(), *pipeline_, config_.channel, obs_);
  channel_->set_deliver([this](const dataplane::Notification& n) {
    controller_->on_notification(n);
  });

  controller_ = std::make_unique<control::Controller>(
      network, *pipeline_, config_.controller, obs_);
  controller_->set_channel(channel_.get());
  analyzer_ = std::make_unique<rca::RootCauseAnalyzer>(
      *registry_, config_.rca, &network.topology(), obs_);
  controller_->set_diagnosis_callback([this](const control::DiagnosisData& d) {
    auto analysis = analyzer_->analyze_with_stats(d);
    diagnoses_.push_back(
        Diagnosis{d, std::move(analysis.culprits), analysis.mining});
    const auto& diag = diagnoses_.back();
    if (accumulator_.config().enabled) {
      // Stamp the window with the session's TRIGGER time, not the (later)
      // collection time: ranked(fault_start) must see exactly the
      // sessions the union-merge grades — a session triggered by
      // pre-fault ambient noise whose collection happens to finish after
      // fault onset would otherwise leak loud spurious suspects (sparse
      // pre-incident stats make SBFL ratios spike) into the graded range.
      accumulator_.observe(diag.culprits, d.trigger.when);
    }
    if (obs_.tracer != nullptr) {
      // Close the virtual-time causal chain: trigger -> diagnosis.
      obs::SpanArgs args{
          {"trigger", dataplane::kind_name(d.trigger.kind)},
          {"culprits", std::uint64_t{diag.culprits.size()}}};
      if (!d.provenance_id.empty()) args.push_back({"prov", d.provenance_id});
      obs_.tracer->complete("diagnosis", "mars", d.trigger.when,
                            d.collected_at, args);
    }
    if (obs_.log != nullptr) {
      const obs::LogLevel level = diag.culprits.empty()
                                      ? obs::LogLevel::kError
                                      : obs::LogLevel::kInfo;
      obs_.log->log(
          level, d.collected_at, "mars",
          diag.culprits.empty() ? "diagnosis_empty" : "diagnosis_complete",
          {{"trigger", dataplane::kind_name(d.trigger.kind)},
           {"culprits", std::uint64_t{diag.culprits.size()}},
           {"confidence", d.quality.confidence()},
           {"top", diag.culprits.empty() ? std::string("none")
                                         : diag.culprits.front().describe()}});
    }
    if (obs_.recorder != nullptr &&
        (diag.culprits.empty() ||
         obs_.recorder->should_trigger(d.quality.confidence()))) {
      // Black-box dump: the diagnosis either aborted (no culprits) or
      // completed on degraded evidence — preserve the recent event window.
      obs_.recorder->trigger(diag.culprits.empty() ? "diagnosis_empty"
                                                   : "low_confidence",
                             d.collected_at);
    }
  });

  if (obs_.metrics != nullptr) register_metrics(*obs_.metrics);

  network.add_observer(*pipeline_);
}

void MarsSystem::on_notification(const dataplane::Notification& n) {
  if (obs_.tracer != nullptr) {
    obs::SpanArgs args{{"kind", dataplane::kind_name(n.kind)},
                       {"reporter", std::uint64_t{n.reporter}},
                       {"flow", net::to_string(n.flow)}};
    if (n.kind == dataplane::Notification::Kind::kHighLatency) {
      args.emplace_back("latency_ms", sim::to_seconds(n.latency) * 1e3);
      args.emplace_back("threshold_ms", sim::to_seconds(n.threshold) * 1e3);
    } else {
      args.emplace_back("epoch_gap", n.epoch_gap);
      args.emplace_back("dropped_estimate", n.dropped_estimate);
    }
    obs_.tracer->instant("notification", "dataplane", n.when,
                         std::move(args));
  }
  channel_->offer(n);
}

MarsSystem::~MarsSystem() {
  // The "mars." and "telemetry." gauges capture `this`; they must not
  // outlive us.
  if (obs_.metrics != nullptr) {
    obs_.metrics->remove_gauges("mars.");
    obs_.metrics->remove_gauges("telemetry.");
  }
}

void MarsSystem::register_metrics(obs::MetricsRegistry& registry) {
  registry.gauge("mars.pathid.ambiguous_lookups", [this] {
    return static_cast<double>(registry_->ambiguous_lookups());
  });
  registry.gauge("mars.pathid.mat_entries", [this] {
    return static_cast<double>(registry_->mat_entry_count());
  });
  registry.gauge("mars.telemetry_bytes", [this] {
    return static_cast<double>(overheads().telemetry_bytes);
  });
  registry.gauge("mars.diagnosis_bytes", [this] {
    return static_cast<double>(overheads().diagnosis_bytes);
  });
  registry.gauge("mars.triggered",
                 [this] { return triggered() ? 1.0 : 0.0; });
  registry.gauge("mars.notifications", [this] {
    return static_cast<double>(pipeline_->overheads().notifications);
  });
  registry.gauge("mars.notifications_suppressed", [this] {
    return static_cast<double>(pipeline_->overheads().window_suppressed);
  });
  registry.gauge("mars.telemetry_packets_marked", [this] {
    return static_cast<double>(
        pipeline_->overheads().telemetry_packets_marked);
  });
  registry.gauge("mars.diagnoses", [this] {
    return static_cast<double>(diagnoses_.size());
  });
  registry.gauge("mars.reservoirs", [this] {
    return static_cast<double>(controller_->reservoir_count());
  });
  registry.gauge("mars.reservoir_fill", [this] {
    return controller_->mean_reservoir_fill();
  });
  registry.gauge("mars.confidence",
                 [this] { return confidence().value_or(1.0); });
  registry.gauge("mars.presence",
                 [this] { return presence().value_or(1.0); });
  registry.gauge("mars.accumulator.windows", [this] {
    return static_cast<double>(accumulator_.window_count(0));
  });
  registry.gauge("mars.channel.notifications_dropped", [this] {
    return static_cast<double>(channel_->stats().notifications_dropped);
  });
  registry.gauge("mars.channel.notifications_delayed", [this] {
    return static_cast<double>(channel_->stats().notifications_delayed);
  });
  registry.gauge("mars.channel.reads_failed", [this] {
    return static_cast<double>(channel_->stats().reads_failed);
  });
  registry.gauge("mars.channel.records_lost", [this] {
    return static_cast<double>(channel_->stats().records_lost);
  });
  registry.gauge("mars.channel.records_corrupted", [this] {
    return static_cast<double>(channel_->stats().records_corrupted);
  });
  registry.gauge("mars.controller.poll_fallbacks", [this] {
    return static_cast<double>(controller_->overheads().poll_reads_failed);
  });
  registry.gauge("mars.controller.drain_retry_rounds", [this] {
    return static_cast<double>(controller_->overheads().drain_retry_rounds);
  });
  registry.gauge("mars.controller.drains_abandoned", [this] {
    return static_cast<double>(controller_->overheads().drains_abandoned);
  });
  registry.gauge("mars.controller.records_quarantined", [this] {
    return static_cast<double>(controller_->overheads().records_quarantined);
  });
  registry.gauge("mars.controller.partial_sessions", [this] {
    return static_cast<double>(controller_->overheads().partial_sessions);
  });
  registry.gauge("mars.ring_occupancy", [this] {
    // Mean edge-switch export-store fill fraction (the paper's Fig. 10
    // memory argument made observable; ring tables, INT-MD stores, and
    // digest rings all report through the backend).
    const auto edges =
        network_->topology().switches_in_layer(net::Layer::kEdge);
    if (edges.empty()) return 0.0;
    const auto& backend = pipeline_->backend();
    const auto capacity = static_cast<double>(backend.store_capacity());
    if (capacity <= 0.0) return 0.0;
    double sum = 0.0;
    for (const net::SwitchId sw : edges) {
      sum += static_cast<double>(backend.store_size(sw)) / capacity;
    }
    return sum / static_cast<double>(edges.size());
  });
  // Export-backend accounting (bandwidth-vs-accuracy frontier inputs).
  registry.gauge("telemetry.backend.inband_bytes", [this] {
    return static_cast<double>(pipeline_->backend().counters().inband_bytes);
  });
  registry.gauge("telemetry.backend.records", [this] {
    return static_cast<double>(pipeline_->backend().counters().records);
  });
  registry.gauge("telemetry.backend.epochs", [this] {
    return static_cast<double>(pipeline_->backend().counters().epochs);
  });
  registry.gauge("telemetry.backend.triggers", [this] {
    return static_cast<double>(pipeline_->backend().counters().triggers);
  });
}

std::optional<double> MarsSystem::confidence() const {
  if (diagnoses_.empty()) return std::nullopt;
  double worst = 1.0;
  for (const auto& d : diagnoses_) {
    worst = std::min(worst, d.session.quality.confidence());
  }
  // Flap-aware calibration: evidence completeness says how good each
  // window was; presence says how many windows the suspect showed up in.
  // Both discount independently.
  if (const auto p = presence()) worst *= *p;
  return worst;
}

std::optional<double> MarsSystem::presence() const {
  if (!accumulator_.config().enabled || accumulator_.window_count(0) == 0) {
    return std::nullopt;
  }
  return accumulator_.top_presence(0);
}

rca::CulpritList MarsSystem::culprits_for(sim::Time fault_start) const {
  // Intermittency-hardened path: with the accumulator enabled, the graded
  // list is the decayed multi-epoch ranking — a culprit seen in several
  // windows outranks a one-window ambient suspect even if any single
  // window scored the latter higher.
  if (accumulator_.config().enabled &&
      accumulator_.window_count(fault_start) > 0) {
    rca::CulpritList out = accumulator_.ranked(fault_start);
    if (out.size() > 20) out.resize(20);
    return out;
  }
  // Baseline/ablation path: true single-window SBFL — the newest
  // post-fault session's ranking alone, no cross-session merging. This is
  // what the gray-failure benchmark grades as "single" so the accumulator
  // is measured against the per-epoch ranking it actually replaces, not
  // against the union-merge below (itself a multi-window strategy).
  if (config_.rca.single_window) {
    for (auto it = diagnoses_.rbegin(); it != diagnoses_.rend(); ++it) {
      if (it->session.trigger.when >= fault_start) return it->culprits;
    }
    if (diagnoses_.empty()) return {};
    return diagnoses_.back().culprits;
  }
  // A fault can surface across several diagnosis sessions (e.g. a stalled
  // queue's loss evidence arrives during the fault, its latency evidence
  // when the queue flushes). The operator-facing answer is the union of
  // the post-fault reports: duplicates keep their best score.
  struct Key {
    rca::CauseKind cause;
    rca::CulpritLevel level;
    std::vector<net::SwitchId> location;
    net::PortId port;
    net::FlowId flow;
    bool operator<(const Key& other) const {
      if (cause != other.cause) return cause < other.cause;
      if (level != other.level) return level < other.level;
      if (location != other.location) return location < other.location;
      if (port != other.port) return port < other.port;
      return flow < other.flow;
    }
  };
  std::map<Key, rca::Culprit> merged;
  bool any = false;
  for (const auto& d : diagnoses_) {
    if (d.session.trigger.when < fault_start) continue;
    any = true;
    for (const auto& c : d.culprits) {
      Key key{c.cause, c.level, c.location, c.port, c.flow};
      auto [it, inserted] = merged.try_emplace(std::move(key), c);
      if (!inserted) it->second.score = std::max(it->second.score, c.score);
    }
  }
  if (!any) {
    if (diagnoses_.empty()) return {};
    return diagnoses_.back().culprits;
  }

  // Cross-session refinement: a location reported as Drop by an early
  // session and as a latency-signature cause by a later one (after the
  // stalled queue flushed its evidence) is ONE culprit — the loss is the
  // congestion's shadow. Fold the drop score into the refined cause. The
  // match is exact (switch set AND port): a drop on one port of a switch
  // must not be absorbed by ambient congestion on a different port.
  using Place = std::pair<std::vector<net::SwitchId>, net::PortId>;
  std::map<Place, double> drop_scores;
  for (const auto& [key, culprit] : merged) {
    if (culprit.cause == rca::CauseKind::kDrop) {
      drop_scores[{culprit.location, culprit.port}] += culprit.score;
    }
  }
  for (auto& [key, culprit] : merged) {
    if (culprit.cause == rca::CauseKind::kDrop ||
        culprit.cause == rca::CauseKind::kMicroBurst) {
      continue;
    }
    if (const auto it = drop_scores.find({culprit.location, culprit.port});
        it != drop_scores.end() && it->second > 0) {
      culprit.score += it->second;
      it->second = -1.0;  // consumed
    }
  }
  for (auto it = merged.begin(); it != merged.end();) {
    const bool consumed_drop =
        it->second.cause == rca::CauseKind::kDrop &&
        drop_scores.count({it->second.location, it->second.port}) &&
        drop_scores[{it->second.location, it->second.port}] < 0;
    it = consumed_drop ? merged.erase(it) : std::next(it);
  }

  rca::CulpritList out;
  out.reserve(merged.size());
  for (auto& [key, culprit] : merged) out.push_back(std::move(culprit));
  std::sort(out.begin(), out.end(),
            [](const rca::Culprit& a, const rca::Culprit& b) {
              return a.score > b.score;
            });
  if (out.size() > 20) out.resize(20);
  return out;
}

MarsSystem::Overheads MarsSystem::overheads() const {
  Overheads o;
  const auto p = pipeline_->overheads();
  const auto& c = controller_->overheads();
  o.telemetry_bytes = p.telemetry_bytes;
  o.diagnosis_bytes =
      p.notification_bytes + c.poll_bytes + c.diagnosis_bytes;
  return o;
}

}  // namespace mars
