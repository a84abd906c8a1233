#include "rca/analyzer.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>

#include "util/stats.hpp"

namespace mars::rca {
namespace {

/// Observed paths grouped by PathID, with weights.
struct PathGroup {
  std::span<const net::SwitchId> path;  ///< empty: unknown or ambiguous id
  std::uint64_t abnormal = 0;
  std::uint64_t normal = 0;
  /// Abnormal weight per flow through this path.
  std::unordered_map<net::FlowId, std::uint64_t> abnormal_by_flow;
};

[[nodiscard]] CulpritLevel level_of(const fsm::Sequence& items) {
  return items.size() >= 2 ? CulpritLevel::kLink : CulpritLevel::kSwitch;
}

[[nodiscard]] std::string sequence_label(std::span<const fsm::Item> items) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out += '>';
    out += 's' + std::to_string(items[i]);
  }
  return out;
}

}  // namespace

/// Accumulates the evidence chain of one analysis: epoch node per abnormal
/// path group, pattern node per scored pattern, and (pattern -> culprit)
/// contributions keyed by the culprit's canonical provenance_key(), so the
/// final ranked list (assembled after merging, folding, and truncation)
/// can be linked back to the patterns that produced each entry.
struct RootCauseAnalyzer::ProvScratch {
  obs::ProvenanceGraph* graph = nullptr;
  std::string session_id;
  /// provenance_key(culprit) -> pattern node ids that contributed.
  std::map<std::string, std::vector<std::string>> contributions;
  /// Fallback for port -> switch folding: "<cause>|<front switch>".
  std::map<std::string, std::vector<std::string>> loose_contributions;

  void contribute(const Culprit& culprit, const std::string& pattern_id) {
    if (pattern_id.empty()) return;
    contributions[provenance_key(culprit)].push_back(pattern_id);
    if (!culprit.location.empty()) {
      loose_contributions[std::string(to_string(culprit.cause)) + "|" +
                          std::to_string(culprit.location.front())]
          .push_back(pattern_id);
    }
  }
};

RootCauseAnalyzer::RootCauseAnalyzer(const control::PathRegistry& registry,
                                     RcaConfig config,
                                     const net::Topology* topology,
                                     obs::Context obs)
    : registry_(&registry), config_(config), topology_(topology), obs_(obs) {
  if (config_.mining.threads > 1) {
    mining_pool_ = std::make_unique<parallel::ThreadPool>(
        config_.mining.threads);
  }
  if (obs_.metrics != nullptr) {
    mine_calls_ = &obs_.metrics->counter("mars.rca.mine.calls");
    mine_patterns_ = &obs_.metrics->counter("mars.rca.mine.patterns");
    mine_nodes_ = &obs_.metrics->counter("mars.rca.mine.nodes");
  }
}

std::vector<fsm::Pattern> RootCauseAnalyzer::mine_abnormal(
    const fsm::SequenceDatabase& abnormal, fsm::MiningStats& mining) const {
  const auto miner = fsm::make_miner(config_.miner);
  auto mine_span = obs_.wall_span(
      "rca.mine:" + std::string(fsm::miner_name(config_.miner)), "rca");
  auto result =
      miner->mine_with_stats(abnormal, config_.mining, mining_pool_.get());
  if (mine_span) {
    mine_span->arg({"patterns", std::uint64_t{result.stats.patterns}});
    mine_span->arg({"nodes", std::uint64_t{result.stats.nodes_expanded}});
    mine_span->arg({"peak_bytes", std::uint64_t{result.stats.peak_bytes}});
    mine_span->arg({"threads", std::uint64_t{result.stats.threads_used}});
    mine_span.reset();
  }
  if (mine_calls_ != nullptr) {
    mine_calls_->inc();
    mine_patterns_->inc(result.stats.patterns);
    mine_nodes_->inc(result.stats.nodes_expanded);
  }
  // A session can mine more than once (latency pass + drop pass): counts
  // and wall time add up, the memory axis keeps the widest pass.
  mining.patterns += result.stats.patterns;
  mining.nodes_expanded += result.stats.nodes_expanded;
  mining.peak_bytes = std::max(mining.peak_bytes, result.stats.peak_bytes);
  mining.wall_seconds += result.stats.wall_seconds;
  mining.threads_used =
      std::max(mining.threads_used, result.stats.threads_used);
  return std::move(result.patterns);
}

void RootCauseAnalyzer::assign_location(Culprit& culprit,
                                        const fsm::Sequence& pattern) const {
  // A link pattern <a,b> with a port-scoped cause names a's egress port
  // towards b (paper: process-rate/delay/drop are port/switch-level).
  if (topology_ != nullptr && pattern.size() == 2) {
    if (const auto port = topology_->port_towards(pattern[0], pattern[1])) {
      culprit.level = CulpritLevel::kPort;
      culprit.location = {pattern[0]};
      culprit.port = *port;
      return;
    }
  }
  culprit.level = level_of(pattern);
  culprit.location = pattern;
}

AnalysisResult RootCauseAnalyzer::analyze_with_stats(
    const control::DiagnosisData& data) const {
  AnalysisResult result;
  auto span = obs_.wall_span("rca.analyze", "rca");
  if (span) {
    span->arg({"trigger", dataplane::kind_name(data.trigger.kind)});
    span->arg({"records", std::uint64_t{data.records.size()}});
  }
  std::optional<ProvScratch> prov;
  if (obs_.provenance != nullptr) {
    prov.emplace();
    prov->graph = obs_.provenance;
    // The controller normally created the session node; a standalone
    // analyzer (tests, tools) gets a minimal one so the chain still roots.
    prov->session_id =
        !data.provenance_id.empty()
            ? data.provenance_id
            : obs_.provenance->add_node(
                  obs::ProvenanceGraph::NodeKind::kSession,
                  {{"trigger", dataplane::kind_name(data.trigger.kind)}});
  }
  ProvScratch* prov_ptr = prov ? &*prov : nullptr;
  // A count deficit also appears when packets stall behind a congested or
  // delaying port: they arrive, just late, and also raise HighLatency
  // notifications. The notification mix collected with the session decides
  // which pass leads: any HighLatency evidence makes the latency analysis
  // (whose signatures name the cause) primary, with drop culprits appended
  // when loss was also reported; Drop-only evidence is genuine loss and
  // runs the drop-specific SBFL pass alone (§4.4.4).
  const bool saw_latency =
      data.saw(dataplane::Notification::Kind::kHighLatency) ||
      data.trigger.kind == dataplane::Notification::Kind::kHighLatency;
  const bool saw_drop = data.saw(dataplane::Notification::Kind::kDrop) ||
                        data.trigger.kind ==
                            dataplane::Notification::Kind::kDrop;
  CulpritList& culprits = result.culprits;
  if (!saw_latency && saw_drop) {
    culprits = analyze_drop(data, result.mining, prov_ptr);
    finish_provenance(prov_ptr, culprits);
    return result;
  }

  // Both kinds (or latency only): is the loss evidence genuine, or the
  // shadow of congestion (packets stuck or delayed, not gone)? Genuine
  // loss leaves its affected flows with ordinary queues and ordinary
  // latency — the missing packets simply never arrive.
  bool real_drop = false;
  if (saw_drop) {
    std::vector<double> queues, latency_ratios;
    for (const auto& rec : data.records) {
      if (rec.sink_timestamp <
          data.trigger.when - config_.signatures.problem_window) {
        continue;
      }
      const auto threshold = std::max<std::uint32_t>(
          config_.drop_count_threshold,
          static_cast<std::uint32_t>(
              config_.drop_count_relative *
              static_cast<double>(rec.src_last_epoch_count)));
      const bool affected =
          rec.epoch_gap > 0 ||
          (rec.src_last_epoch_count > rec.sink_last_epoch_count &&
           rec.src_last_epoch_count - rec.sink_last_epoch_count > threshold);
      if (!affected) continue;
      queues.push_back(static_cast<double>(rec.total_queue_depth));
      const auto it = data.thresholds.find(rec.flow);
      const sim::Time thr =
          it != data.thresholds.end() ? it->second : data.default_threshold;
      latency_ratios.push_back(static_cast<double>(rec.latency) /
                               std::max(static_cast<double>(thr), 1.0));
    }
    const bool congested =
        !queues.empty() &&
        util::median(queues) >= config_.signatures.queue_abs_min;
    const bool latent =
        !latency_ratios.empty() && util::median(latency_ratios) > 1.0;
    real_drop = !congested && !latent;
  }

  if (real_drop) {
    // The loss is the story; ambient latency culprits rank behind it.
    culprits = analyze_drop(data, result.mining, prov_ptr);
    auto latency = analyze_latency(data, result.mining, prov_ptr);
    culprits.insert(culprits.end(),
                    std::make_move_iterator(latency.begin()),
                    std::make_move_iterator(latency.end()));
  } else {
    // Any loss evidence is congestion's shadow; the latency signatures
    // name the true cause.
    culprits = analyze_latency(data, result.mining, prov_ptr);
  }
  if (culprits.size() > config_.max_culprits) {
    culprits.resize(config_.max_culprits);
  }
  finish_provenance(prov_ptr, culprits);
  return result;
}

void RootCauseAnalyzer::finish_provenance(ProvScratch* prov,
                                          const CulpritList& culprits) const {
  if (prov == nullptr) return;
  obs::ProvenanceGraph& graph = *prov->graph;
  for (std::size_t i = 0; i < culprits.size(); ++i) {
    const Culprit& c = culprits[i];
    const std::string key = provenance_key(c);
    const std::string suspect_id = graph.add_node(
        obs::ProvenanceGraph::NodeKind::kSuspect,
        {{"rank", std::uint64_t{i + 1}},
         {"score", c.score},
         {"cause", to_string(c.cause)},
         {"level", to_string(c.level)},
         {"describe", c.describe()},
         {"key", key}});
    // Exact-key contributions first; port-level culprits folded into a
    // switch-level one fall back to (cause, front switch).
    const std::vector<std::string>* pattern_ids = nullptr;
    const auto exact = prov->contributions.find(key);
    if (exact != prov->contributions.end()) {
      pattern_ids = &exact->second;
    } else if (!c.location.empty()) {
      const auto loose = prov->loose_contributions.find(
          std::string(to_string(c.cause)) + "|" +
          std::to_string(c.location.front()));
      if (loose != prov->loose_contributions.end()) {
        pattern_ids = &loose->second;
      }
    }
    if (pattern_ids != nullptr) {
      std::vector<std::string> unique = *pattern_ids;
      std::sort(unique.begin(), unique.end());
      unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
      for (const std::string& pattern_id : unique) {
        graph.add_edge(pattern_id, suspect_id, "scored");
      }
    } else {
      // No mined contribution survived (should not happen; keeps the
      // graph connected if it does).
      graph.add_edge(prov->session_id, suspect_id, "ranked");
    }
  }
}

CulpritList RootCauseAnalyzer::analyze_latency(
    const control::DiagnosisData& data, fsm::MiningStats& mining,
    ProvScratch* prov) const {
  // Only recent history is evidence about THIS fault; older Ring Table
  // records feed the baseline features but not the abnormal/normal sets.
  std::vector<telemetry::RtRecord> recent;
  for (const auto& rec : data.records) {
    if (rec.sink_timestamp >= data.trigger.when - config_.analysis_window) {
      recent.push_back(rec);
    }
  }

  // (1) Restore an approximate packet-level view from the samples.
  EstimatorConfig est_cfg = config_.estimator;
  auto estimate_span = obs_.wall_span("rca.estimate", "rca");
  const auto estimated = estimate_traffic(recent, est_cfg);
  if (estimate_span) {
    estimate_span->arg({"packets", std::uint64_t{estimated.size()}});
    estimate_span.reset();
  }
  if (estimated.empty()) return {};

  // (2) Classify each estimated packet by its flow's dynamic threshold and
  // aggregate by PathID.
  std::unordered_map<std::uint32_t, PathGroup> groups;
  for (const auto& p : estimated) {
    const auto it = data.thresholds.find(p.flow);
    const sim::Time thr =
        it != data.thresholds.end() ? it->second : data.default_threshold;
    PathGroup& g = groups[p.path_id];
    if (g.path.empty()) g.path = registry_->lookup(p.path_id);
    if (g.path.empty()) continue;  // unknown id: cannot decompress
    if (p.latency > thr) {
      ++g.abnormal;
      ++g.abnormal_by_flow[p.flow];
    } else {
      ++g.normal;
    }
  }

  fsm::SequenceDatabase abnormal, normal;
  for (const auto& [id, g] : groups) {
    if (g.path.empty()) continue;
    const fsm::Sequence path(g.path.begin(), g.path.end());
    if (g.abnormal > 0) abnormal.add(path, g.abnormal);
    if (g.normal > 0) normal.add(path, g.normal);
  }
  if (abnormal.empty()) return {};

  // One epoch node per abnormal path group, in sorted path-id order so
  // node ids are deterministic regardless of hash-map iteration.
  std::unordered_map<std::uint32_t, std::string> epoch_ids;
  if (prov != nullptr) {
    std::vector<std::uint32_t> abnormal_ids;
    for (const auto& [id, g] : groups) {
      if (!g.path.empty() && g.abnormal > 0) abnormal_ids.push_back(id);
    }
    std::sort(abnormal_ids.begin(), abnormal_ids.end());
    for (const std::uint32_t id : abnormal_ids) {
      const PathGroup& g = groups.at(id);
      const std::string epoch_id = prov->graph->add_node(
          obs::ProvenanceGraph::NodeKind::kEpoch,
          {{"pass", "latency"},
           {"path_id", std::uint64_t{id}},
           {"path", sequence_label(g.path)},
           {"abnormal", g.abnormal},
           {"normal", g.normal},
           {"flows", std::uint64_t{g.abnormal_by_flow.size()}}});
      prov->graph->add_edge(prov->session_id, epoch_id, "classified");
      epoch_ids.emplace(id, epoch_id);
    }
  }

  // (3) Mine culprit locations from the abnormal set.
  const auto patterns = mine_abnormal(abnormal, mining);
  if (patterns.empty()) return {};

  // (4) Relative-risk SBFL scores.
  auto sbfl_span = obs_.wall_span("rca.sbfl", "rca");
  auto scored = score_patterns(patterns, abnormal, normal,
                               config_.mining.contiguous, config_.formula);
  sbfl_span.reset();
  if (scored.size() > config_.max_patterns) {
    scored.resize(config_.max_patterns);
  }

  const sim::Time problem_start =
      data.trigger.when - config_.signatures.problem_window;

  // (5) Alg. 3: assign a cause per (pattern, flow) and score it.
  auto localize_span = obs_.wall_span("rca.localize", "rca");
  std::vector<Culprit> raw;
  for (const auto& sp : scored) {
    if (sp.score <= 0.0) continue;
    // Flows whose abnormal packets traverse this pattern, plus totals.
    std::unordered_map<net::FlowId, std::uint64_t> flow_pkts;
    std::uint64_t pattern_pkts = 0;
    std::vector<std::uint32_t> covering_groups;
    for (const auto& [id, g] : groups) {
      if (g.path.empty() || g.abnormal == 0) continue;
      if (!fsm::contains_pattern(g.path, sp.pattern.items,
                                 config_.mining.contiguous)) {
        continue;
      }
      covering_groups.push_back(id);
      for (const auto& [flow, n] : g.abnormal_by_flow) {
        flow_pkts[flow] += n;
        pattern_pkts += n;
      }
    }
    if (pattern_pkts == 0) continue;

    std::string pattern_id;
    if (prov != nullptr) {
      pattern_id = prov->graph->add_node(
          obs::ProvenanceGraph::NodeKind::kPattern,
          {{"pass", "latency"},
           {"items", sequence_label(sp.pattern.items)},
           {"support", sp.pattern.support},
           {"score", sp.score}});
      std::sort(covering_groups.begin(), covering_groups.end());
      for (const std::uint32_t id : covering_groups) {
        const auto it = epoch_ids.find(id);
        if (it != epoch_ids.end()) {
          prov->graph->add_edge(it->second, pattern_id, "mined");
        }
      }
    }

    // First pass: which flows through this pattern are bursting? A burst
    // explains the congestion every other flow on the pattern suffers, so
    // their evidence is attributed to the burst rather than spawning
    // competing process-rate culprits (explaining-away).
    std::vector<net::FlowId> spiked;
    for (const auto& [flow, pkts] : flow_pkts) {
      const auto features = extract_flow_features(
          data.records, flow, problem_start, config_.estimator.sample_gap);
      if (features.pps_spiked(config_.signatures)) spiked.push_back(flow);
    }

    for (const auto& [flow, pkts] : flow_pkts) {
      const double share = static_cast<double>(pkts) /
                           static_cast<double>(pattern_pkts);
      const double score = sp.score * share;
      const auto features = extract_flow_features(
          data.records, flow, problem_start,
          config_.estimator.sample_gap);

      if (!spiked.empty() &&
          std::find(spiked.begin(), spiked.end(), flow) == spiked.end()) {
        // Victim of the burst: credit its evidence to the burst culprits.
        for (const net::FlowId& burst_flow : spiked) {
          Culprit victim_credit;
          victim_credit.level = CulpritLevel::kFlow;
          victim_credit.flow = burst_flow;
          victim_credit.cause = CauseKind::kMicroBurst;
          victim_credit.location = sp.pattern.items;
          victim_credit.score =
              score / static_cast<double>(spiked.size());
          if (prov != nullptr) prov->contribute(victim_credit, pattern_id);
          raw.push_back(std::move(victim_credit));
        }
        continue;
      }

      Culprit culprit;
      culprit.score = score;

      // ECMP evidence: did this flow's per-path throughput split become
      // uneven in the problem window? Only a weight change moves packets
      // between paths, so this check is decisive when it fires.
      const auto baseline = path_shares(data.records, flow, 0, problem_start);
      const auto problem =
          path_shares(data.records, flow, problem_start,
                      std::numeric_limits<sim::Time>::max());
      std::vector<std::pair<std::uint32_t, std::span<const net::SwitchId>>>
          paths;
      for (const auto* shares : {&baseline, &problem}) {
        for (const auto& s : *shares) {
          paths.emplace_back(s.path_id, registry_->lookup(s.path_id));
        }
      }
      sim::Time earliest = problem_start;
      for (const auto& r : data.records) {
        if (r.flow == flow) earliest = std::min(earliest, r.sink_timestamp);
      }
      const double baseline_s =
          sim::to_seconds(problem_start - earliest);
      const double problem_s =
          sim::to_seconds(data.collected_at - problem_start);
      const auto verdict =
          detect_ecmp_imbalance(baseline, problem, paths, config_.signatures,
                                baseline_s, problem_s);

      if (features.pps_spiked(config_.signatures)) {
        culprit.level = CulpritLevel::kFlow;
        culprit.flow = flow;
        culprit.cause = CauseKind::kMicroBurst;
        culprit.location = sp.pattern.items;
      } else if (verdict) {
        culprit.level = CulpritLevel::kSwitch;
        culprit.location = {verdict->chooser};
        culprit.cause = CauseKind::kEcmpImbalance;
      } else if (features.queue_congested(config_.signatures)) {
        assign_location(culprit, sp.pattern.items);
        culprit.cause = CauseKind::kProcessRateDecrease;
      } else {
        assign_location(culprit, sp.pattern.items);
        culprit.cause = CauseKind::kDelay;
      }
      if (prov != nullptr) prov->contribute(culprit, pattern_id);
      raw.push_back(std::move(culprit));
    }
  }
  if (localize_span) {
    localize_span->arg({"culprits", std::uint64_t{raw.size()}});
    localize_span.reset();
  }
  return merge_and_rank(std::move(raw));
}

CulpritList RootCauseAnalyzer::analyze_drop(
    const control::DiagnosisData& data, fsm::MiningStats& mining,
    ProvScratch* prov) const {
  // Flows with missing telemetry epochs or count mismatches are the
  // affected set (§4.4.4 "Drop").
  std::vector<telemetry::RtRecord> recent;
  for (const auto& rec : data.records) {
    if (rec.sink_timestamp >= data.trigger.when - config_.analysis_window) {
      recent.push_back(rec);
    }
  }
  std::unordered_set<net::FlowId> affected;
  for (const auto& rec : recent) {
    const bool gap = rec.epoch_gap > 0;
    const auto threshold = std::max<std::uint32_t>(
        config_.drop_count_threshold,
        static_cast<std::uint32_t>(
            config_.drop_count_relative *
            static_cast<double>(rec.src_last_epoch_count)));
    const bool mismatch =
        rec.src_last_epoch_count > rec.sink_last_epoch_count &&
        rec.src_last_epoch_count - rec.sink_last_epoch_count > threshold;
    if (gap || mismatch) affected.insert(rec.flow);
  }
  if (affected.empty()) return {};

  // Second SBFL instance. The abnormal set is weighted by the DEFICIT of
  // each affected flow's paths — where packets went missing — rather than
  // by surviving arrivals (which are lowest exactly where the loss is).
  // Per-path baseline and problem rates come from the records' complete
  // per-path counts.
  const sim::Time problem_start =
      data.trigger.when - config_.signatures.problem_window;
  struct PathRate {
    double base_packets = 0, base_records = 0;
    double prob_packets = 0, prob_records = 0;
  };
  std::unordered_map<net::FlowId, std::unordered_map<std::uint32_t, PathRate>>
      per_flow;
  std::unordered_map<std::uint32_t, std::uint64_t> normal_weights;
  std::unordered_map<std::uint32_t, std::uint64_t> abnormal_path_weights;
  for (const auto& rec : recent) {
    if (affected.count(rec.flow)) {
      auto& rates = per_flow[rec.flow];
      const bool problem = rec.sink_timestamp >= problem_start;
      for (std::uint8_t i = 0; i < rec.path_count_n; ++i) {
        PathRate& r = rates[rec.path_counts[i].path_id];
        if (problem) {
          r.prob_packets += rec.path_counts[i].packets;
          r.prob_records += 1;
        } else {
          r.base_packets += rec.path_counts[i].packets;
          r.base_records += 1;
        }
      }
    } else {
      normal_weights[rec.path_id] +=
          std::max<std::uint32_t>(rec.path_epoch_packets, 1);
    }
  }

  fsm::SequenceDatabase abnormal, normal;
  for (const auto& [flow, rates] : per_flow) {
    // Deficit per path: baseline per-epoch rate minus problem rate.
    double total_deficit = 0.0;
    std::vector<std::pair<std::uint32_t, double>> deficits;
    for (const auto& [path_id, r] : rates) {
      const double base =
          r.base_records > 0 ? r.base_packets / r.base_records : 0.0;
      const double prob =
          r.prob_records > 0 ? r.prob_packets / r.prob_records : 0.0;
      const double deficit = std::max(base - prob, 0.0);
      if (deficit > 0) {
        deficits.emplace_back(path_id, deficit);
        total_deficit += deficit;
      }
    }
    if (total_deficit <= 0.0) {
      // No per-path deficit visible; spread evenly over observed paths.
      for (const auto& [path_id, r] : rates) {
        deficits.emplace_back(path_id, 1.0);
        total_deficit += 1.0;
      }
    }
    for (const auto& [path_id, deficit] : deficits) {
      const std::span<const net::SwitchId> path = registry_->lookup(path_id);
      if (path.empty()) continue;
      const auto weight = static_cast<std::uint64_t>(
          100.0 * deficit / total_deficit + 0.5);
      if (weight > 0) {
        abnormal.add(fsm::Sequence(path.begin(), path.end()), weight);
        abnormal_path_weights[path_id] += weight;
      }
    }
  }
  for (const auto& [id, w] : normal_weights) {
    const std::span<const net::SwitchId> path = registry_->lookup(id);
    if (!path.empty() && w > 0) {
      normal.add(fsm::Sequence(path.begin(), path.end()), w);
    }
  }
  if (abnormal.empty()) return {};

  // One epoch node per deficit-weighted abnormal path (sorted for
  // deterministic ids), mirroring the latency pass.
  std::unordered_map<std::uint32_t, std::string> epoch_ids;
  if (prov != nullptr) {
    std::vector<std::uint32_t> ids;
    for (const auto& [id, w] : abnormal_path_weights) ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    for (const std::uint32_t id : ids) {
      const std::span<const net::SwitchId> path = registry_->lookup(id);
      if (path.empty()) continue;
      const std::string epoch_id = prov->graph->add_node(
          obs::ProvenanceGraph::NodeKind::kEpoch,
          {{"pass", "drop"},
           {"path_id", std::uint64_t{id}},
           {"path", sequence_label(path)},
           {"deficit_weight", abnormal_path_weights.at(id)}});
      prov->graph->add_edge(prov->session_id, epoch_id, "classified");
      epoch_ids.emplace(id, epoch_id);
    }
  }

  const auto patterns = mine_abnormal(abnormal, mining);
  auto sbfl_span = obs_.wall_span("rca.sbfl", "rca");
  auto scored = score_patterns(patterns, abnormal, normal,
                               config_.mining.contiguous, config_.formula);
  sbfl_span.reset();
  if (scored.size() > config_.max_patterns) {
    scored.resize(config_.max_patterns);
  }

  std::vector<Culprit> raw;
  for (const auto& sp : scored) {
    if (sp.score <= 0.0) continue;
    Culprit culprit;
    assign_location(culprit, sp.pattern.items);
    culprit.cause = CauseKind::kDrop;
    culprit.score = sp.score;
    if (prov != nullptr) {
      const std::string pattern_id = prov->graph->add_node(
          obs::ProvenanceGraph::NodeKind::kPattern,
          {{"pass", "drop"},
           {"items", sequence_label(sp.pattern.items)},
           {"support", sp.pattern.support},
           {"score", sp.score}});
      std::vector<std::uint32_t> covering;
      for (const auto& [id, epoch_id] : epoch_ids) {
        const std::span<const net::SwitchId> path = registry_->lookup(id);
        if (!path.empty() &&
            fsm::contains_pattern(path, sp.pattern.items,
                                  config_.mining.contiguous)) {
          covering.push_back(id);
        }
      }
      std::sort(covering.begin(), covering.end());
      for (const std::uint32_t id : covering) {
        prov->graph->add_edge(epoch_ids.at(id), pattern_id, "mined");
      }
      prov->contribute(culprit, pattern_id);
    }
    raw.push_back(std::move(culprit));
  }
  return merge_and_rank(std::move(raw));
}

CulpritList RootCauseAnalyzer::merge_and_rank(std::vector<Culprit> raw) const {
  struct Key {
    CauseKind cause;
    CulpritLevel level;
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
  std::map<Key, Culprit> merged;
  for (auto& c : raw) {
    Key key{c.cause, c.level, c.location,
            c.level == CulpritLevel::kPort ? c.port : net::kHostPort,
            c.level == CulpritLevel::kFlow
                ? c.flow
                : net::FlowId{net::kInvalidSwitch, net::kInvalidSwitch}};
    auto [it, inserted] = merged.try_emplace(std::move(key), c);
    if (inserted) continue;
    if (c.level == CulpritLevel::kFlow) {
      // Flow-level duplicates keep the max (actual anomaly localization
      // dominates, §4.4.4).
      it->second.score = std::max(it->second.score, c.score);
    } else {
      it->second.score += c.score;
    }
  }

  // §4.4.4: port-level causes of the same type assigned to MULTIPLE ports
  // of one switch fold into a single switch-level cause.
  std::map<std::pair<CauseKind, net::SwitchId>, std::vector<const Key*>>
      port_groups;
  for (const auto& [key, culprit] : merged) {
    if (culprit.level == CulpritLevel::kPort) {
      port_groups[{culprit.cause, culprit.location.front()}].push_back(&key);
    }
  }
  for (const auto& [group, keys] : port_groups) {
    if (keys.size() < 2) continue;
    Culprit folded;
    folded.level = CulpritLevel::kSwitch;
    folded.cause = group.first;
    folded.location = {group.second};
    for (const Key* key : keys) {
      folded.score += merged.at(*key).score;
      merged.erase(*key);
    }
    Key folded_key{folded.cause, folded.level, folded.location,
                   net::kHostPort,
                   net::FlowId{net::kInvalidSwitch, net::kInvalidSwitch}};
    auto [it, inserted] = merged.try_emplace(std::move(folded_key), folded);
    if (!inserted) it->second.score += folded.score;
  }

  CulpritList out;
  out.reserve(merged.size());
  for (auto& [key, culprit] : merged) out.push_back(std::move(culprit));
  std::sort(out.begin(), out.end(), [](const Culprit& a, const Culprit& b) {
    if (a.score != b.score) return a.score > b.score;
    if (a.level != b.level) return a.level < b.level;
    return a.location < b.location;
  });
  if (out.size() > config_.max_culprits) out.resize(config_.max_culprits);
  return out;
}

}  // namespace mars::rca
