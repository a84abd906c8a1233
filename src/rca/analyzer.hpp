#pragma once
// The MARS root-cause analyzer (paper §4.4): orchestrates
//   (1) actual-traffic estimation (Alg. 2),
//   (2) abnormal/normal classification by reservoir thresholds,
//   (3) frequent-sequence mining of culprit locations (FSM, §4.4.2),
//   (4) relative-risk SBFL scoring (Eq. 1, §4.4.3),
//   (5) signature matching + culprit localization and merging (Alg. 3),
// and the separate second SBFL pass for drop events (§4.4.4 "Drop").

#include <memory>
#include <string>
#include <vector>

#include "control/controller.hpp"
#include "control/path_registry.hpp"
#include "fsm/miner.hpp"
#include "obs/context.hpp"
#include "obs/provenance.hpp"
#include "obs/registry.hpp"
#include "parallel/thread_pool.hpp"
#include "rca/accumulator.hpp"
#include "rca/sbfl.hpp"
#include "rca/signatures.hpp"
#include "rca/traffic_estimator.hpp"
#include "rca/types.hpp"

namespace mars::rca {

struct RcaConfig {
  fsm::MiningParams mining{
      .min_support_abs = 1,
      .min_support_rel = 0.2,
      .max_length = 2,
      .contiguous = true,
  };
  fsm::MinerKind miner = fsm::MinerKind::kPrefixSpan;
  SbflFormula formula = SbflFormula::kRelativeRisk;
  SignatureConfig signatures;
  EstimatorConfig estimator;
  /// Count-mismatch tolerance when marking drop-affected flows:
  /// max(absolute, relative * source count), mirroring the data plane.
  std::uint32_t drop_count_threshold = 3;
  double drop_count_relative = 0.2;
  /// Only records this recent (relative to the trigger) enter the
  /// abnormal/normal sets — older Ring Table history is baseline context
  /// for the signatures, not evidence about the current fault.
  sim::Time analysis_window = 800 * sim::kMillisecond;
  /// Patterns examined for culprit assignment (the rest cannot enter the
  /// operator's short list anyway).
  std::size_t max_patterns = 16;
  std::size_t max_culprits = 20;
  /// Multi-epoch evidence accumulation for intermittent (gray) faults —
  /// consumed by MarsSystem, not by the single-session analyzer itself.
  AccumulatorConfig accumulator;
  /// Baseline/ablation knob (consumed by MarsSystem): grade only the
  /// newest post-fault diagnosis session — true single-window SBFL, what
  /// an operator sees with no cross-epoch merging at all. Ignored when
  /// the accumulator is enabled. Off by default: the default reporting
  /// path stays the cross-session union-merge.
  bool single_window = false;
};

/// One diagnosis session's output plus the aggregate cost of its FSM
/// mining passes (Fig. 11's axes: a session may mine once for latency,
/// once for drops — patterns/nodes/wall sum, peak_bytes is the max).
struct AnalysisResult {
  CulpritList culprits;
  fsm::MiningStats mining;
};

class RootCauseAnalyzer {
 public:
  /// `topology` (optional) enables port-level culprit attribution: a link
  /// pattern <a,b> with a port-scoped cause names a's egress port towards
  /// b. Without it, culprits stay at link/switch granularity.
  /// `config.mining.threads > 1` makes the analyzer own a thread pool,
  /// shared by every mining pass it runs. `obs` sinks, each optional:
  ///   - tracer: wall-clock spans around each analysis phase — traffic
  ///     estimation, FSM mining (named per miner), SBFL scoring,
  ///     localization — the paper's "diagnosis cost" profile;
  ///   - metrics: every mining pass bumps the
  ///     mars.rca.mine.{calls,patterns,nodes} counters;
  ///   - provenance: each analysis adds epoch nodes (abnormal path
  ///     groups), pattern nodes (mined + scored), and suspect nodes (the
  ///     final ranked list), chained session -> epoch -> pattern ->
  ///     suspect. Suspect nodes carry the canonical provenance_key() so
  ///     outcomes can be joined back to nodes.
  explicit RootCauseAnalyzer(const control::PathRegistry& registry,
                             RcaConfig config = {},
                             const net::Topology* topology = nullptr,
                             obs::Context obs = {});

  /// Produce the ranked culprit list for one diagnosis session.
  [[nodiscard]] CulpritList analyze(const control::DiagnosisData& data) const {
    return analyze_with_stats(data).culprits;
  }

  /// analyze() plus the session's mining cost report.
  [[nodiscard]] AnalysisResult analyze_with_stats(
      const control::DiagnosisData& data) const;

  [[nodiscard]] const RcaConfig& config() const { return config_; }

 private:
  /// Per-analysis provenance scratch (defined in the .cpp); null when no
  /// graph is attached.
  struct ProvScratch;

  [[nodiscard]] CulpritList analyze_latency(const control::DiagnosisData& data,
                                            fsm::MiningStats& mining,
                                            ProvScratch* prov) const;
  [[nodiscard]] CulpritList analyze_drop(const control::DiagnosisData& data,
                                         fsm::MiningStats& mining,
                                         ProvScratch* prov) const;
  /// Append one suspect node per final ranked culprit, linked to the
  /// patterns that contributed its score.
  void finish_provenance(ProvScratch* prov, const CulpritList& culprits) const;
  /// Run the configured miner, fold its stats into `mining`, and feed the
  /// attached tracer/metrics.
  [[nodiscard]] std::vector<fsm::Pattern> mine_abnormal(
      const fsm::SequenceDatabase& abnormal, fsm::MiningStats& mining) const;
  /// Merge per §4.4.4: flow-level causes take the max score of duplicates,
  /// others sum; port-level causes of the same kind on multiple ports of
  /// one switch fold into a switch-level cause; then sort descending and
  /// truncate.
  [[nodiscard]] CulpritList merge_and_rank(std::vector<Culprit> raw) const;
  /// Refine a link-pattern culprit to port level when topology is known.
  void assign_location(Culprit& culprit, const fsm::Sequence& pattern) const;

  const control::PathRegistry* registry_;
  RcaConfig config_;
  const net::Topology* topology_;
  obs::Context obs_;
  /// The mining counters; all null when no registry is attached.
  obs::Counter* mine_calls_ = nullptr;
  obs::Counter* mine_patterns_ = nullptr;
  obs::Counter* mine_nodes_ = nullptr;
  /// Shared by every mining pass; null when config_.mining.threads <= 1.
  std::unique_ptr<parallel::ThreadPool> mining_pool_;
};

}  // namespace mars::rca
