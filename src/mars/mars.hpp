#pragma once
// MarsSystem: the fully-wired MARS deployment over a simulated network —
// data-plane pipeline on every switch, control plane with per-flow
// reservoirs, PathID registry, and the RCA engine. One object per network;
// attach, start(), run the simulation, read diagnoses().

#include <memory>
#include <vector>

#include "control/channel.hpp"
#include "control/controller.hpp"
#include "control/path_registry.hpp"
#include "dataplane/mars_pipeline.hpp"
#include "net/network.hpp"
#include "obs/context.hpp"
#include "rca/analyzer.hpp"
#include "systems/telemetry_system.hpp"

namespace mars {

struct MarsConfig {
  dataplane::PipelineConfig pipeline;
  control::ControllerConfig controller;
  /// Control-channel degradation model. The default is perfect — no
  /// drops, no delays, no read failures — and a perfect channel forwards
  /// synchronously, draws no random numbers and schedules no events.
  control::ChannelConfig channel;
  rca::RcaConfig rca;
};

/// One completed diagnosis: the session data, the ranked culprits, and
/// the cost of the FSM mining passes that produced them.
struct Diagnosis {
  control::DiagnosisData session;
  rca::CulpritList culprits;
  fsm::MiningStats mining;
};

class MarsSystem final : public systems::TelemetrySystem {
 public:
  /// Builds the registry, attaches the pipeline as an observer, and wires
  /// notifications -> controller -> analyzer. Does not start polling.
  ///
  /// Every part gets `obs` and takes the sinks it emits to (see each
  /// constructor). MarsSystem itself emits to these, each optional:
  ///   - metrics: the "mars."/"telemetry." gauge family (register_metrics),
  ///     removed again by the destructor;
  ///   - tracer: the notification instant (stamped where it was sent,
  ///     emitted where it reaches the control plane) and the diagnosis
  ///     span that closes the notification -> collection -> diagnosis
  ///     chain;
  ///   - log: the PathID registry audit and each diagnosis's outcome;
  ///   - provenance: the registry audit node;
  ///   - recorder: a dump when a diagnosis completes below its confidence
  ///     threshold or with an empty culprit list.
  /// The sinks must outlive the MarsSystem.
  MarsSystem(net::Network& network, MarsConfig config = {},
             obs::Context obs = {});
  ~MarsSystem() override;

  [[nodiscard]] std::string_view name() const override { return "MARS"; }

  /// Begin control-plane polling (call once before the simulation runs).
  void start() override { controller_->start(); }

  /// TelemetrySystem grading entry point: the culprits for the queried
  /// fault window. MARS is self-triggering; the expert hint is ignored.
  [[nodiscard]] rca::CulpritList diagnose(
      const systems::DiagnosisQuery& query) override {
    return culprits_for(query.fault_start);
  }

  [[nodiscard]] bool triggered() const override { return !diagnoses_.empty(); }

  /// MARS names causes, and is graded on them (Table 1).
  [[nodiscard]] metrics::MatchOptions match_options() const override {
    return {.require_cause = true};
  }

  /// Worst-case evidence completeness over the graded diagnoses: the
  /// minimum session confidence, or nullopt before any diagnosis. 1.0
  /// exactly when no observable degradation touched any session. With the
  /// evidence accumulator enabled, additionally scaled by the top
  /// suspect's presence — the fraction of diagnosis windows it appeared
  /// in — so an intermittent (flapping) culprit reports proportionally
  /// lower confidence than an always-on one.
  [[nodiscard]] std::optional<double> confidence() const override;

  /// Fraction of diagnosis windows the top accumulated suspect appeared
  /// in; nullopt unless the evidence accumulator is enabled and has
  /// observed at least one diagnosis.
  [[nodiscard]] std::optional<double> presence() const override;

  /// The channel every notification and Ring-Table read crosses;
  /// telemetry FaultKinds schedule their degradation windows here.
  [[nodiscard]] control::ControlChannel* control_channel() override {
    return channel_.get();
  }

  [[nodiscard]] dataplane::MarsPipeline& pipeline() { return *pipeline_; }
  [[nodiscard]] control::Controller& controller() { return *controller_; }
  [[nodiscard]] const control::PathRegistry& registry() const {
    return *registry_;
  }
  [[nodiscard]] const rca::RootCauseAnalyzer& analyzer() const {
    return *analyzer_;
  }

  [[nodiscard]] const std::vector<Diagnosis>& diagnoses() const {
    return diagnoses_;
  }

  /// The culprit list to grade for a fault that started at `fault_start`:
  /// the first diagnosis triggered at or after it (falls back to the last
  /// diagnosis; empty if MARS never triggered).
  [[nodiscard]] rca::CulpritList culprits_for(sim::Time fault_start) const;

  /// Combined data-plane + control-plane overhead (Fig. 9).
  using Overheads = systems::OverheadReport;
  [[nodiscard]] Overheads overheads() const override;

  /// Registers the full "mars." gauge family: overhead bytes plus
  /// pipeline/controller internals (ring occupancy, reservoirs, ...).
  void register_metrics(obs::MetricsRegistry& registry) override;

 private:
  /// A notification's arrival in the global domain: trace it, then offer
  /// it to the channel.
  void on_notification(const dataplane::Notification& n);

  net::Network* network_;
  MarsConfig config_;
  obs::Context obs_;
  /// Shared immutable snapshot from the process-wide PathRegistryCache:
  /// sweeps and repeated trials over one topology build it exactly once.
  std::shared_ptr<const control::PathRegistry> registry_;
  std::unique_ptr<dataplane::MarsPipeline> pipeline_;
  std::unique_ptr<control::ControlChannel> channel_;
  std::unique_ptr<control::Controller> controller_;
  std::unique_ptr<rca::RootCauseAnalyzer> analyzer_;
  std::vector<Diagnosis> diagnoses_;
  /// Multi-epoch evidence (rca.accumulator.enabled); passive when off.
  rca::EvidenceAccumulator accumulator_;
};

}  // namespace mars
