#pragma once
// Operator-facing diagnosis report: the paper's deliverable is "an
// ordered list of culprits with causes" handed to network operators
// (§4.4.4). This module renders a diagnosis session as a readable
// incident report — the trigger, the evidence volume, the ranked list
// with per-cause remediation hints. (mars_cli --json carries the
// machine-readable form.)

#include <optional>
#include <string>

#include "control/controller.hpp"
#include "fsm/engine.hpp"
#include "rca/types.hpp"

namespace mars::rca {

struct ReportOptions {
  std::size_t max_culprits = 5;
  bool include_remediation = true;
  /// Top-suspect presence from the multi-epoch evidence accumulator
  /// (MarsSystem::presence()). Below 1 adds an INTERMITTENT line to the
  /// report; unset omits it.
  std::optional<double> presence;
};

/// Short remediation hint per cause kind (extendable alongside the
/// signature catalogue, §4.4.4 "signatures can be extended").
[[nodiscard]] const char* remediation_hint(CauseKind cause);

/// Human-readable incident report. Passing the session's MiningStats
/// (e.g. Diagnosis::mining) adds a "mining" cost line; nullptr omits it.
[[nodiscard]] std::string render_report(
    const control::DiagnosisData& session, const CulpritList& culprits,
    const ReportOptions& options = {},
    const fsm::MiningStats* mining = nullptr);

}  // namespace mars::rca
