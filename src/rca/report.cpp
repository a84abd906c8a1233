#include "rca/report.hpp"

#include <algorithm>
#include <cstdio>

namespace mars::rca {
namespace {

std::string format_time(sim::Time t) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3fs", sim::to_seconds(t));
  return buffer;
}

const char* trigger_name(dataplane::Notification::Kind kind) {
  return kind == dataplane::Notification::Kind::kHighLatency
             ? "high latency"
             : "packet loss";
}

}  // namespace

const char* remediation_hint(CauseKind cause) {
  switch (cause) {
    case CauseKind::kMicroBurst:
      return "transient application burst; consider pacing/ECN at the "
             "source or deeper buffers on the shared path";
    case CauseKind::kEcmpImbalance:
      return "rebalance or re-hash the ECMP group at the named switch; "
             "verify recent weight or membership changes";
    case CauseKind::kProcessRateDecrease:
      return "inspect the named port/switch for CPU, scheduler or meter "
             "misconfiguration throttling its service rate";
    case CauseKind::kDelay:
      return "latency added outside queueing: check interface errors, "
             "power, and recent configuration on the named element";
    case CauseKind::kDrop:
      return "verify cabling, forwarding entries and recent updates on "
             "the named element; loss is not congestion-correlated";
  }
  return "";
}

std::string render_report(const control::DiagnosisData& session,
                          const CulpritList& culprits,
                          const ReportOptions& options,
                          const fsm::MiningStats* mining) {
  std::string out;
  out += "=== MARS incident report ===\n";
  out += "trigger   : " + std::string(trigger_name(session.trigger.kind)) +
         " reported by s" + std::to_string(session.trigger.reporter) +
         " for flow " + net::to_string(session.trigger.flow) + " at " +
         format_time(session.trigger.when) + "\n";
  out += "collected : " + format_time(session.collected_at) + " (" +
         std::to_string(session.records.size()) +
         " telemetry records from edge switches, " +
         std::to_string(session.notifications.size()) + " notifications)\n";
  if (session.quality.degraded()) {
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "evidence  : DEGRADED — confidence %.2f (%zu/%zu switches "
                  "drained, %llu records quarantined)\n",
                  session.quality.confidence(),
                  session.quality.switches_drained,
                  session.quality.switches_total,
                  static_cast<unsigned long long>(
                      session.quality.records_quarantined));
    out += buf;
  }
  if (options.presence && *options.presence < 1.0) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "evidence  : INTERMITTENT — top suspect present in %.0f%% "
                  "of diagnosis windows (gray-failure signature)\n",
                  *options.presence * 100.0);
    out += buf;
  }
  if (mining != nullptr) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "mining    : %zu patterns from %zu candidates in %.2f ms "
                  "(%.1f KB peak, %zu thread%s)\n",
                  mining->patterns, mining->nodes_expanded,
                  mining->wall_seconds * 1e3,
                  static_cast<double>(mining->peak_bytes) / 1024.0,
                  mining->threads_used,
                  mining->threads_used == 1 ? "" : "s");
    out += buf;
  }
  if (culprits.empty()) {
    out += "verdict   : no culprit isolated; likely transient\n";
    return out;
  }
  out += "culprits  :\n";
  const std::size_t n = std::min(culprits.size(), options.max_culprits);
  for (std::size_t i = 0; i < n; ++i) {
    out += "  " + std::to_string(i + 1) + ". " + culprits[i].describe() +
           "\n";
    if (options.include_remediation) {
      out += "     -> " + std::string(remediation_hint(culprits[i].cause)) +
             "\n";
    }
  }
  if (culprits.size() > n) {
    out += "  (+" + std::to_string(culprits.size() - n) +
           " lower-ranked entries)\n";
  }
  return out;
}

}  // namespace mars::rca
