#include "rca/report.hpp"

#include <gtest/gtest.h>

namespace mars::rca {
namespace {

control::DiagnosisData make_session() {
  control::DiagnosisData session;
  session.trigger.kind = dataplane::Notification::Kind::kHighLatency;
  session.trigger.reporter = 7;
  session.trigger.flow = {7, 11};
  session.trigger.when = 3 * sim::kSecond;
  session.notifications.push_back(session.trigger);
  session.collected_at = 3'500'000'000;
  session.records.resize(42);
  return session;
}

CulpritList make_culprits() {
  CulpritList list;
  Culprit port;
  port.level = CulpritLevel::kPort;
  port.location = {8};
  port.port = 3;
  port.cause = CauseKind::kProcessRateDecrease;
  port.score = 12.5;
  list.push_back(port);
  Culprit flow;
  flow.level = CulpritLevel::kFlow;
  flow.flow = {7, 11};
  flow.cause = CauseKind::kMicroBurst;
  flow.score = 4.0;
  list.push_back(flow);
  return list;
}

TEST(ReportTest, RendersTriggerEvidenceAndRankedList) {
  const auto text = render_report(make_session(), make_culprits());
  EXPECT_NE(text.find("high latency"), std::string::npos);
  EXPECT_NE(text.find("s7"), std::string::npos);
  EXPECT_NE(text.find("42 telemetry records"), std::string::npos);
  EXPECT_NE(text.find("1. port-level process-rate-decrease @ s8 port 3"),
            std::string::npos);
  EXPECT_NE(text.find("2. flow-level micro-burst @ <s7,s11>"),
            std::string::npos);
  // Remediation hints ride along by default.
  EXPECT_NE(text.find("CPU, scheduler or meter"), std::string::npos);
}

TEST(ReportTest, EmptyListReportsTransient) {
  const auto text = render_report(make_session(), {});
  EXPECT_NE(text.find("no culprit isolated"), std::string::npos);
}

TEST(ReportTest, TruncatesAndCountsRemainder) {
  CulpritList many;
  for (int i = 0; i < 9; ++i) {
    Culprit c;
    c.level = CulpritLevel::kSwitch;
    c.location = {static_cast<net::SwitchId>(i)};
    c.cause = CauseKind::kDelay;
    c.score = 9.0 - i;
    many.push_back(c);
  }
  ReportOptions options;
  options.max_culprits = 3;
  options.include_remediation = false;
  const auto text = render_report(make_session(), many, options);
  EXPECT_NE(text.find("(+6 lower-ranked entries)"), std::string::npos);
  EXPECT_EQ(text.find("4. "), std::string::npos);
}

TEST(ReportTest, EveryCauseHasARemediationHint) {
  for (const auto cause :
       {CauseKind::kMicroBurst, CauseKind::kEcmpImbalance,
        CauseKind::kProcessRateDecrease, CauseKind::kDelay,
        CauseKind::kDrop}) {
    EXPECT_GT(std::string(remediation_hint(cause)).size(), 10u);
  }
}

TEST(ReportTest, MiningStatsLineAppearsOnlyWhenPassed) {
  fsm::MiningStats mining;
  mining.patterns = 12;
  mining.nodes_expanded = 340;
  mining.peak_bytes = 2048;
  mining.wall_seconds = 0.004;
  mining.threads_used = 4;
  const auto with = render_report(make_session(), make_culprits(), {},
                                  &mining);
  EXPECT_NE(with.find("mining    : 12 patterns from 340 candidates"),
            std::string::npos);
  EXPECT_NE(with.find("2.0 KB peak, 4 threads"), std::string::npos);
  const auto without = render_report(make_session(), make_culprits());
  EXPECT_EQ(without.find("mining"), std::string::npos);
}

}  // namespace
}  // namespace mars::rca
