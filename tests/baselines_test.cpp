#include "baselines/intsight.hpp"
#include "baselines/spidermon.hpp"
#include "baselines/syndb.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/engine.hpp"
#include "net/fat_tree.hpp"

namespace mars::baselines {
namespace {

using namespace mars::sim::literals;

struct Fixture {
  net::FatTree ft = net::build_fat_tree({.k = 4});
  net::Engine engine{ft.topology};
  net::Network& net = engine.network();

  void traffic(net::FlowId flow, std::uint32_t hash, int count,
               sim::Time gap, sim::Time start = 0) {
    for (int i = 0; i < count; ++i) {
      engine.global().schedule_in(start + gap * i, [this, flow, hash] {
        net.inject(flow, hash, 500);
      });
    }
  }
};

TEST(SpiderMonTest, NoTriggerOnHealthyTraffic) {
  Fixture f;
  SpiderMon sm(f.ft.topology.switch_count());
  f.net.add_observer(sm);
  f.traffic({f.ft.edge[0], f.ft.edge[1]}, 5, 100, 5_ms);
  f.engine.run();
  EXPECT_FALSE(sm.triggered());
  EXPECT_TRUE(sm.diagnose().empty());
  EXPECT_GT(sm.overheads().telemetry_bytes, 0u);  // headers always ride
  EXPECT_EQ(sm.overheads().diagnosis_bytes, 0u);  // but nothing collected
}

TEST(SpiderMonTest, QueueingDelayTriggersAndLocalizesSwitch) {
  Fixture f;
  SpiderMon sm(f.ft.topology.switch_count());
  f.net.add_observer(sm);
  const net::FlowId flow{f.ft.edge[0], f.ft.edge[1]};
  net::PortId out = 0;
  ASSERT_TRUE(f.net.routing().select_port(flow.source, flow.sink, 5, out));
  f.net.node(flow.source).set_max_pps(out, 50.0);
  // Two flows sharing the throttled queue create wait-for edges.
  f.traffic(flow, 5, 100, 2_ms);
  f.traffic(flow, 1234567, 100, 2_ms);
  f.engine.run();
  ASSERT_TRUE(sm.triggered());
  const auto culprits = sm.diagnose();
  ASSERT_FALSE(culprits.empty());
  bool found = false;
  for (std::size_t i = 0; i < std::min<std::size_t>(3, culprits.size());
       ++i) {
    if (culprits[i].level == rca::CulpritLevel::kSwitch &&
        culprits[i].location == std::vector<net::SwitchId>{flow.source}) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
  EXPECT_GT(sm.overheads().diagnosis_bytes, 0u);
}

TEST(SpiderMonTest, NoTriggerOnPureDelayFault) {
  Fixture f;
  SpiderMon sm(f.ft.topology.switch_count());
  f.net.add_observer(sm);
  const net::FlowId flow{f.ft.edge[0], f.ft.edge[1]};
  net::PortId out = 0;
  ASSERT_TRUE(f.net.routing().select_port(flow.source, flow.sink, 5, out));
  f.net.node(flow.source).set_extra_delay(out, 20_ms);  // outside the queue
  f.traffic(flow, 5, 100, 5_ms);
  f.engine.run();
  EXPECT_FALSE(sm.triggered());  // the paper's "-" cell
}

// ---------------------------------------------------------------------------
// SpiderMon aggregates its wait-for graph as edges are created. The
// reference below is the direct reading of the definition: it logs one
// edge per (arriving packet, queued packet) pair, rescans the log in every
// diagnose() and overheads(), and keeps the cumulative delay per packet
// id. It lives only here, as the specification the aggregated observer
// must match exactly: same culprits, same order, same scores, same bytes.

class ReferenceSpiderMon final : public BaselineSystem {
 public:
  explicit ReferenceSpiderMon(SpiderMonConfig config) : config_(config) {}

  [[nodiscard]] std::string_view name() const override {
    return "ReferenceSpiderMon";
  }
  [[nodiscard]] bool triggered() const override { return triggered_; }
  [[nodiscard]] sim::Time trigger_time() const { return trigger_time_; }

  void on_enqueue(net::SwitchContext& ctx, net::Packet& pkt, net::PortId out,
                  std::uint32_t /*queue_depth*/) override {
    auto& queue = queues_[queue_key(ctx.id, out)];
    for (const net::FlowId& holder : queue) {
      edges_.push_back(WaitForEdge{ctx.sim.now(), pkt.flow, holder, ctx.id});
    }
    queue.push_back(pkt.flow);
  }

  void on_egress(net::SwitchContext& ctx, net::Packet& pkt, net::PortId out,
                 sim::Time hop_latency) override {
    auto& queue = queues_[queue_key(ctx.id, out)];
    if (!queue.empty()) queue.pop_front();
    overheads_.telemetry_bytes += config_.header_bytes;
    sim::Time& carried = carried_delay_[pkt.id];
    carried += hop_latency;
    if (!triggered_ && carried > config_.queue_delay_threshold) {
      triggered_ = true;
      trigger_time_ = ctx.sim.now();
    }
  }

  [[nodiscard]] rca::CulpritList diagnose() override {
    if (!triggered_) return {};
    const sim::Time from = trigger_time_ - config_.window;
    std::map<net::FlowId, std::int64_t> in_degree, out_degree;
    std::map<net::SwitchId, std::int64_t> switch_weight;
    for (const auto& e : edges_) {
      if (e.when < from) continue;
      ++in_degree[e.holder];
      ++out_degree[e.waiter];
      ++switch_weight[e.at];
    }
    rca::CulpritList out;
    for (const auto& [flow, in] : in_degree) {
      const std::int64_t score = in - out_degree[flow];
      if (score <= 0) continue;
      rca::Culprit c;
      c.level = rca::CulpritLevel::kFlow;
      c.flow = flow;
      c.cause = rca::CauseKind::kMicroBurst;
      c.score = static_cast<double>(score);
      out.push_back(std::move(c));
    }
    for (const auto& [sw, weight] : switch_weight) {
      rca::Culprit c;
      c.level = rca::CulpritLevel::kSwitch;
      c.location = {sw};
      c.cause = rca::CauseKind::kProcessRateDecrease;
      c.score = static_cast<double>(weight);
      out.push_back(std::move(c));
    }
    std::sort(out.begin(), out.end(),
              [](const rca::Culprit& a, const rca::Culprit& b) {
                return a.score > b.score;
              });
    if (out.size() > config_.max_culprits) out.resize(config_.max_culprits);
    return out;
  }

  [[nodiscard]] OverheadReport overheads() const override {
    OverheadReport report = overheads_;
    if (triggered_) {
      const sim::Time from = trigger_time_ - config_.window;
      std::set<std::tuple<net::SwitchId, net::FlowId, net::FlowId>> distinct;
      for (const auto& e : edges_) {
        if (e.when >= from) distinct.emplace(e.at, e.waiter, e.holder);
      }
      report.diagnosis_bytes += distinct.size() * config_.record_bytes;
    }
    return report;
  }

 private:
  struct WaitForEdge {
    sim::Time when;
    net::FlowId waiter;
    net::FlowId holder;
    net::SwitchId at;
  };

  static std::uint64_t queue_key(net::SwitchId sw, net::PortId port) {
    return (static_cast<std::uint64_t>(sw) << 16) | port;
  }

  SpiderMonConfig config_;
  std::unordered_map<std::uint64_t, std::deque<net::FlowId>> queues_;
  std::unordered_map<std::uint64_t, sim::Time> carried_delay_;
  std::vector<WaitForEdge> edges_;
  OverheadReport overheads_;
  bool triggered_ = false;
  sim::Time trigger_time_ = 0;
};

/// Feeds one callback sequence to the aggregated SpiderMon and to the
/// reference, holding the packets (and so SpiderMon's in-band header)
/// between hops the way the switches do.
class SpiderMonPair {
 public:
  using Queue = std::pair<net::SwitchId, net::PortId>;

  explicit SpiderMonPair(SpiderMonConfig config)
      : aggregated_(ft_.topology.switch_count(), config),
        reference_(config) {}

  void advance_to(sim::Time t) { engine_.run(t); }

  /// A new packet of `flow` joins `queue` now; returns its id.
  std::uint64_t inject(net::FlowId flow, Queue queue) {
    net::Packet& pkt = packets_.emplace_back();
    pkt.id = packets_.size() - 1;
    pkt.flow = flow;
    enqueue(pkt.id, queue);
    return pkt.id;
  }

  /// Packet `id` joins `queue` now.
  void enqueue(std::uint64_t id, Queue queue) {
    auto& fifo = queues_[queue];
    auto ctx = context(queue.first);
    const auto depth = static_cast<std::uint32_t>(fifo.size());
    aggregated_.on_enqueue(ctx, packets_[id], queue.second, depth);
    reference_.on_enqueue(ctx, packets_[id], queue.second, depth);
    fifo.emplace_back(id, engine_.now());
  }

  /// The head of `queue` departs now; returns its id.
  std::uint64_t depart(Queue queue) {
    auto& fifo = queues_.at(queue);
    const auto [id, since] = fifo.front();
    fifo.pop_front();
    auto ctx = context(queue.first);
    const sim::Time hop_latency = engine_.now() - since;
    aggregated_.on_egress(ctx, packets_[id], queue.second, hop_latency);
    reference_.on_egress(ctx, packets_[id], queue.second, hop_latency);
    return id;
  }

  [[nodiscard]] std::size_t depth(Queue queue) const {
    const auto it = queues_.find(queue);
    return it == queues_.end() ? 0 : it->second.size();
  }

  [[nodiscard]] SpiderMon& aggregated() { return aggregated_; }

  void expect_agree(const std::string& point) {
    SCOPED_TRACE(point);
    ASSERT_EQ(aggregated_.triggered(), reference_.triggered());
    EXPECT_EQ(aggregated_.trigger_time(), reference_.trigger_time());
    const rca::CulpritList got = aggregated_.diagnose();
    const rca::CulpritList want = reference_.diagnose();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      SCOPED_TRACE("culprit " + std::to_string(i));
      EXPECT_EQ(got[i].level, want[i].level);
      EXPECT_EQ(got[i].location, want[i].location);
      EXPECT_EQ(got[i].flow, want[i].flow);
      EXPECT_EQ(got[i].cause, want[i].cause);
      EXPECT_EQ(got[i].score, want[i].score);
    }
    EXPECT_EQ(aggregated_.overheads().telemetry_bytes,
              reference_.overheads().telemetry_bytes);
    EXPECT_EQ(aggregated_.overheads().diagnosis_bytes,
              reference_.overheads().diagnosis_bytes);
  }

 private:
  net::SwitchContext context(net::SwitchId sw) {
    net::Switch& node = net_.node(sw);
    return net::SwitchContext{node.lane().simulator(), node, sw,
                              node.layer()};
  }

  net::FatTree ft_ = net::build_fat_tree({.k = 4});
  net::Engine engine_{ft_.topology};
  net::Network& net_ = engine_.network();
  SpiderMon aggregated_;
  ReferenceSpiderMon reference_;
  std::deque<net::Packet> packets_;  // indexed by id; stable references
  std::map<Queue, std::deque<std::pair<std::uint64_t, sim::Time>>> queues_;
};

TEST(SpiderMonDifferentialTest, RandomCallbackSequencesMatchEdgeLog) {
  std::mt19937_64 rng(0x5D1DE7u);
  int fired = 0;
  for (int trial = 0; trial < 16; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    SpiderMonConfig config;
    config.window = static_cast<sim::Time>(1 + rng() % 8) * 1_ms;
    // 0 fires on the very first egress.
    config.queue_delay_threshold = static_cast<sim::Time>(rng() % 4) * 1_ms;
    SpiderMonPair pair(config);

    // Up to 33 flows, so more than 16 culprits can tie on a score and
    // std::sort's unstable partitioning reaches them.
    std::vector<net::FlowId> flows(2 + rng() % 32);
    for (auto& flow : flows) {
      flow = {static_cast<net::SwitchId>(rng() % 20),
              static_cast<net::SwitchId>(rng() % 20)};
    }
    std::vector<SpiderMonPair::Queue> queues(1 + rng() % 6);
    for (auto& queue : queues) {
      queue = {static_cast<net::SwitchId>(rng() % 8),
               static_cast<net::PortId>(rng() % 3)};
    }

    const int steps = 300 + static_cast<int>(rng() % 900);
    sim::Time now = 0;
    std::optional<int> mid_run;
    for (int step = 0; step < steps; ++step) {
      if (rng() % 4 != 0) now += 1 + static_cast<sim::Time>(rng() % 200'000);
      pair.advance_to(now);
      const auto& queue = queues[rng() % queues.size()];
      if (pair.depth(queue) == 0 || rng() % 2 == 0) {
        pair.inject(flows[rng() % flows.size()], queue);
      } else {
        const std::uint64_t id = pair.depart(queue);
        if (rng() % 2 == 0) {  // next hop, carrying its delay header
          pair.enqueue(id, queues[rng() % queues.size()]);
        }
      }
      if (mid_run) {
        if (step == *mid_run) pair.expect_agree("mid-run");
      } else if (pair.aggregated().triggered()) {
        pair.expect_agree("right after the trigger");
        mid_run = (step + steps) / 2;
        ++fired;
      } else if (step % 97 == 0) {
        pair.expect_agree("before the trigger");
      }
    }
    pair.expect_agree("end");
  }
  EXPECT_GE(fired, 12);  // most sequences must exercise the fold
}

TEST(SpiderMonDifferentialTest, EdgeAtExactlyWindowStartCounts) {
  SpiderMonConfig config;
  config.window = 10_ms;
  config.queue_delay_threshold = 5_ms;
  SpiderMonPair pair(config);
  const SpiderMonPair::Queue q1{2, 0}, q2{3, 1};
  pair.inject({0, 1}, q1);
  pair.advance_to(1_ms - 1);
  pair.inject({0, 2}, q1);  // one edge just before the window
  pair.advance_to(1_ms);
  pair.inject({0, 3}, q1);  // two edges at exactly trigger − window
  pair.advance_to(11_ms);
  pair.inject({0, 4}, q2);
  pair.inject({0, 5}, q2);  // an edge that prunes the log at 11 ms
  pair.expect_agree("before the trigger");
  pair.depart(q1);  // 11 ms of queueing: triggers at 11 ms
  ASSERT_TRUE(pair.aggregated().triggered());
  pair.expect_agree("right after the trigger");
  // Edges at 1 ms and 11 ms count; the one at 1 ms − 1 ns does not.
  EXPECT_EQ(pair.aggregated().overheads().diagnosis_bytes,
            3u * config.record_bytes);
}

TEST(SpiderMonDifferentialTest, TriggerOnFirstEgressAndEmptyQueueEnqueue) {
  SpiderMonConfig config;
  config.queue_delay_threshold = 0;
  SpiderMonPair pair(config);
  pair.inject({0, 1}, {3, 0});
  pair.advance_to(1);
  pair.depart({3, 0});  // the very first egress fires, with an empty log
  ASSERT_TRUE(pair.aggregated().triggered());
  pair.expect_agree("right after the trigger");
  pair.advance_to(2);
  pair.inject({0, 2}, {5, 0});  // empty queue: no edge, no s5 culprit
  pair.inject({0, 3}, {3, 1});
  pair.inject({0, 1}, {3, 1});
  pair.expect_agree("end");
  for (const auto& c : pair.aggregated().diagnose()) {
    EXPECT_NE(c.location, std::vector<net::SwitchId>{5});
  }
}

TEST(SpiderMonDifferentialTest, TiedScoresKeepEdgeLogOrder) {
  // 24 holder flows each waited on once, at six switches four times each:
  // 30 culprits, every flow tied at 1 and every switch tied at 4. Flows are
  // first seen in the reverse of FlowId order.
  SpiderMonConfig config;
  config.queue_delay_threshold = 0;
  config.max_culprits = 30;
  SpiderMonPair pair(config);
  for (net::SwitchId i = 0; i < 24; ++i) {
    const SpiderMonPair::Queue queue{i % 6, 0};
    pair.advance_to(static_cast<sim::Time>(i) * 1_us);
    pair.inject({100 - i, 0}, queue);
    pair.inject({200 - i, 0}, queue);
    pair.advance_to(static_cast<sim::Time>(i) * 1_us + 500);
    pair.depart(queue);
    pair.depart(queue);
  }
  pair.expect_agree("end");
}

TEST(IntSightTest, SloViolationProducesFlowReports) {
  Fixture f;
  IntSightConfig cfg;
  cfg.slo = 2_ms;
  IntSight is(cfg);
  f.net.add_observer(is);
  const net::FlowId flow{f.ft.edge[0], f.ft.edge[1]};
  net::PortId out = 0;
  ASSERT_TRUE(f.net.routing().select_port(flow.source, flow.sink, 5, out));
  f.net.node(flow.source).set_max_pps(out, 50.0);
  f.traffic(flow, 5, 200, 2_ms);
  f.engine.run();
  EXPECT_TRUE(is.triggered());
  EXPECT_FALSE(is.reports().empty());
  const auto culprits = is.diagnose();
  EXPECT_FALSE(culprits.empty());
  EXPECT_GT(is.overheads().telemetry_bytes, 0u);
}

TEST(IntSightTest, ContentionBitmapMarksCongestedSwitch) {
  Fixture f;
  IntSightConfig cfg;
  cfg.slo = 2_ms;
  cfg.contention_threshold = 1_ms;
  IntSight is(cfg);
  f.net.add_observer(is);
  const net::FlowId flow{f.ft.edge[0], f.ft.edge[1]};
  net::PortId out = 0;
  ASSERT_TRUE(f.net.routing().select_port(flow.source, flow.sink, 5, out));
  f.net.node(flow.source).set_max_pps(out, 50.0);
  f.traffic(flow, 5, 200, 2_ms);
  f.engine.run();
  const auto culprits = is.diagnose();
  ASSERT_FALSE(culprits.empty());
  EXPECT_EQ(culprits[0].location, std::vector<net::SwitchId>{flow.source});
}

TEST(IntSightTest, HeaderBytesAreLarge) {
  Fixture f;
  IntSight is;
  f.net.add_observer(is);
  const net::FlowId flow{f.ft.edge[0], f.ft.edge[4]};  // 5-switch path
  f.traffic(flow, 5, 10, 1_ms);
  f.engine.run();
  // 33B per packet per traversed link (4 inter-switch hops).
  EXPECT_EQ(is.overheads().telemetry_bytes, 10u * 4u * 33u);
}

TEST(SynDbTest, RecordsEverythingAndChargesBandwidth) {
  Fixture f;
  SynDb db;
  f.net.add_observer(db);
  const net::FlowId flow{f.ft.edge[0], f.ft.edge[4]};
  f.traffic(flow, 5, 50, 1_ms);
  f.engine.run();
  const auto oh = db.overheads();
  EXPECT_EQ(oh.telemetry_bytes, 0u);  // no INT headers
  // >= one ingress + one egress record per hop per packet.
  EXPECT_GE(oh.diagnosis_bytes, 50u * 5u * 40u);
}

TEST(SynDbTest, ExpertQueryLocalizesSlowSwitch) {
  Fixture f;
  SynDb db;
  f.net.add_observer(db);
  const net::FlowId flow{f.ft.edge[0], f.ft.edge[1]};
  // Healthy baseline, then throttle.
  f.traffic(flow, 5, 200, 2_ms);
  f.engine.run(500_ms);
  net::PortId out = 0;
  ASSERT_TRUE(f.net.routing().select_port(flow.source, flow.sink, 5, out));
  f.net.node(flow.source).set_max_pps(out, 50.0);
  f.traffic(flow, 5, 100, 2_ms, 10_ms);
  f.engine.run();
  const auto culprits = db.diagnose_with_hint(
      faults::FaultKind::kProcessRateDecrease, f.engine.now());
  ASSERT_FALSE(culprits.empty());
  EXPECT_EQ(culprits[0].location, std::vector<net::SwitchId>{flow.source});
}

TEST(SynDbTest, ExpertQueryLocalizesDrops) {
  Fixture f;
  SynDb db;
  f.net.add_observer(db);
  const net::FlowId flow{f.ft.edge[0], f.ft.edge[1]};
  net::PortId out = 0;
  ASSERT_TRUE(f.net.routing().select_port(flow.source, flow.sink, 5, out));
  f.net.node(flow.source).set_drop_probability(out, 0.5);
  f.traffic(flow, 5, 100, 2_ms);
  f.engine.run();
  const auto culprits =
      db.diagnose_with_hint(faults::FaultKind::kDrop, f.engine.now());
  ASSERT_FALSE(culprits.empty());
  EXPECT_EQ(culprits[0].location, std::vector<net::SwitchId>{flow.source});
  EXPECT_EQ(culprits[0].cause, rca::CauseKind::kDrop);
}

TEST(SynDbTest, UnaidedDiagnosisIsEmpty) {
  Fixture f;
  SynDb db;
  f.net.add_observer(db);
  f.traffic({f.ft.edge[0], f.ft.edge[1]}, 5, 10, 1_ms);
  f.engine.run();
  EXPECT_TRUE(db.diagnose().empty());
}

}  // namespace
}  // namespace mars::baselines
