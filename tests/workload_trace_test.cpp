#include "workload/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "net/engine.hpp"
#include "net/fat_tree.hpp"
#include "workload/traffic_gen.hpp"

namespace mars::workload {
namespace {

using namespace mars::sim::literals;

/// Test-side parser for FlowTrace::write_csv's format: one
/// "time_ns,src,dst,flow_hash,size_bytes" event per line, '#' comments and
/// blank lines skipped. Returns false (and leaves `out` empty) on any
/// malformed line.
bool read_csv(std::istream& in, FlowTrace& out) {
  out = FlowTrace{};
  FlowTrace parsed;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    TraceEvent e;
    char c1 = 0, c2 = 0, c3 = 0, c4 = 0;
    if (!(fields >> e.at >> c1 >> e.flow.source >> c2 >> e.flow.sink >> c3 >>
          e.flow_hash >> c4 >> e.size_bytes) ||
        c1 != ',' || c2 != ',' || c3 != ',' || c4 != ',') {
      return false;
    }
    parsed.add(e);
  }
  out = std::move(parsed);
  return true;
}

TEST(FlowTraceTest, SortIsStableByTime) {
  FlowTrace trace;
  trace.add({30, {1, 2}, 7, 100});
  trace.add({10, {3, 4}, 8, 200});
  trace.add({10, {5, 6}, 9, 300});
  trace.sort();
  EXPECT_EQ(trace.events()[0].flow_hash, 8u);
  EXPECT_EQ(trace.events()[1].flow_hash, 9u);  // equal times keep add order
  EXPECT_EQ(trace.events()[2].flow_hash, 7u);
}

TEST(FlowTraceTest, CsvRoundTrip) {
  FlowTrace trace;
  trace.add({1'000'000, {0, 7}, 0xDEADBEEF, 1500});
  trace.add({2'500'000, {3, 1}, 42, 64});
  std::stringstream buffer;
  trace.write_csv(buffer);

  FlowTrace parsed;
  ASSERT_TRUE(read_csv(buffer, parsed));
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed.events()[0].at, 1'000'000);
  EXPECT_EQ(parsed.events()[0].flow, (net::FlowId{0, 7}));
  EXPECT_EQ(parsed.events()[0].flow_hash, 0xDEADBEEFu);
  EXPECT_EQ(parsed.events()[1].size_bytes, 64u);
}

TEST(FlowTraceTest, MalformedCsvRejected) {
  std::stringstream bad("1000,2,3,4\n");  // missing a field
  FlowTrace trace;
  EXPECT_FALSE(read_csv(bad, trace));
  EXPECT_TRUE(trace.empty());
}

TEST(FlowTraceTest, CommentsAndBlankLinesIgnored) {
  std::stringstream in("# header\n\n100,1,2,3,400\n");
  FlowTrace trace;
  ASSERT_TRUE(read_csv(in, trace));
  EXPECT_EQ(trace.size(), 1u);
}

struct ReplayFixture {
  net::FatTree ft = net::build_fat_tree({.k = 4});
  net::Engine engine{ft.topology};
  net::Network& net = engine.network();
};

TEST(FlowTraceTest, ReplayInjectsAtRecordedTimes) {
  ReplayFixture f;
  FlowTrace trace;
  trace.add({5_ms, {f.ft.edge[0], f.ft.edge[1]}, 1, 500});
  trace.add({9_ms, {f.ft.edge[2], f.ft.edge[3]}, 2, 600});
  EXPECT_EQ(trace.replay(f.net), 0u);
  f.engine.run();
  EXPECT_EQ(f.net.stats().injected, 2u);
  EXPECT_EQ(f.net.stats().delivered, 2u);
}

TEST(FlowTraceTest, RecordThenReplayReproducesWorkload) {
  // Capture a generated workload, replay it on a fresh network, and
  // expect identical injection counts and byte totals.
  std::uint64_t recorded_count = 0;
  FlowTrace trace;
  {
    ReplayFixture f;
    TraceRecorder recorder;
    f.net.add_observer(recorder);
    TrafficGenerator gen(f.net, 17);
    BackgroundConfig cfg;
    cfg.flows = 8;
    gen.add_background(cfg, f.ft.edge, 4);
    gen.start();
    f.engine.run(1 * sim::kSecond);
    recorded_count = f.net.stats().injected;
    trace = recorder.take();
  }
  ASSERT_EQ(trace.size(), recorded_count);

  ReplayFixture replayed;
  EXPECT_EQ(trace.replay(replayed.net), 0u);
  replayed.engine.run(1 * sim::kSecond);
  EXPECT_EQ(replayed.net.stats().injected, recorded_count);
}

TEST(IncastTest, ManySourcesOneSinkSynchronized) {
  ReplayFixture f;
  IncastConfig cfg;
  cfg.sink = f.ft.edge[0];
  cfg.sources = {f.ft.edge[1], f.ft.edge[2], f.ft.edge[3], f.ft.edge[4]};
  cfg.packets_per_source = 50;
  cfg.start = 10_ms;
  const auto trace = make_incast(cfg, 3);
  EXPECT_EQ(trace.size(), 4u * 50u);
  for (const auto& e : trace.events()) {
    EXPECT_EQ(e.flow.sink, cfg.sink);
    EXPECT_GE(e.at, cfg.start);
  }
  trace.replay(f.net);
  f.engine.run();
  EXPECT_EQ(f.net.stats().injected, 200u);
}

TEST(IncastTest, SinkExcludedFromSources) {
  IncastConfig cfg;
  cfg.sink = 5;
  cfg.sources = {5, 6};
  cfg.packets_per_source = 3;
  const auto trace = make_incast(cfg, 1);
  EXPECT_EQ(trace.size(), 3u);  // only source 6 contributes
}

TEST(IncastTest, DeterministicInSeed) {
  IncastConfig cfg;
  cfg.sink = 0;
  cfg.sources = {1, 2, 3};
  const auto a = make_incast(cfg, 9);
  const auto b = make_incast(cfg, 9);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.events()[i].at, b.events()[i].at);
    EXPECT_EQ(a.events()[i].flow_hash, b.events()[i].flow_hash);
  }
}

}  // namespace
}  // namespace mars::workload
