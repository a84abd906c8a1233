#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json_writer.hpp"
#include "obs/registry.hpp"
#include "obs/sampler.hpp"
#include "obs/tracer.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace mars;
using namespace mars::sim::literals;

TEST(Sampler, TicksOnExactPeriodMultiples) {
  sim::Simulator simulator;
  obs::MetricsRegistry registry;
  registry.gauge("t", [&] { return sim::to_seconds(simulator.now()); });
  obs::SeriesStore series;
  obs::Sampler sampler(simulator, registry, series,
                       {.period = 100_ms, .until = 1_s});
  sampler.start();
  simulator.run(2_s);

  // 0, 100ms, ..., 1000ms inclusive.
  ASSERT_EQ(series.rows(), 11u);
  for (std::size_t i = 0; i < series.rows(); ++i) {
    EXPECT_EQ(series.times()[i], static_cast<sim::Time>(i) * 100_ms);
  }
  EXPECT_EQ(sampler.ticks(), 11u);
  const std::vector<double>* col = series.column("t");
  ASSERT_NE(col, nullptr);
  EXPECT_DOUBLE_EQ((*col)[3], 0.3);  // gauge read AT the tick time
}

TEST(Sampler, EpochAlignsWhenStartedOffGrid) {
  sim::Simulator simulator;
  obs::MetricsRegistry registry;
  registry.gauge("g", [] { return 1.0; });
  obs::SeriesStore series;
  obs::Sampler sampler(simulator, registry, series,
                       {.period = 100_ms, .until = 1_s});
  // Start at t = 237 ms: the first tick must land on 300 ms, not 337 ms.
  simulator.schedule_at(237_ms, [&] { sampler.start(); });
  simulator.run(2_s);

  ASSERT_EQ(series.rows(), 8u);  // 300, 400, ..., 1000 ms
  EXPECT_EQ(series.times().front(), 300_ms);
  EXPECT_EQ(series.times().back(), 1_s);
  for (const sim::Time t : series.times()) EXPECT_EQ(t % 100_ms, 0);
}

TEST(Sampler, SampleNowIsOffGridAndKeepsPeriodicPhase) {
  sim::Simulator simulator;
  obs::MetricsRegistry registry;
  registry.gauge("g", [] { return 1.0; });
  obs::SeriesStore series;
  obs::Sampler sampler(simulator, registry, series,
                       {.period = 100_ms, .until = 1_s});
  sampler.start();
  simulator.schedule_at(250_ms, [&] { sampler.sample_now(); });
  simulator.run(400_ms);

  // 0, 100, 200, 250 (extra), 300, 400: the off-grid sample must not shift
  // the following periodic ticks.
  std::vector<sim::Time> want = {0, 100_ms, 200_ms, 250_ms, 300_ms, 400_ms};
  EXPECT_EQ(series.times(), want);
}

TEST(Sampler, StopsAtUntilAndStopCancelsPending) {
  sim::Simulator simulator;
  obs::MetricsRegistry registry;
  registry.gauge("g", [] { return 1.0; });
  obs::SeriesStore series;
  obs::Sampler sampler(simulator, registry, series,
                       {.period = 1_s, .until = 3_s});
  sampler.start();
  simulator.run(10_s);
  EXPECT_EQ(series.rows(), 4u);  // 0..3 s, nothing past `until`

  sampler.stop();  // idempotent after the schedule drained
  simulator.run(11_s);
  EXPECT_EQ(series.rows(), 4u);
}

TEST(SeriesStore, LateGaugeJoinsWithNanBackfill) {
  sim::Simulator simulator;
  obs::MetricsRegistry registry;
  registry.gauge("early", [] { return 1.0; });
  obs::SeriesStore series;
  obs::Sampler sampler(simulator, registry, series,
                       {.period = 100_ms, .until = 500_ms});
  sampler.start();
  simulator.schedule_at(250_ms, [&] {
    registry.gauge("late", [] { return 2.0; });
  });
  simulator.run(1_s);

  ASSERT_EQ(series.rows(), 6u);
  const std::vector<double>* late = series.column("late");
  ASSERT_NE(late, nullptr);
  ASSERT_EQ(late->size(), 6u);
  EXPECT_TRUE(std::isnan((*late)[0]));  // rows before registration
  EXPECT_TRUE(std::isnan((*late)[2]));
  EXPECT_DOUBLE_EQ((*late)[3], 2.0);  // first row after registration (300ms)
  EXPECT_DOUBLE_EQ(series.last("late", -1.0), 2.0);
  EXPECT_DOUBLE_EQ(series.last("missing", -1.0), -1.0);
}

TEST(SeriesStore, RemovedGaugePadsWithNan) {
  sim::Simulator simulator;
  obs::MetricsRegistry registry;
  registry.gauge("keep", [] { return 1.0; });
  registry.gauge("drop", [] { return 2.0; });
  obs::SeriesStore series;
  obs::Sampler sampler(simulator, registry, series,
                       {.period = 100_ms, .until = 300_ms});
  sampler.start();
  simulator.schedule_at(150_ms, [&] { registry.remove_gauges("drop"); });
  simulator.run(1_s);

  ASSERT_EQ(series.rows(), 4u);
  const std::vector<double>* dropped = series.column("drop");
  ASSERT_NE(dropped, nullptr);
  ASSERT_EQ(dropped->size(), 4u);  // stays row-aligned with NaN padding
  EXPECT_DOUBLE_EQ((*dropped)[1], 2.0);
  EXPECT_TRUE(std::isnan((*dropped)[2]));
}

TEST(Sampler, ForwardsSamplesToTracerAsCounters) {
  sim::Simulator simulator;
  obs::MetricsRegistry registry;
  registry.gauge("g", [] { return 4.0; });
  obs::SeriesStore series;
  obs::SpanTracer tracer;
  obs::Sampler sampler(simulator, registry, series,
                       {.period = 100_ms, .until = 200_ms},
                       {.tracer = &tracer});
  sampler.start();
  simulator.run(1_s);
  EXPECT_EQ(tracer.size(), 3u);  // one 'C' event per tick
}

TEST(SeriesStore, JsonRendersNanAsNull) {
  obs::SeriesStore series;
  series.append_row(0, {{"a", 1.0}});
  series.append_row(100_ms, {{"a", 2.0}, {"b", 3.0}});
  std::ostringstream out;
  obs::JsonWriter w(out);
  series.write_json(w);
  EXPECT_NE(out.str().find("null"), std::string::npos);  // b's backfill
  EXPECT_EQ(out.str().find("nan"), std::string::npos);
}

}  // namespace
