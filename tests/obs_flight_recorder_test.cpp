// FlightRecorder: bounded ring, metric-delta synthesis, trigger/dump
// semantics, and the JSON dump shape.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/event_log.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json_reader.hpp"
#include "obs/registry.hpp"
#include "sim/time.hpp"

namespace mars::obs {
namespace {

using sim::kMillisecond;
using sim::kSecond;

LogEvent make_event(sim::Time at, std::string name) {
  LogEvent e;
  e.at = at;
  e.component = "test";
  e.event = std::move(name);
  return e;
}

TEST(FlightRecorderTest, RingIsBoundedOldestFirst) {
  FlightRecorder recorder(FlightRecorderConfig{.capacity = 3});
  for (int i = 0; i < 7; ++i) {
    recorder.record(
        make_event(static_cast<sim::Time>(i) * kMillisecond,
                   "e" + std::to_string(i)));
  }
  EXPECT_EQ(recorder.ring_size(), 3u);

  recorder.trigger("probe", 10 * kMillisecond);
  ASSERT_EQ(recorder.dumps().size(), 1u);
  const auto& events = recorder.dumps()[0].events;
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].event, "e4");  // oldest survivor first
  EXPECT_EQ(events[2].event, "e6");
}

TEST(FlightRecorderTest, ShouldTriggerIsStrictlyBelowThreshold) {
  FlightRecorder recorder(
      FlightRecorderConfig{.confidence_threshold = 0.8});
  EXPECT_TRUE(recorder.should_trigger(0.5));
  EXPECT_FALSE(recorder.should_trigger(0.8));  // strict
  EXPECT_FALSE(recorder.should_trigger(0.99));
}

TEST(FlightRecorderTest, NoteMetricsAppendsOnlyMovedCounters) {
  FlightRecorder recorder(FlightRecorderConfig{.capacity = 16});
  MetricsRegistry registry;
  auto& moved = registry.counter("ctl.retries");
  registry.counter("ctl.idle");  // never incremented

  recorder.note_metrics(1 * kSecond, registry.snapshot());
  EXPECT_EQ(recorder.ring_size(), 0u);  // first tick only sets the baseline

  moved.inc(5);
  recorder.note_metrics(2 * kSecond, registry.snapshot());
  ASSERT_EQ(recorder.ring_size(), 1u);

  recorder.trigger("probe", 2 * kSecond);
  const auto& events = recorder.dumps()[0].events;
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].component, "metrics");
  EXPECT_EQ(events[0].event, "delta");
  ASSERT_EQ(events[0].fields.size(), 1u);  // idle counter excluded
  EXPECT_EQ(events[0].fields[0].key, "ctl.retries");
  EXPECT_DOUBLE_EQ(events[0].fields[0].number, 5.0);

  // No movement between ticks => no synthetic event at all.
  recorder.note_metrics(3 * kSecond, registry.snapshot());
  EXPECT_EQ(recorder.ring_size(), 1u);
}

TEST(FlightRecorderTest, MaxDumpsRetainsEarlyDumpsButCountsAllTriggers) {
  FlightRecorder recorder(
      FlightRecorderConfig{.capacity = 4, .max_dumps = 2});
  recorder.record(make_event(1 * kMillisecond, "seed"));
  for (int i = 0; i < 5; ++i) {
    recorder.trigger("t" + std::to_string(i),
                     static_cast<sim::Time>(i) * kSecond);
  }
  EXPECT_EQ(recorder.triggers_total(), 5u);
  ASSERT_EQ(recorder.dumps().size(), 2u);
  EXPECT_EQ(recorder.dumps()[0].reason, "t0");
  EXPECT_EQ(recorder.dumps()[1].reason, "t1");
}

TEST(FlightRecorderTest, DumpsSnapshotWithoutClearing) {
  FlightRecorder recorder(FlightRecorderConfig{.capacity = 8});
  recorder.record(make_event(1 * kMillisecond, "a"));
  recorder.trigger("first", 1 * kSecond);
  recorder.record(make_event(2 * kMillisecond, "b"));
  recorder.trigger("second", 2 * kSecond);

  ASSERT_EQ(recorder.dumps().size(), 2u);
  EXPECT_EQ(recorder.dumps()[0].events.size(), 1u);
  EXPECT_EQ(recorder.dumps()[1].events.size(), 2u);  // shared history
}

TEST(FlightRecorderTest, WriteJsonShape) {
  FlightRecorder recorder(FlightRecorderConfig{.capacity = 4});
  LogEvent e = make_event(250 * kMillisecond, "quarantine");
  e.level = LogLevel::kWarn;
  e.fields.emplace_back("switch", std::uint64_t{7});
  recorder.record(e);
  recorder.trigger("low_confidence", 1 * kSecond);

  std::ostringstream out;
  recorder.write_json(out);
  const JsonValue doc = JsonValue::parse(out.str());
  EXPECT_EQ(doc.find("triggers_total")->as_int(), 1);
  const JsonValue& dumps = *doc.find("dumps");
  ASSERT_EQ(dumps.size(), 1u);
  EXPECT_EQ(dumps.at(0).find("reason")->as_string(), "low_confidence");
  EXPECT_DOUBLE_EQ(dumps.at(0).find("ts_s")->as_number(), 1.0);
  const JsonValue& events = *dumps.at(0).find("events");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events.at(0).find("level")->as_string(), "warn");
  EXPECT_EQ(events.at(0).find("event")->as_string(), "quarantine");
  EXPECT_EQ(events.at(0).find("fields")->find("switch")->as_int(), 7);
}

TEST(FlightRecorderTest, ConfigureResetsEverything) {
  FlightRecorder recorder(FlightRecorderConfig{.capacity = 4});
  recorder.record(make_event(1 * kMillisecond, "a"));
  recorder.trigger("t", 1 * kSecond);
  recorder.configure(FlightRecorderConfig{.capacity = 2});
  EXPECT_EQ(recorder.ring_size(), 0u);
  EXPECT_TRUE(recorder.dumps().empty());
  EXPECT_EQ(recorder.triggers_total(), 0u);
}

}  // namespace
}  // namespace mars::obs
