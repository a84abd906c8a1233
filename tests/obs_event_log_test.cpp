// EventLog: admission (level filter + per-key token bucket), determinism
// of the admitted sequence under fixed virtual-time inputs, and NDJSON
// that round-trips through obs::JsonReader.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "obs/event_log.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json_reader.hpp"
#include "sim/time.hpp"

namespace mars::obs {
namespace {

using sim::kMillisecond;
using sim::kSecond;

TEST(EventLogTest, LevelNamesRoundTrip) {
  for (LogLevel level : {LogLevel::kDebug, LogLevel::kInfo, LogLevel::kWarn,
                         LogLevel::kError}) {
    const auto parsed = level_from_name(level_name(level));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, level);
  }
  EXPECT_FALSE(level_from_name("verbose").has_value());
  EXPECT_FALSE(level_from_name("").has_value());
}

TEST(EventLogTest, LevelFilterDropsBelowMin) {
  EventLogConfig config;
  config.min_level = LogLevel::kWarn;
  EventLog log(config);

  log.log(LogLevel::kDebug, 1 * kMillisecond, "c", "debug_event");
  log.log(LogLevel::kInfo, 2 * kMillisecond, "c", "info_event");
  log.log(LogLevel::kWarn, 3 * kMillisecond, "c", "warn_event");
  log.log(LogLevel::kError, 4 * kMillisecond, "c", "error_event");

  ASSERT_EQ(log.events().size(), 2u);
  EXPECT_EQ(log.events()[0].event, "warn_event");
  EXPECT_EQ(log.events()[1].event, "error_event");
  EXPECT_EQ(log.stats().logged, 2u);
  EXPECT_EQ(log.stats().below_level, 2u);
  EXPECT_FALSE(log.enabled(LogLevel::kInfo));
  EXPECT_TRUE(log.enabled(LogLevel::kWarn));
}

TEST(EventLogTest, TokenBucketLimitsPerKeyAndCountsSuppressed) {
  EventLogConfig config;
  config.min_level = LogLevel::kDebug;
  config.rate_limit_per_s = 1.0;  // one token per virtual second
  config.rate_limit_burst = 2;
  EventLog log(config);

  // Three same-key events at the same instant: burst admits 2, drops 1.
  for (int i = 0; i < 3; ++i) {
    log.log(LogLevel::kInfo, 1 * kMillisecond, "ctl", "retry");
  }
  EXPECT_EQ(log.events().size(), 2u);
  EXPECT_EQ(log.stats().rate_suppressed, 1u);

  // A different key has its own bucket.
  log.log(LogLevel::kInfo, 1 * kMillisecond, "ctl", "quarantine");
  EXPECT_EQ(log.events().size(), 3u);

  // After 2 virtual seconds the bucket refilled; the admitted event
  // carries the count of same-key drops since the last admitted one.
  log.log(LogLevel::kInfo, 3 * kSecond, "ctl", "retry");
  ASSERT_EQ(log.events().size(), 4u);
  EXPECT_EQ(log.events().back().event, "retry");
  EXPECT_EQ(log.events().back().suppressed, 1u);
}

TEST(EventLogTest, AdmissionIsDeterministicAcrossRuns) {
  // Same virtual-time call sequence => bit-identical admitted sequence
  // (ignoring wall_ms, the one nondeterministic field).
  auto run = [] {
    EventLogConfig config;
    config.min_level = LogLevel::kInfo;
    config.rate_limit_per_s = 10.0;
    config.rate_limit_burst = 3;
    EventLog log(config);
    for (int i = 0; i < 50; ++i) {
      const sim::Time at = static_cast<sim::Time>(i) * 17 * kMillisecond;
      log.log(i % 4 == 0 ? LogLevel::kDebug : LogLevel::kInfo, at, "comp",
              i % 2 == 0 ? "even" : "odd", {{"i", std::int64_t{i}}});
    }
    std::vector<std::string> lines;
    for (const LogEvent& e : log.events()) {
      std::ostringstream one;
      // Zero wall_ms so the comparison covers every deterministic field.
      LogEvent copy = e;
      copy.wall_ms = 0.0;
      EventLog::write_event(one, copy);
      lines.push_back(one.str());
    }
    return std::make_pair(lines, log.stats().rate_suppressed);
  };

  const auto [lines_a, suppressed_a] = run();
  const auto [lines_b, suppressed_b] = run();
  EXPECT_FALSE(lines_a.empty());
  EXPECT_EQ(lines_a, lines_b);
  EXPECT_EQ(suppressed_a, suppressed_b);
}

TEST(EventLogTest, NdjsonRoundTripsThroughJsonReader) {
  EventLogConfig config;
  config.min_level = LogLevel::kDebug;
  EventLog log(config);
  log.log(LogLevel::kInfo, 1500 * kMillisecond, "controller",
          "session_complete",
          {{"records", std::uint64_t{42}},
           {"trigger", "notification"},
           {"confidence", 0.975}});
  log.log(LogLevel::kError, 2 * kSecond, "mars", "diagnosis_empty");

  std::ostringstream out;
  log.write_ndjson(out);

  std::istringstream in(out.str());
  std::string line;
  std::vector<JsonValue> docs;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    docs.push_back(JsonValue::parse(line));  // throws on malformed NDJSON
  }
  ASSERT_EQ(docs.size(), 2u);

  const JsonValue& first = docs[0];
  ASSERT_TRUE(first.is_object());
  EXPECT_DOUBLE_EQ(first.find("ts_s")->as_number(), 1.5);
  EXPECT_EQ(first.find("level")->as_string(), "info");
  EXPECT_EQ(first.find("component")->as_string(), "controller");
  EXPECT_EQ(first.find("event")->as_string(), "session_complete");
  const JsonValue* fields = first.find("fields");
  ASSERT_NE(fields, nullptr);
  EXPECT_EQ(fields->find("records")->as_int(), 42);
  EXPECT_EQ(fields->find("trigger")->as_string(), "notification");
  EXPECT_DOUBLE_EQ(fields->find("confidence")->as_number(), 0.975);
  EXPECT_TRUE(first.contains("wall_ms"));

  EXPECT_EQ(docs[1].find("level")->as_string(), "error");
  EXPECT_EQ(docs[1].find("event")->as_string(), "diagnosis_empty");
}

TEST(EventLogTest, MaxEventsCapsRetention) {
  EventLogConfig config;
  config.min_level = LogLevel::kDebug;
  config.rate_limit_per_s = 0.0;  // disable the bucket
  config.max_events = 4;
  EventLog log(config);
  for (int i = 0; i < 10; ++i) {
    log.log(LogLevel::kInfo, static_cast<sim::Time>(i) * kMillisecond, "c",
            "e" + std::to_string(i));
  }
  EXPECT_EQ(log.events().size(), 4u);
  EXPECT_EQ(log.stats().overflow_dropped, 6u);
}

TEST(EventLogTest, RecorderSeesEventsBeforeFiltering) {
  EventLogConfig config;
  config.min_level = LogLevel::kError;  // retained log keeps almost nothing
  EventLog log(config);
  FlightRecorder recorder(FlightRecorderConfig{.capacity = 8});
  log.set_recorder(&recorder);

  log.log(LogLevel::kDebug, 1 * kMillisecond, "c", "a");
  log.log(LogLevel::kInfo, 2 * kMillisecond, "c", "b");

  EXPECT_TRUE(log.events().empty());
  EXPECT_EQ(recorder.ring_size(), 2u);  // full verbosity on the ring
  // enabled() must stay true so call sites still build the event.
  EXPECT_TRUE(log.enabled(LogLevel::kDebug));
}

}  // namespace
}  // namespace mars::obs
