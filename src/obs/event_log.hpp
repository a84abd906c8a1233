#pragma once
// Structured event log: NDJSON-exportable control-plane events with
// severity, virtual + wall timestamps, and per-key token-bucket rate
// limiting.
//
// This is the "triggered, condition-scoped evidence" half of the ops
// plane (PAPERS.md, "Programmable Event Detection for INT"): components
// take the log from their obs::Context (obs/context.hpp), keep it as a
// nullable pointer, and emit discrete, queryable events on the rare
// control-plane paths — controller retries and quarantines, channel
// degradation windows, injector firings — never on the packet hot path.
//
// Determinism: admission decisions (level filter + rate limiter) depend
// only on virtual timestamps and call order, so a fixed-seed run logs a
// bit-identical event sequence. Wall-clock timestamps (`wall_ms`, offset
// from EventLog construction) ride along for profiling but are the one
// nondeterministic field — tests must not depend on them.

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/tracer.hpp"  // SpanArg / SpanArgs double as log fields
#include "sim/time.hpp"

namespace mars::obs {

class FlightRecorder;
class JsonWriter;

enum class LogLevel : std::uint8_t {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
};

[[nodiscard]] const char* level_name(LogLevel level);
/// Parse "debug" / "info" / "warn" / "error" (nullopt if unknown).
[[nodiscard]] std::optional<LogLevel> level_from_name(std::string_view name);

/// One structured event. `fields` reuses SpanArg so emit sites can share
/// argument lists with the Perfetto tracer.
struct LogEvent {
  LogLevel level = LogLevel::kInfo;
  sim::Time at = 0;     ///< virtual time
  double wall_ms = 0.0; ///< wall offset since EventLog construction
  std::string component;
  std::string event;
  SpanArgs fields;
  /// Same-key events the rate limiter dropped since the last admitted one.
  std::uint64_t suppressed = 0;
};

struct EventLogConfig {
  LogLevel min_level = LogLevel::kInfo;
  /// Token-bucket refill per (component, event) key in tokens per virtual
  /// second; <= 0 disables rate limiting.
  double rate_limit_per_s = 50.0;
  /// Bucket capacity: bursts up to this many same-key events pass.
  std::uint32_t rate_limit_burst = 16;
  /// Hard cap on retained events (guards runaway soak runs).
  std::size_t max_events = 1u << 20;
};

class EventLog {
 public:
  struct Stats {
    std::uint64_t logged = 0;           ///< admitted and retained
    std::uint64_t below_level = 0;      ///< dropped by the level filter
    std::uint64_t rate_suppressed = 0;  ///< dropped by the token bucket
    std::uint64_t overflow_dropped = 0; ///< dropped by max_events
  };

  explicit EventLog(EventLogConfig config = {});

  /// Replace the config and reset events, buckets, and stats (a fresh run).
  void configure(EventLogConfig config);

  /// Cheap pre-check so call sites can skip building fields entirely.
  [[nodiscard]] bool enabled(LogLevel level) const {
    return recorder_ != nullptr || level >= config_.min_level;
  }

  /// Record one event at virtual time `at`. An attached FlightRecorder
  /// sees every event *before* filtering (full verbosity on the black-box
  /// ring); the retained log applies min_level then the per-key bucket.
  void log(LogLevel level, sim::Time at, std::string component,
           std::string event, SpanArgs fields = {});

  /// Forward every event (pre-filter) to a flight recorder.
  void set_recorder(FlightRecorder* recorder) { recorder_ = recorder; }

  [[nodiscard]] const std::vector<LogEvent>& events() const {
    return events_;
  }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const EventLogConfig& config() const { return config_; }
  [[nodiscard]] bool empty() const { return events_.empty(); }

  /// One compact JSON object per line (NDJSON): {"ts_s", "wall_ms",
  /// "level", "component", "event", "fields"{...}[, "suppressed"]}.
  void write_ndjson(std::ostream& out) const;
  /// Write one event as a single compact JSON object (no newline).
  static void write_event(std::ostream& out, const LogEvent& event);
  /// Same object written into an in-progress document (flight-recorder
  /// dumps nest events inside their own JSON).
  static void write_event(JsonWriter& w, const LogEvent& event);

 private:
  struct Bucket {
    double tokens = 0.0;
    sim::Time last = 0;
    std::uint64_t suppressed_since = 0;
    bool primed = false;
  };

  [[nodiscard]] double wall_ms_now() const;

  EventLogConfig config_;
  std::chrono::steady_clock::time_point wall_epoch_;
  std::vector<LogEvent> events_;
  // std::map keeps bucket iteration deterministic if it's ever exported.
  std::map<std::string, Bucket> buckets_;
  Stats stats_;
  FlightRecorder* recorder_ = nullptr;
};

}  // namespace mars::obs
