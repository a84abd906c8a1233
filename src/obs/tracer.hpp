#pragma once
// Span tracer emitting Chrome/Perfetto trace-event JSON
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
// — the format chrome://tracing and ui.perfetto.dev both load).
//
// Two clock domains, shown as two "processes" in the trace UI:
//   - virtual time (pid 1): the simulated causal chain — fault injection ->
//     data-plane notification -> controller collection window -> diagnosis.
//     Timestamps are sim::Time nanoseconds rendered as microseconds.
//   - wall clock (pid 2): how long the control-plane/RCA code *actually*
//     takes (ring drain, FSM mining per miner, SBFL, report) — the profile
//     the paper's "diagnosis cost" discussion needs.
//
// Zero-overhead discipline: components get the tracer through their
// obs::Context (obs/context.hpp) at construction, keep it as a nullable
// pointer and guard every emission with one branch; with no tracer
// attached the only cost is that untaken branch on already-rare
// control-plane paths.

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace mars::obs {

/// String/number argument attached to a trace event.
struct SpanArg {
  std::string key;
  std::string text;   ///< used when is_number == false
  double number = 0;  ///< used when is_number == true
  bool is_number = false;

  SpanArg(std::string k, std::string v)
      : key(std::move(k)), text(std::move(v)) {}
  SpanArg(std::string k, const char* v) : key(std::move(k)), text(v) {}
  SpanArg(std::string k, double v)
      : key(std::move(k)), number(v), is_number(true) {}
  SpanArg(std::string k, std::uint64_t v)
      : key(std::move(k)), number(static_cast<double>(v)), is_number(true) {}
  SpanArg(std::string k, std::int64_t v)
      : key(std::move(k)), number(static_cast<double>(v)), is_number(true) {}
  SpanArg(std::string k, std::uint32_t v)
      : key(std::move(k)), number(v), is_number(true) {}
  SpanArg(std::string k, int v)
      : key(std::move(k)), number(v), is_number(true) {}
};

using SpanArgs = std::vector<SpanArg>;

class SpanTracer {
 public:
  SpanTracer();

  // ---- virtual-time track ----
  /// Complete span [start, end] in simulated time.
  void complete(std::string name, std::string cat, sim::Time start,
                sim::Time end, SpanArgs args = {});
  /// Zero-duration marker at a simulated instant.
  void instant(std::string name, std::string cat, sim::Time at,
               SpanArgs args = {});
  /// Counter sample (renders as an area track in Perfetto).
  void counter(std::string name, sim::Time at, double value);

  // ---- wall-clock track ----
  /// RAII scope: measures wall time from construction to destruction and
  /// records one complete event on the wall track. Move-only.
  class WallSpan {
   public:
    WallSpan(WallSpan&& other) noexcept
        : tracer_(other.tracer_), name_(std::move(other.name_)),
          cat_(std::move(other.cat_)), args_(std::move(other.args_)),
          start_(other.start_) {
      other.tracer_ = nullptr;
    }
    WallSpan& operator=(WallSpan&&) = delete;
    WallSpan(const WallSpan&) = delete;
    WallSpan& operator=(const WallSpan&) = delete;
    ~WallSpan();

    /// Attach an argument after construction (e.g. a result count).
    void arg(SpanArg a) {
      if (tracer_ != nullptr) args_.push_back(std::move(a));
    }

   private:
    friend class SpanTracer;
    WallSpan(SpanTracer* tracer, std::string name, std::string cat,
             SpanArgs args);

    SpanTracer* tracer_;  ///< null: moved-from or tracer disabled
    std::string name_;
    std::string cat_;
    SpanArgs args_;
    std::chrono::steady_clock::time_point start_;
  };

  [[nodiscard]] WallSpan wall_span(std::string name, std::string cat,
                                   SpanArgs args = {});

  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] bool empty() const { return events_.empty(); }

  /// Write the whole trace as Chrome trace-event JSON (object form with a
  /// "traceEvents" array, so metadata can ride along).
  void write_chrome_json(std::ostream& out) const;

  static constexpr int kVirtualPid = 1;
  static constexpr int kWallPid = 2;

 private:
  struct Event {
    char ph;  ///< 'X' complete, 'i' instant, 'C' counter
    int pid;
    std::string name;
    std::string cat;
    double ts_us;
    double dur_us;  ///< only for 'X'
    double counter_value = 0.0;
    SpanArgs args;
  };

  void record_wall(std::string name, std::string cat,
                   std::chrono::steady_clock::time_point start,
                   SpanArgs args);

  std::chrono::steady_clock::time_point wall_epoch_;
  std::vector<Event> events_;
};

}  // namespace mars::obs
