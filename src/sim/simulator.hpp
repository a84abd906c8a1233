#pragma once
// Discrete-event simulation driver.
//
// This substrate stands in for the paper's Mininet/BMv2 environment: every
// network component schedules callbacks here, and the run loop advances
// virtual time monotonically.

#include <cassert>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace mars::sim {

class Simulator {
 public:
  /// Current virtual time. Starts at 0.
  [[nodiscard]] Time now() const { return now_; }

  /// Schedule fn at now() + delay (delay may be 0; never negative).
  /// Forwards the raw callable so it is built in place in the event arena.
  template <typename F>
  std::uint64_t schedule_in(Time delay, F&& fn) {
    assert(delay >= 0);
    return queue_.schedule(now_ + delay, std::forward<F>(fn));
  }

  /// Schedule fn at absolute time t >= now().
  template <typename F>
  std::uint64_t schedule_at(Time t, F&& fn) {
    assert(t >= now_);
    return queue_.schedule(t, std::forward<F>(fn));
  }

  /// Schedule a pre-built EventFn (see EventQueue::schedule overload).
  std::uint64_t schedule_at(Time t, EventFn&& fn) {
    assert(t >= now_);
    return queue_.schedule(t, std::move(fn));
  }

  /// Schedule with an explicit same-time tie-break key — the sharded
  /// engine's determinism primitive (see EventQueue::schedule_keyed).
  template <typename F>
  std::uint64_t schedule_at_keyed(Time t, std::uint64_t tiebreak, F&& fn) {
    assert(t >= now_);
    return queue_.schedule_keyed(t, tiebreak, std::forward<F>(fn));
  }

  std::uint64_t schedule_at_keyed(Time t, std::uint64_t tiebreak,
                                  EventFn&& fn) {
    assert(t >= now_);
    return queue_.schedule_keyed(t, tiebreak, std::move(fn));
  }

  /// Schedule fn at now() + delay where `delay` is a fixed per-kind delay
  /// (a link hop's propagation plus any fault delay): the queue appends it
  /// to that delay's FIFO lane instead of sifting it into the heap. Same
  /// order as schedule_at_keyed(now() + delay, tiebreak, fn).
  template <typename F>
  std::uint64_t schedule_fixed_keyed(Time delay, std::uint64_t tiebreak,
                                     F&& fn) {
    assert(delay >= 0);
    return queue_.schedule_fixed_keyed(now_ + delay, delay, tiebreak,
                                       std::forward<F>(fn));
  }

  bool cancel(std::uint64_t id) { return queue_.cancel(id); }

  /// Run until the event queue is empty or `until` is passed.
  /// Events at exactly `until` still execute. A bounded run leaves the
  /// clock at `until`; an unbounded one at the last event.
  void run(Time until = std::numeric_limits<Time>::max());

  /// Execute every event at or before `until`, leaving the clock at the
  /// last one (run() without its final clock advance).
  void run_events(Time until);

  /// Move the clock forward to `t` without running anything. Every pending
  /// event must be at or after `t` (the sharded driver calls this before
  /// a global round, so global events read every shard clock at their own
  /// time).
  void advance_to(Time t) {
    if (t > now_) now_ = t;
  }

  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }
  [[nodiscard]] bool pending() const { return !queue_.empty(); }
  /// Number of live scheduled events (the obs event-queue-depth gauge).
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }
  /// Schedule calls that went to the heap / to a fixed-delay lane (the
  /// sim.queue.* gauges).
  [[nodiscard]] std::uint64_t heap_pushes() const {
    return queue_.heap_pushes();
  }
  [[nodiscard]] std::uint64_t lane_pushes() const {
    return queue_.lane_pushes();
  }

  /// Time of the earliest pending event, if any. Non-const: surfacing the
  /// answer may discard cancelled tombstones at the front of the queue. The
  /// sharded driver polls this per window to bound conservative progress.
  [[nodiscard]] std::optional<Time> next_event_time() {
    if (queue_.empty()) return std::nullopt;
    return queue_.next_time();
  }

 private:
  EventQueue queue_;
  Time now_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace mars::sim
