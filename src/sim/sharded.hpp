#pragma once
// Sharded discrete-event simulation with conservative lookahead — the one
// event engine. Every run uses it, with one shard unless configured for
// more; net::Engine (net/engine.hpp) sets it up. At one shard the window
// protocol below still runs (windows of one lookahead each, no mail), so
// a run gives the same answer at every shard count.
//
// The topology is partitioned into shards; each shard owns a Simulator
// (its own event queue, its own virtual clock) and runs on its own thread:
// N shards run on a pool of N - 1 workers plus the thread that calls run(),
// which works the last shard (with no pool, every shard runs inline on the
// caller). A separate "global" Simulator hosts everything that spans
// shards — controller polls, samplers, fault injections, cross-shard
// control messages — and runs single-threaded between windows, when every
// shard is quiescent.
//
// Window protocol. A window runs on every shard in parallel; the serial
// section between windows plans the next one:
//   1. at the start of its window, on its own thread, each shard drains
//      the cross-shard mail posted to it in the previous window (the mail
//      drain hook) into its own queue, then runs its events strictly below
//      the window end W;
//   2. serial: the mail seal hook accounts the mail the window posted and
//      returns its earliest arrival T_m; control outboxes are sorted into
//      the global queue;
//   3. T_l = min(T_m, min over shards of next-event time),
//      T_g = global next-event;
//   4. if min(T_l, T_g) > until: done (mail arriving after `until` stays
//      pending, undrained);
//   5. if T_g <= T_l: move every shard clock to T_g, run the global
//      queue up to T_g and recompute (global events — threshold writes,
//      fault lambdas, channel deliveries — observe and mutate shard state
//      at an exact virtual time, before any shard event at or after it);
//   6. else the next window is W = min(T_l + lookahead, T_g, until + 1)
//      and every shard runs step 1 for it.
//
// Mail is double-buffered by window parity (mail_half()): during window n
// every shard posts into half n % 2 while each destination drains half
// (n + 1) % 2, which window n - 1 filled and nobody writes during window
// n — so the drains need no lock and run on every destination at once.
// The drain is early enough: mail posted at t arrives at t + lookahead or
// later, which is at or after the end W of the window that posted it, so
// it is in its destination queue before any event that could run it. T_m
// joins T_l because undrained mail is work no queue shows yet.
//
// The lookahead is the minimum latency of any shard-crossing edge (the
// smallest boundary-link propagation delay and the shard-to-controller
// control latency): an event at t >= T_l can only influence another shard
// at or after t + lookahead >= W, so everything below W is independent
// across shards and the parallel window is safe — the classic
// conservative PDES bound (Chandy–Misra), degenerated to a barrier
// because fat-tree shards are all mutually adjacent through the core.
//
// Determinism does NOT come from the window placement (which depends on
// shard count) but from event keys: every shard-local event is keyed
// (entity id, per-entity seq) via sim::Lane, so each queue pops an
// identical sequence no matter how entities are grouped; mail carries its
// sender's (time, key) into the destination queue, and control-outbox
// drains sort by (time, key) before scheduling. Fixed seed => the same
// execution, bit for bit, at every shard count.

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace mars::sim {

struct ShardedConfig {
  int shards = 1;
  /// Conservative window bound: no cross-shard influence travels faster
  /// than this. Must be >= 1 ns or the window loop cannot make progress,
  /// and <= every boundary-link propagation delay and the control latency
  /// or a message could arrive inside an already-running window.
  Time lookahead = 1 * kMicrosecond;
  /// Virtual-time delay of a shard -> global control message (the wire
  /// latency a data-plane notification pays to reach the controller).
  Time control_latency = 1 * kMillisecond;
};

/// Per-shard accounting, exposed as obs gauges per shard. The occupancy
/// fields are the PDES profiler: how much real work each shard found in
/// its parallel windows (an idle shard burns a barrier round for nothing,
/// so low busy-fraction on one shard means the partition is lopsided).
struct ShardStats {
  static constexpr std::size_t kHistBuckets = 16;

  std::uint64_t windows = 0;       ///< parallel windows this shard ran in
  std::uint64_t busy_windows = 0;  ///< windows with >= 1 event executed
  std::uint64_t window_events = 0;      ///< events executed inside windows
  std::uint64_t max_window_events = 0;  ///< densest single window
  /// Events-per-window histogram, log2 buckets: [0] counts empty windows,
  /// [k>0] counts windows with event count in [2^(k-1), 2^k). The last
  /// bucket absorbs the tail.
  std::array<std::uint64_t, kHistBuckets> window_event_hist{};

  /// Log2 bucket index for one window's event count.
  [[nodiscard]] static std::size_t hist_bucket(std::uint64_t events) {
    std::size_t b = 0;
    while (events > 0 && b + 1 < kHistBuckets) {
      events >>= 1;
      ++b;
    }
    return b;
  }
  /// Fraction of this shard's windows that executed at least one event.
  [[nodiscard]] double busy_fraction() const {
    return windows == 0
               ? 0.0
               : static_cast<double>(busy_windows) /
                     static_cast<double>(windows);
  }
};

/// Synchronization accounting for the whole run, with every window's end
/// attributed to exactly one cap: the lookahead bound (a stall — shards
/// wanted to run further), the next global event, or end-of-run.
struct ShardSyncStats {
  std::uint64_t windows = 0;            ///< parallel windows executed
  std::uint64_t global_rounds = 0;      ///< global-queue sub-runs
  std::uint64_t lookahead_stalls = 0;   ///< windows clipped by lookahead
  std::uint64_t windows_capped_by_global = 0;  ///< clipped by a global event
  std::uint64_t windows_to_end = 0;     ///< ran unclipped to end-of-run
  /// Sum over windows of the largest per-shard event count in that
  /// window: the events a barrier-windowed run executes one after another
  /// however many cores it has. Total window events divided by this caps
  /// the speedup of any shard count on the workload. A pure function of
  /// (workload, seed, shard count).
  std::uint64_t critical_path_events = 0;
};

class ShardedSimulator {
 public:
  /// `pool` runs the shards' windows in parallel (size it at shards - 1
  /// workers: the calling thread works the last shard); with nullptr every
  /// shard runs inline on the caller, which is all one shard needs.
  ShardedSimulator(parallel::ThreadPool* pool, ShardedConfig config);

  [[nodiscard]] int shard_count() const {
    return static_cast<int>(shards_.size());
  }
  [[nodiscard]] Simulator& shard(int i) { return shards_[i].sim; }
  /// The single-threaded domain: control plane, samplers, fault lambdas.
  /// Its events run only between windows, when every shard is quiescent,
  /// so they may touch any shard's state directly.
  [[nodiscard]] Simulator& global() { return global_; }
  [[nodiscard]] Time lookahead() const { return config_.lookahead; }
  [[nodiscard]] Time control_latency() const {
    return config_.control_latency;
  }

  /// How cross-shard mail (the network's packet mailboxes) joins the
  /// window protocol; see the header comment.
  struct MailHooks {
    /// Runs on shard `shard`'s own thread at the start of each of its
    /// windows, before any of its events: moves the mail posted to it in
    /// the previous window (half mail_half() ^ 1) into its queue.
    std::function<void(int shard)> drain;
    /// Runs single-threaded once per window, at the barrier that ends it,
    /// before next-event times are read: accounts the mail the window
    /// posted (half mail_half()) and returns its earliest arrival time, or
    /// nullopt if it posted none.
    std::function<std::optional<Time>()> seal;
  };
  void set_mail_hooks(MailHooks hooks) { mail_hooks_ = std::move(hooks); }

  /// The mailbox half that cross-shard mail posted now belongs to: window
  /// n (sync_stats().windows == n while it runs) posts into half n % 2.
  /// Mail is posted only by shard events, i.e. inside windows.
  [[nodiscard]] std::size_t mail_half() const { return sync_.windows & 1; }

  /// Post a control message from shard code (runs on the shard's thread
  /// during a window) to the global domain. `at` must be >= the current
  /// window end (guaranteed when at = now + control latency with control
  /// latency >= lookahead); `key` orders same-time messages (use the
  /// sender's lane key). Staged wait-free in the shard's outbox; drained,
  /// sorted by (at, key), and scheduled at the next barrier.
  void post_control(int shard, Time at, std::uint64_t key, EventFn fn);

  /// Run every queue to `until` (inclusive, like Simulator::run; the
  /// default runs until every queue is empty). Uses the pool's run_epochs
  /// loop; the pool must be otherwise idle.
  void run(Time until = std::numeric_limits<Time>::max());

  /// Sum of events executed across all shard queues and the global queue.
  /// Shard-count-invariant for a fixed seed (the determinism fingerprint).
  [[nodiscard]] std::uint64_t events_executed() const;

  [[nodiscard]] const ShardStats& shard_stats(int i) const {
    return shards_[i].stats;
  }
  [[nodiscard]] const ShardSyncStats& sync_stats() const { return sync_; }

 private:
  struct ControlMail {
    Time at = 0;
    std::uint64_t key = 0;
    EventFn fn;
  };

  /// One shard, padded so adjacent shards' hot state (event queues,
  /// outboxes) never share a cache line across worker threads.
  struct alignas(64) Shard {
    Simulator sim;
    std::vector<ControlMail> outbox;
    ShardStats stats;
    std::uint64_t window_ran = 0;  ///< events run in the latest window
  };

  /// One shard's part of a window, on its own thread: drain its mail, run
  /// its events below window_, count them.
  void run_window(std::size_t lane);
  /// Serial bookkeeping at the barrier that ends a window.
  void close_window();
  /// Single-threaded planning step: advance the global queue and choose
  /// the next window. Returns false when nothing remains <= until.
  bool plan_window(Time until);
  void drain_control_outboxes();

  ShardedConfig config_;
  parallel::ThreadPool* pool_;
  std::vector<Shard> shards_;
  Simulator global_;
  MailHooks mail_hooks_;
  /// Earliest arrival of mail posted but not yet drained (kept across
  /// run() calls: mail beyond one run's `until` is the next run's work).
  std::optional<Time> mail_bound_;
  std::vector<ControlMail> control_staging_;  ///< reused sort buffer
  Time window_ = 0;  ///< exclusive end of the current parallel window
  ShardSyncStats sync_;
};

}  // namespace mars::sim
