// ShardedSimulator unit tests: the conservative-lookahead window protocol
// (sim/sharded.hpp) in isolation, before the network stacks on top.
//
// The suite pins the synchronization contract: shard events below a window
// all run, global events run single-threaded between windows and BEFORE
// same-time shard events, control mail posted from shard threads is
// delivered sorted by (time, key), cross-shard mail is drained on its
// destination's thread before that shard's next window, and a keyed
// entity executes at the same virtual times no matter which shard it
// lands on.

#include "sim/sharded.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "sim/lane.hpp"
#include "sim/time.hpp"

namespace mars::sim {
namespace {

TEST(ShardedSimTest, RunsAllShardEventsAndAdvancesEveryClock) {
  parallel::ThreadPool pool(2);
  ShardedSimulator ssim(&pool, {.shards = 2});
  std::atomic<int> ran{0};
  for (int s = 0; s < 2; ++s) {
    for (int i = 1; i <= 5; ++i) {
      ssim.shard(s).schedule_at(i * kMicrosecond,
                                [&ran] { ran.fetch_add(1); });
    }
  }
  ssim.run(1 * kMillisecond);
  EXPECT_EQ(ran.load(), 10);
  EXPECT_EQ(ssim.events_executed(), 10u);
  EXPECT_EQ(ssim.shard(0).now(), 1 * kMillisecond);
  EXPECT_EQ(ssim.shard(1).now(), 1 * kMillisecond);
  EXPECT_EQ(ssim.global().now(), 1 * kMillisecond);
}

TEST(ShardedSimTest, UnboundedRunLeavesEveryClockAtTheLastEvent) {
  // run() with no bound drains every queue; like Simulator::run() it
  // leaves the clocks at the last event executed, not past it, even
  // though the shards ran in windows of one lookahead.
  parallel::ThreadPool pool(1);
  ShardedSimulator ssim(&pool, {.shards = 2, .lookahead = 1 * kMicrosecond});
  ssim.shard(0).schedule_at(3 * kMicrosecond + 5, [] {});
  ssim.shard(1).schedule_at(7 * kMicrosecond + 3, [] {});
  ssim.global().schedule_at(2 * kMicrosecond, [] {});
  ssim.run();
  EXPECT_EQ(ssim.events_executed(), 3u);
  const Time last = 7 * kMicrosecond + 3;
  EXPECT_EQ(ssim.shard(0).now(), last);
  EXPECT_EQ(ssim.shard(1).now(), last);
  EXPECT_EQ(ssim.global().now(), last);
}

TEST(ShardedSimTest, GlobalEventsSeeEveryShardClockAtTheirOwnTime) {
  // Between windows a shard clock rests at its last event; a global round
  // first moves every shard clock to its own time, so what a global event
  // schedules on a shard (a packet it injects) starts there.
  ShardedSimulator ssim(nullptr, {.shards = 1, .lookahead = 1 * kMicrosecond});
  Time seen = -1;
  Time ran_at = -1;
  ssim.shard(0).schedule_at(10, [] {});
  ssim.global().schedule_at(5 * kMicrosecond, [&] {
    seen = ssim.shard(0).now();
    ssim.shard(0).schedule_in(1, [&] { ran_at = ssim.shard(0).now(); });
  });
  ssim.run(1 * kMillisecond);
  EXPECT_EQ(seen, 5 * kMicrosecond);
  EXPECT_EQ(ran_at, 5 * kMicrosecond + 1);
}

TEST(ShardedSimTest, GlobalEventRunsBeforeSameTimeShardEvents) {
  // The tie rule that makes threshold updates / fault injections exact:
  // a global event at t is observed by every shard event at or after t.
  parallel::ThreadPool pool(2);
  ShardedSimulator ssim(&pool, {.shards = 2});
  int knob = 0;
  std::vector<int> seen(2, -1);
  const Time t = 50 * kMicrosecond;
  ssim.global().schedule_at(t, [&knob] { knob = 7; });
  ssim.shard(0).schedule_at(t, [&] { seen[0] = knob; });
  ssim.shard(1).schedule_at(t, [&] { seen[1] = knob; });
  ssim.run(1 * kMillisecond);
  EXPECT_EQ(seen[0], 7);
  EXPECT_EQ(seen[1], 7);
  EXPECT_GE(ssim.sync_stats().global_rounds, 1u);
}

TEST(ShardedSimTest, ShardEventBeforeLaterGlobalEvent) {
  parallel::ThreadPool pool(1);
  ShardedSimulator ssim(&pool, {.shards = 1});
  std::vector<int> order;
  ssim.shard(0).schedule_at(10 * kMicrosecond,
                            [&order] { order.push_back(0); });
  ssim.global().schedule_at(20 * kMicrosecond,
                            [&order] { order.push_back(1); });
  ssim.run(1 * kMillisecond);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(ShardedSimTest, ControlMailDeliveredSortedByTimeThenKey) {
  parallel::ThreadPool pool(2);
  ShardedConfig config{.shards = 2};
  ShardedSimulator ssim(&pool, config);
  std::vector<int> order;  // global domain: single-threaded, no lock
  // Each shard posts two control messages from inside a window, staged in
  // per-shard outboxes in arbitrary relative order. Delivery must sort by
  // (at, key) regardless of which outbox a message sat in.
  const Time latency = config.control_latency;
  ssim.shard(0).schedule_at(1 * kMicrosecond, [&ssim, &order, latency] {
    const Time at = ssim.shard(0).now() + latency;
    ssim.post_control(0, at, /*key=*/40,
                      EventFn([&order] { order.push_back(40); }));
    ssim.post_control(0, at, /*key=*/10,
                      EventFn([&order] { order.push_back(10); }));
  });
  ssim.shard(1).schedule_at(1 * kMicrosecond, [&ssim, &order, latency] {
    const Time at = ssim.shard(1).now() + latency;
    ssim.post_control(1, at, /*key=*/30,
                      EventFn([&order] { order.push_back(30); }));
    ssim.post_control(1, at + 1, /*key=*/0,
                      EventFn([&order] { order.push_back(99); }));
  });
  ssim.run(10 * kMillisecond);
  EXPECT_EQ(order, (std::vector<int>{10, 30, 40, 99}));
}

/// A stand-in for the network's packet mailboxes, wired through the same
/// hook pair: mail for one destination shard, double-buffered by window
/// parity. Senders post into half mail_half(); the destination drains the
/// other half at the start of its window.
class TestMailbox {
 public:
  TestMailbox(ShardedSimulator& ssim, int dst) : ssim_(&ssim), dst_(dst) {
    ssim.set_mail_hooks({.drain = [this](int shard) { drain(shard); },
                         .seal = [this] { return seal(); }});
  }

  void post(Time at, std::uint64_t key, EventFn fn) {
    half_[ssim_->mail_half()].push_back(Mail{at, key, std::move(fn)});
  }
  [[nodiscard]] std::size_t undrained() const {
    return half_[ssim_->mail_half()].size();
  }
  /// Threads each shard's drain ran on (each shard writes only its own).
  std::array<std::set<std::thread::id>, 2> drain_threads;

 private:
  struct Mail {
    Time at = 0;
    std::uint64_t key = 0;
    EventFn fn;
  };

  void drain(int shard) {
    drain_threads[static_cast<std::size_t>(shard)].insert(
        std::this_thread::get_id());
    if (shard != dst_) return;
    auto& box = half_[ssim_->mail_half() ^ 1];
    for (Mail& mail : box) {
      ssim_->shard(dst_).schedule_at_keyed(mail.at, mail.key,
                                           std::move(mail.fn));
    }
    box.clear();
  }
  std::optional<Time> seal() {
    const auto& box = half_[ssim_->mail_half()];
    if (box.empty()) return std::nullopt;
    Time earliest = box.front().at;
    for (const Mail& mail : box) earliest = std::min(earliest, mail.at);
    return earliest;
  }

  ShardedSimulator* ssim_;
  int dst_;
  std::array<std::vector<Mail>, 2> half_;
};

TEST(ShardedSimTest, DrainHookRunsBeforeEventTimesAreRead) {
  // Mail that is the only pending work must still run: the seal hook's
  // earliest arrival joins the next-event times that choose the next
  // window (and decide whether the run is over).
  parallel::ThreadPool pool(1);
  ShardedSimulator ssim(&pool, {.shards = 2});
  TestMailbox mailbox(ssim, 1);
  bool delivered = false;
  ssim.shard(0).schedule_at(100 * kMicrosecond, [&] {
    mailbox.post(300 * kMicrosecond, 1, [&delivered] { delivered = true; });
  });
  ssim.run(1 * kMillisecond);
  EXPECT_TRUE(delivered);
  EXPECT_EQ(mailbox.undrained(), 0u);
}

TEST(ShardedSimTest, MailIsDrainedOnTheDestinationThreadBeforeItsWindow) {
  // Shard 0 posts mail to shard 1 arriving exactly at its window's end,
  // where shard 1 has an event of its own at the same time but a larger
  // key. The mail must be in shard 1's queue before shard 1 runs any event
  // of the next window (so it pops first), and the drain must run on the
  // thread that runs shard 1's events.
  constexpr Time kLookahead = 5 * kMicrosecond;
  parallel::ThreadPool pool(1);
  ShardedSimulator ssim(&pool, {.shards = 2, .lookahead = kLookahead});
  TestMailbox mailbox(ssim, 1);
  std::array<std::set<std::thread::id>, 2> event_threads;
  std::vector<std::pair<Time, int>> shard1_order;  // (time, 1 mail/2 own)
  std::vector<Time> sends;
  for (int i = 0; i < 4; ++i) {
    const Time t = (10 + 20 * i) * kMicrosecond;
    sends.push_back(t);
    ssim.shard(0).schedule_at(t, [&, t] {
      event_threads[0].insert(std::this_thread::get_id());
      mailbox.post(t + kLookahead, 1, [&ssim, &event_threads, &shard1_order] {
        event_threads[1].insert(std::this_thread::get_id());
        shard1_order.emplace_back(ssim.shard(1).now(), 1);
      });
    });
    ssim.shard(1).schedule_at_keyed(
        t + kLookahead, 2, [&ssim, &event_threads, &shard1_order] {
          event_threads[1].insert(std::this_thread::get_id());
          shard1_order.emplace_back(ssim.shard(1).now(), 2);
        });
  }
  ssim.run(1 * kMillisecond);

  std::vector<std::pair<Time, int>> expected;
  for (const Time t : sends) {
    expected.emplace_back(t + kLookahead, 1);
    expected.emplace_back(t + kLookahead, 2);
  }
  EXPECT_EQ(shard1_order, expected);
  for (int s = 0; s < 2; ++s) {
    ASSERT_EQ(event_threads[s].size(), 1u);
    EXPECT_EQ(mailbox.drain_threads[s], event_threads[s]) << "shard " << s;
  }
  // Two shards on two threads: the calling thread works the last shard.
  EXPECT_NE(*event_threads[0].begin(), *event_threads[1].begin());
  EXPECT_EQ(*event_threads[1].begin(), std::this_thread::get_id());
}

TEST(ShardedSimTest, MailArrivingAfterUntilStaysPendingAndNeverRuns) {
  parallel::ThreadPool pool(1);
  ShardedSimulator ssim(&pool, {.shards = 2});
  TestMailbox mailbox(ssim, 1);
  const Time until = 100 * kMicrosecond;
  int delivered = 0;
  ssim.shard(0).schedule_at(10 * kMicrosecond, [&] {
    mailbox.post(until + 1, 1, [&delivered] { ++delivered; });
  });
  ssim.run(until);
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(mailbox.undrained(), 1u);
  EXPECT_EQ(ssim.shard(0).now(), until);
  EXPECT_EQ(ssim.shard(1).now(), until);
  EXPECT_EQ(ssim.events_executed(), 1u);

  // Still pending, not lost: the next run picks it up exactly once.
  ssim.run(2 * until);
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(mailbox.undrained(), 0u);
}

TEST(ShardedSimTest, CriticalPathEventsSumsTheWidestShardPerWindow) {
  // Lookahead 1 us. Window 1 runs [10 us, 11 us): shard 0 has 2 events,
  // shard 1 has 1. Window 2 runs [20 us, 21 us): shard 0 has 1, shard 1
  // has 3. Critical path = max(2, 1) + max(1, 3) = 5 of 7 window events.
  parallel::ThreadPool pool(1);
  ShardedSimulator ssim(&pool, {.shards = 2, .lookahead = 1 * kMicrosecond});
  for (const Time t : {10'000, 10'500}) ssim.shard(0).schedule_at(t, [] {});
  ssim.shard(1).schedule_at(10'200, [] {});
  ssim.shard(0).schedule_at(20'500, [] {});
  for (const Time t : {20'000, 20'100, 20'200}) {
    ssim.shard(1).schedule_at(t, [] {});
  }
  ssim.run(1 * kMillisecond);
  EXPECT_EQ(ssim.sync_stats().windows, 2u);
  EXPECT_EQ(ssim.shard_stats(0).window_events +
                ssim.shard_stats(1).window_events,
            7u);
  EXPECT_EQ(ssim.sync_stats().critical_path_events, 5u);
}

TEST(ShardedSimTest, LookaheadStallsAreCounted) {
  // Two shards with work spread far apart in time: windows are repeatedly
  // clipped to T_l + lookahead, each clip counted as a stall.
  parallel::ThreadPool pool(2);
  ShardedSimulator ssim(&pool, {.shards = 2, .lookahead = 1 * kMicrosecond});
  std::atomic<int> ran{0};
  for (int i = 1; i <= 8; ++i) {
    ssim.shard(i % 2).schedule_at(i * 100 * kMicrosecond,
                                  [&ran] { ran.fetch_add(1); });
  }
  ssim.run(1 * kMillisecond);
  EXPECT_EQ(ran.load(), 8);
  EXPECT_GE(ssim.sync_stats().lookahead_stalls, 1u);
  EXPECT_GE(ssim.sync_stats().windows, 1u);
}

TEST(ShardedSimTest, KeyedEntityExecutesIdenticallyAtEveryShardCount) {
  // A keyed entity's event times are a pure function of the entity — not
  // of how many shards exist or which one it runs on. Four entities each
  // run a self-rescheduling chain; the per-entity time trace must be
  // byte-identical at 1, 2, and 4 shards.
  constexpr int kEntities = 4;
  constexpr int kHops = 16;
  auto trace_at = [&](int shard_count) {
    parallel::ThreadPool pool(static_cast<std::size_t>(shard_count));
    ShardedSimulator ssim(&pool, {.shards = shard_count});
    std::vector<std::vector<Time>> trace(kEntities);
    std::vector<Lane> lanes(kEntities);
    struct Chain {
      std::vector<Time>* out;
      Lane* lane;
      int left;
      void operator()() {
        out->push_back(lane->now());
        if (--left > 0) {
          lane->schedule_in((out->size() % 3 + 1) * kMicrosecond, *this);
        }
      }
    };
    for (int e = 0; e < kEntities; ++e) {
      lanes[e] = Lane::keyed(ssim.shard(e % shard_count),
                             static_cast<std::uint64_t>(e));
      lanes[e].schedule_at((e + 1) * kMicrosecond,
                           Chain{&trace[e], &lanes[e], kHops});
    }
    ssim.run(1 * kMillisecond);
    return trace;
  };
  const auto base = trace_at(1);
  for (const auto& entity : base) EXPECT_EQ(entity.size(), kHops);
  EXPECT_EQ(trace_at(2), base);
  EXPECT_EQ(trace_at(4), base);
}

TEST(ShardedSimTest, EventsExecutedSumsShardsAndGlobal) {
  parallel::ThreadPool pool(2);
  ShardedSimulator ssim(&pool, {.shards = 2});
  ssim.shard(0).schedule_at(1 * kMicrosecond, [] {});
  ssim.shard(1).schedule_at(2 * kMicrosecond, [] {});
  ssim.global().schedule_at(3 * kMicrosecond, [] {});
  ssim.run(1 * kMillisecond);
  EXPECT_EQ(ssim.events_executed(), 3u);
}

TEST(ShardedSimTest, WindowEndAttributionSumsToWindows) {
  // The profiler attributes every parallel window's end to exactly one
  // cap: lookahead stall, a pending global event, or end-of-run.
  parallel::ThreadPool pool(2);
  ShardedSimulator ssim(&pool, {.shards = 2, .lookahead = 1 * kMicrosecond});
  for (int i = 1; i <= 8; ++i) {
    ssim.shard(i % 2).schedule_at(i * 100 * kMicrosecond, [] {});
  }
  ssim.global().schedule_at(450 * kMicrosecond, [] {});
  ssim.run(1 * kMillisecond);

  const ShardSyncStats& sync = ssim.sync_stats();
  EXPECT_GE(sync.lookahead_stalls, 1u);
  EXPECT_EQ(sync.lookahead_stalls + sync.windows_capped_by_global +
                sync.windows_to_end,
            sync.windows);
}

TEST(ShardedSimTest, ShardOccupancyStatsAccountForEveryWindowEvent) {
  parallel::ThreadPool pool(2);
  ShardedSimulator ssim(&pool, {.shards = 2, .lookahead = 1 * kMicrosecond});
  // Shard 0 gets a dense burst plus stragglers; shard 1 stays empty — its
  // windows must all count as idle (busy_fraction 0).
  for (int i = 0; i < 12; ++i) {
    ssim.shard(0).schedule_at((10 + i % 3) * kMicrosecond, [] {});
  }
  ssim.shard(0).schedule_at(500 * kMicrosecond, [] {});
  ssim.run(1 * kMillisecond);

  const ShardStats& busy = ssim.shard_stats(0);
  const ShardStats& idle = ssim.shard_stats(1);
  EXPECT_EQ(busy.windows, ssim.sync_stats().windows);
  EXPECT_EQ(idle.windows, ssim.sync_stats().windows);
  EXPECT_EQ(busy.window_events, 13u);  // every shard event ran in a window
  EXPECT_GE(busy.max_window_events, 1u);
  EXPECT_LE(busy.busy_windows, busy.windows);
  EXPECT_GT(busy.busy_fraction(), 0.0);
  EXPECT_EQ(idle.window_events, 0u);
  EXPECT_EQ(idle.busy_windows, 0u);
  EXPECT_EQ(idle.busy_fraction(), 0.0);

  // The events-per-window histogram covers every window: bucket 0 holds
  // the empty windows, the rest hold the busy ones.
  std::uint64_t hist_total = 0;
  for (const std::uint64_t n : busy.window_event_hist) hist_total += n;
  EXPECT_EQ(hist_total, busy.windows);
  EXPECT_EQ(busy.window_event_hist[0], busy.windows - busy.busy_windows);
}

TEST(ShardedSimTest, HistBucketIsLog2WithSaturation) {
  EXPECT_EQ(ShardStats::hist_bucket(0), 0u);
  EXPECT_EQ(ShardStats::hist_bucket(1), 1u);
  EXPECT_EQ(ShardStats::hist_bucket(2), 2u);
  EXPECT_EQ(ShardStats::hist_bucket(3), 2u);
  EXPECT_EQ(ShardStats::hist_bucket(4), 3u);
  EXPECT_EQ(ShardStats::hist_bucket(7), 3u);
  EXPECT_EQ(ShardStats::hist_bucket(8), 4u);
  // The last bucket absorbs the tail.
  EXPECT_EQ(ShardStats::hist_bucket(~std::uint64_t{0}),
            ShardStats::kHistBuckets - 1);
}

}  // namespace
}  // namespace mars::sim
