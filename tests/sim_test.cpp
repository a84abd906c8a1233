#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <tuple>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/lane.hpp"
#include "sim/time.hpp"

namespace mars::sim {
namespace {

using namespace mars::sim::literals;

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesBreakInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().second();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  const auto id = q.schedule(10, [&] { ran = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));  // double-cancel reports false
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueueTest, NextTimeSkipsCancelled) {
  EventQueue q;
  const auto id = q.schedule(1, [] {});
  q.schedule(9, [] {});
  q.cancel(id);
  EXPECT_EQ(q.next_time(), 9);
}

TEST(EventQueueTest, CancelAfterPopReturnsFalse) {
  EventQueue q;
  int runs = 0;
  const auto id = q.schedule(10, [&] { ++runs; });
  q.pop().second();
  EXPECT_EQ(runs, 1);
  EXPECT_FALSE(q.cancel(id));  // already executed
  EXPECT_EQ(runs, 1);
}

TEST(EventQueueTest, DoubleCancelReturnsFalse) {
  EventQueue q;
  const auto id = q.schedule(10, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, StaleIdDoesNotCancelSlotReuse) {
  // After an event runs, its arena slot is recycled under a bumped
  // generation; the old id must not cancel the new occupant.
  EventQueue q;
  const auto old_id = q.schedule(10, [] {});
  q.pop().second();  // slot retired, generation bumped

  int runs = 0;
  const auto new_id = q.schedule(20, [&] { ++runs; });
  // Same slot, different generation => different id.
  EXPECT_NE(old_id, new_id);
  EXPECT_FALSE(q.cancel(old_id));
  EXPECT_EQ(q.size(), 1u);
  q.pop().second();
  EXPECT_EQ(runs, 1);
  EXPECT_FALSE(q.cancel(new_id));  // it already ran
}

TEST(EventQueueTest, IdsStayUniqueAcrossManyGenerations) {
  EventQueue q;
  std::uint64_t prev = 0;
  for (int round = 0; round < 100; ++round) {
    const auto id = q.schedule(round, [] {});
    if (round > 0) EXPECT_NE(id, prev);
    prev = id;
    if (round % 2 == 0) {
      q.pop().second();
    } else {
      EXPECT_TRUE(q.cancel(id));
    }
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, TieBreakSurvivesInterleavedCancels) {
  // Cancelled tombstones between equal-time events must not perturb the
  // insertion-order tie-break of the survivors.
  EventQueue q;
  std::vector<int> order;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 16; ++i) {
    ids.push_back(q.schedule(5, [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 16; i += 2) q.cancel(ids[static_cast<std::size_t>(i)]);
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 5, 7, 9, 11, 13, 15}));
}

TEST(EventQueueTest, SizeCountsOnlyLiveEvents) {
  EventQueue q;
  const auto a = q.schedule(1, [] {});
  q.schedule(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);  // tombstone still in heap, but not live
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.next_time(), 2);
  q.pop().second();
  EXPECT_TRUE(q.empty());
}

// ---- fixed-delay lanes ----

TEST(EventQueueLaneTest, FixedDelaysBeyondTheCapUseTheHeap) {
  EventQueue q;
  std::vector<Time> order;
  const Time delays = static_cast<Time>(EventQueue::kMaxLanes) + 2;
  for (Time d = delays; d >= 1; --d) {
    q.schedule_fixed_keyed(d, d, static_cast<std::uint64_t>(d),
                           [&order, d] { order.push_back(d); });
  }
  EXPECT_EQ(q.lane_pushes(), EventQueue::kMaxLanes);
  EXPECT_EQ(q.heap_pushes(), 2u);
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<Time>{1, 2, 3, 4, 5, 6}));
}

TEST(EventQueueLaneTest, EqualTimeKeyInversionFallsBackToTheHeap) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_fixed_keyed(100, 10, 20, [&] { order.push_back(20); });
  q.schedule_fixed_keyed(100, 10, 10, [&] { order.push_back(10); });
  q.schedule_fixed_keyed(100, 10, 30, [&] { order.push_back(30); });
  EXPECT_EQ(q.lane_pushes(), 2u);  // keys 20, 30
  EXPECT_EQ(q.heap_pushes(), 1u);  // key 10 would unsort the lane
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{10, 20, 30}));
}

TEST(EventQueueLaneTest, LaneAndHeapMergeByFullKeyAtEqualTimes) {
  // Same time on both sides: the key decides, whichever side holds the
  // entry.
  EventQueue q;
  std::vector<int> order;
  q.schedule_keyed(50, 0, [&] { order.push_back(0); });           // heap
  q.schedule_fixed_keyed(50, 5, 1, [&] { order.push_back(1); });  // lane
  q.schedule_keyed(50, 2, [&] { order.push_back(2); });           // heap
  q.schedule_fixed_keyed(50, 5, 3, [&] { order.push_back(3); });  // lane
  Time t = 0;
  EventFn fn;
  while (q.pop_if_at_most(50, t, fn)) fn();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueueLaneTest, CancelledLaneEntriesAreSkipped) {
  EventQueue q;
  std::vector<int> order;
  const auto a =
      q.schedule_fixed_keyed(10, 10, 0, [&] { order.push_back(0); });
  const auto b =
      q.schedule_fixed_keyed(20, 10, 1, [&] { order.push_back(1); });
  q.schedule_fixed_keyed(30, 10, 2, [&] { order.push_back(2); });
  ASSERT_EQ(q.lane_pushes(), 3u);
  EXPECT_TRUE(q.cancel(b));  // middle of the lane
  EXPECT_TRUE(q.cancel(a));  // lane head
  EXPECT_FALSE(q.cancel(a));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), 30);
  q.pop().second();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(order, (std::vector<int>{2}));
}

TEST(EventQueueLaneTest, RandomizedScheduleCancelPopMatchesReferenceOrder) {
  // A reference model keeps every live event's (time, key) and pops the
  // least by a full sort. Plain (heap-only) events take the queue's
  // insertion sequence (below 2^40), keyed ones (entity << 40 |
  // per-entity seq) as sim::Lane does, so the two never collide. Seven
  // fixed delays exceed the lane cap, a 10 ns time grid makes equal times
  // common across lanes and heap, and descending-entity bursts force
  // equal-time key inversions.
  constexpr std::uint64_t kEntities = 4;
  const std::vector<Time> delays{0, 10, 20, 30, 40, 50, 60};
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    auto below = [&rng](std::uint64_t n) { return rng() % n; };

    struct Ref {
      Time t;
      std::uint64_t key;
      int tag;
      std::uint64_t id;
    };
    EventQueue q;
    std::vector<Ref> live;
    std::vector<std::uint64_t> dead_ids;
    std::vector<int> fired;
    Time now = 0;
    std::uint64_t plain_seq = 0;
    std::vector<std::uint64_t> entity_seq(kEntities + 1, 0);
    int next_tag = 0;

    auto add = [&](Time t, std::uint64_t key, std::uint64_t id) {
      live.push_back(Ref{t, key, next_tag++, id});
    };
    auto fn_for = [&fired](int tag) {
      return [&fired, tag] { fired.push_back(tag); };
    };
    auto plain = [&](Time t) {
      const std::uint64_t key = plain_seq++;
      add(t, key, q.schedule(t, fn_for(next_tag)));
    };
    auto keyed = [&](Time t, const Time* delay, std::uint64_t entity) {
      const std::uint64_t key = (entity << 40) | entity_seq[entity]++;
      const auto fn = fn_for(next_tag);
      add(t, key,
          delay != nullptr ? q.schedule_fixed_keyed(t, *delay, key, fn)
                           : q.schedule_keyed(t, key, fn));
    };
    auto earliest = [&] {
      return std::min_element(live.begin(), live.end(),
                              [](const Ref& a, const Ref& b) {
                                return std::tie(a.t, a.key) <
                                       std::tie(b.t, b.key);
                              });
    };
    // Pop through one of the three entry points and check it against the
    // reference.
    auto pop_one = [&] {
      const auto it = earliest();
      const std::uint64_t mode = below(3);
      if (mode == 0) {
        const Time until = now + static_cast<Time>(below(8)) * 10;
        Time t = -1;
        EventFn fn;
        const bool popped = q.pop_if_at_most(until, t, fn);
        ASSERT_EQ(popped, it != live.end() && it->t <= until);
        if (!popped) return;
        ASSERT_EQ(t, it->t);
        fn();
      } else {
        if (it == live.end()) return;
        if (mode == 1) ASSERT_EQ(q.next_time(), it->t);
        auto [t, fn] = q.pop();
        ASSERT_EQ(t, it->t);
        fn();
      }
      ASSERT_EQ(fired.back(), it->tag);
      now = it->t;
      dead_ids.push_back(it->id);
      live.erase(it);
    };

    for (int op = 0; op < 3000; ++op) {
      const Time delay = delays[below(delays.size())];
      const std::uint64_t roll = below(100);
      if (roll < 10) {
        plain(now + static_cast<Time>(below(10)) * 10);
      } else if (roll < 50) {
        keyed(now + delay, &delay, 1 + below(kEntities));
      } else if (roll < 55) {
        keyed(now + static_cast<Time>(below(10)) * 10, nullptr,
              1 + below(kEntities));
      } else if (roll < 60) {
        for (std::uint64_t e = kEntities; e >= 1; --e) {
          keyed(now + delay, &delay, e);
        }
      } else if (roll < 70) {
        if (!live.empty()) {
          const auto victim = live.begin() +
                              static_cast<std::ptrdiff_t>(below(live.size()));
          ASSERT_TRUE(q.cancel(victim->id));
          dead_ids.push_back(victim->id);
          live.erase(victim);
        } else if (!dead_ids.empty()) {
          ASSERT_FALSE(q.cancel(dead_ids[below(dead_ids.size())]));
        }
      } else {
        pop_one();
        if (::testing::Test::HasFatalFailure()) return;
      }
      ASSERT_EQ(q.size(), live.size());
    }
    while (!live.empty()) {
      pop_one();
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_TRUE(q.empty());
    EXPECT_GT(q.lane_pushes(), 0u);
    EXPECT_GT(q.heap_pushes(), 0u);
  }
}

TEST(LaneTest, ScheduleFixedTakesOneKeyAndMergesWithHeapEvents) {
  // A keyed lane's fixed-delay event consumes one key of its entity's
  // stream, exactly like schedule_in, and sorts against other entities'
  // heap events at the same time by that key.
  Simulator sim;
  Lane high = Lane::keyed(sim, 2);
  Lane low = Lane::keyed(sim, 1);
  std::vector<int> order;
  high.schedule_fixed(10, [&] { order.push_back(2); });
  low.schedule_in(10, [&] { order.push_back(1); });
  EXPECT_EQ(high.next_key(), (std::uint64_t{2} << Lane::kSeqBits) | 1);
  EXPECT_EQ(sim.lane_pushes(), 1u);
  EXPECT_EQ(sim.heap_pushes(), 1u);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SimulatorTest, TimeAdvancesMonotonically) {
  Simulator sim;
  std::vector<Time> times;
  sim.schedule_in(5_us, [&] { times.push_back(sim.now()); });
  sim.schedule_in(1_us, [&] {
    times.push_back(sim.now());
    sim.schedule_in(2_us, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(times, (std::vector<Time>{1_us, 3_us, 5_us}));
  EXPECT_EQ(sim.events_executed(), 3u);
}

TEST(SimulatorTest, RunUntilStopsAndAdvancesClock) {
  Simulator sim;
  int ran = 0;
  sim.schedule_in(10, [&] { ++ran; });
  sim.schedule_in(100, [&] { ++ran; });
  sim.run(50);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.now(), 50);
  sim.run(200);
  EXPECT_EQ(ran, 2);
}

TEST(SimulatorTest, EventAtExactlyUntilRuns) {
  Simulator sim;
  bool ran = false;
  sim.schedule_in(50, [&] { ran = true; });
  sim.run(50);
  EXPECT_TRUE(ran);
}

TEST(SimulatorTest, ZeroDelayRunsAtCurrentTime) {
  Simulator sim;
  Time when = -1;
  sim.schedule_in(7, [&] {
    sim.schedule_in(0, [&] { when = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(when, 7);
}

TEST(TimeTest, LiteralsAndConversions) {
  EXPECT_EQ(1_s, 1'000'000'000);
  EXPECT_EQ(3_ms, 3'000'000);
  EXPECT_EQ(2_us, 2'000);
  EXPECT_DOUBLE_EQ(to_seconds(1_s + 500_ms), 1.5);
  EXPECT_DOUBLE_EQ(to_millis(250_us), 0.25);
}

}  // namespace
}  // namespace mars::sim
