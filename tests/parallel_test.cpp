#include "parallel/barrier.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace mars::parallel {
namespace {

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ReturnsValues) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolTest, PropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ParallelForTest, CoversFullRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(1000);
  parallel_for(pool, 0, touched.size(),
               [&](std::size_t i) { ++touched[i]; });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ParallelForTest, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  parallel_for(pool, 5, 5, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelForTest, RethrowsTaskException) {
  ThreadPool pool(2);
  EXPECT_THROW(parallel_for(pool, 0, 10,
                            [](std::size_t i) {
                              if (i == 7) throw std::logic_error("task 7");
                            }),
               std::logic_error);
}

TEST(ParallelForTest, ExceptionDoesNotSkipOtherChunks) {
  // A throw aborts only its own chunk; every other chunk still runs to
  // completion (futures are drained before the rethrow). With 100 items
  // and min_chunk=10 on a 4-thread pool the split is ten chunks of 10;
  // the chunk [50,60) throws on its first index, so exactly 90 run.
  ThreadPool pool(4);
  std::atomic<int> executed{0};
  EXPECT_THROW(parallel_for(
                   pool, 0, 100,
                   [&](std::size_t i) {
                     if (i == 50) throw std::runtime_error("mid");
                     ++executed;
                   },
                   /*min_chunk=*/10),
               std::runtime_error);
  EXPECT_EQ(executed.load(), 90);
}

TEST(ChunkSizesTest, RemainderNeverProducesRuntChunk) {
  // n=10, min_chunk=3: ceil-division sizing would split 4/4/2 and break
  // the floor; the remainder must spread over the leading chunks instead.
  const auto sizes = detail::chunk_sizes(10, 3, 16);
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_EQ(sizes[0], 4u);
  EXPECT_EQ(sizes[1], 3u);
  EXPECT_EQ(sizes[2], 3u);
}

TEST(ChunkSizesTest, SweepHonoursFloorAndCoversRange) {
  for (std::size_t n = 1; n <= 128; ++n) {
    for (std::size_t min_chunk = 1; min_chunk <= 9; ++min_chunk) {
      for (std::size_t max_chunks : {1u, 4u, 16u}) {
        const auto sizes = detail::chunk_sizes(n, min_chunk, max_chunks);
        ASSERT_LE(sizes.size(), max_chunks);
        std::size_t total = 0;
        for (std::size_t s : sizes) {
          total += s;
          EXPECT_GE(s, std::min(min_chunk, n))
              << "n=" << n << " min_chunk=" << min_chunk
              << " max_chunks=" << max_chunks;
        }
        EXPECT_EQ(total, n);
      }
    }
  }
}

TEST(ChunkSizesTest, RangeSmallerThanMinChunkIsOneChunk) {
  const auto sizes = detail::chunk_sizes(2, 8, 16);
  ASSERT_EQ(sizes.size(), 1u);
  EXPECT_EQ(sizes[0], 2u);
}

TEST(ChunkSizesTest, EmptyRangeHasNoChunks) {
  EXPECT_TRUE(detail::chunk_sizes(0, 4, 16).empty());
}

TEST(ParallelForTest, MinChunkStillCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(101);  // prime-ish, forces remainder
  parallel_for(
      pool, 0, touched.size(), [&](std::size_t i) { ++touched[i]; },
      /*min_chunk=*/7);
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ParallelMapTest, PreservesOrder) {
  ThreadPool pool(4);
  const auto out =
      parallel_map(pool, 100, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ParallelForTest, LargeReductionMatchesSerial) {
  ThreadPool pool;
  std::atomic<long long> sum{0};
  const std::size_t n = 1 << 16;
  parallel_for(pool, 0, n, [&](std::size_t i) {
    sum.fetch_add(static_cast<long long>(i), std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), static_cast<long long>(n) * (n - 1) / 2);
}

TEST(ParallelBarrierTest, ReusableAcrossManyGenerations) {
  constexpr std::size_t kParties = 4;
  constexpr int kGenerations = 2000;
  SpinBarrier barrier(kParties);
  EXPECT_EQ(barrier.parties(), kParties);

  std::atomic<int> completions{0};
  std::vector<std::thread> threads;
  threads.reserve(kParties);
  for (std::size_t p = 0; p < kParties; ++p) {
    threads.emplace_back([&] {
      for (int g = 0; g < kGenerations; ++g) {
        barrier.arrive_and_wait(
            [&] { completions.fetch_add(1, std::memory_order_relaxed); });
      }
    });
  }
  for (auto& t : threads) t.join();
  // Exactly one completer per generation, never lapped or skipped.
  EXPECT_EQ(completions.load(), kGenerations);
}

TEST(ParallelBarrierTest, CompletionRunsExclusivelyAndPublishes) {
  constexpr std::size_t kParties = 3;
  constexpr int kGenerations = 500;
  SpinBarrier barrier(kParties);

  // Unsynchronized: only safe if the completion callback really is
  // single-threaded and its writes are released to every leaving party.
  std::uint64_t epoch_value = 0;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t p = 0; p < kParties; ++p) {
    threads.emplace_back([&] {
      for (int g = 0; g < kGenerations; ++g) {
        barrier.arrive_and_wait([&] { epoch_value = std::uint64_t(g) + 1; });
        if (epoch_value != std::uint64_t(g) + 1) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ParallelEpochsTest, EveryLaneRunsOncePerEpoch) {
  ThreadPool pool(3);
  constexpr std::size_t kLanes = 10;
  constexpr std::uint64_t kEpochs = 50;
  std::vector<std::uint64_t> per_lane(kLanes, 0);  // lane-owned, no atomics
  pool.run_epochs(
      kLanes, [&](std::size_t lane, std::uint64_t) { ++per_lane[lane]; },
      [&](std::uint64_t e) { return e + 1 < kEpochs; });
  for (const auto count : per_lane) EXPECT_EQ(count, kEpochs);
}

TEST(ParallelEpochsTest, LaneOwnershipIsFixedAcrossEpochs) {
  ThreadPool pool(4);
  constexpr std::size_t kLanes = 9;
  std::vector<std::set<std::thread::id>> owners(kLanes);
  pool.run_epochs(
      kLanes,
      [&](std::size_t lane, std::uint64_t) {
        // Safe unsynchronized: each lane is visited by one party per epoch
        // and control() barriers order the epochs.
        owners[lane].insert(std::this_thread::get_id());
      },
      [](std::uint64_t e) { return e + 1 < 200; });
  for (const auto& ids : owners) EXPECT_EQ(ids.size(), 1u);
}

TEST(ParallelEpochsTest, ControlSeesLaneWritesAndLanesSeeControl) {
  ThreadPool pool(3);
  constexpr std::size_t kLanes = 8;
  constexpr std::uint64_t kEpochs = 300;
  std::vector<std::uint64_t> lane_out(kLanes, 0);
  std::uint64_t broadcast = 1;  // written by control, read by every lane
  std::atomic<int> bad_reads{0};
  std::uint64_t checked_epochs = 0;
  pool.run_epochs(
      kLanes,
      [&](std::size_t lane, std::uint64_t e) {
        if (broadcast != e + 1) bad_reads.fetch_add(1);
        lane_out[lane] = (e + 1) * lane;
      },
      [&](std::uint64_t e) {
        for (std::size_t lane = 0; lane < kLanes; ++lane) {
          if (lane_out[lane] == (e + 1) * lane) ++checked_epochs;
        }
        broadcast = e + 2;
        return e + 1 < kEpochs;
      });
  EXPECT_EQ(bad_reads.load(), 0);
  EXPECT_EQ(checked_epochs, kEpochs * kLanes);
}

TEST(ParallelEpochsTest, LanesRunOnExactlyLanesThreadsCallerIncluded) {
  // With at least lanes - 1 workers, `lanes` lanes take exactly `lanes`
  // threads: lanes - 1 workers plus the caller, which owns the last lane
  // instead of spinning at the barrier with no lane of its own.
  constexpr std::size_t kLanes = 4;
  for (const std::size_t workers : {kLanes - 1, kLanes, kLanes + 2}) {
    ThreadPool pool(workers);
    std::vector<std::set<std::thread::id>> owners(kLanes);
    pool.run_epochs(
        kLanes,
        [&](std::size_t lane, std::uint64_t) {
          owners[lane].insert(std::this_thread::get_id());
        },
        [](std::uint64_t e) { return e + 1 < 50; });
    std::set<std::thread::id> threads;
    for (const auto& ids : owners) {
      ASSERT_EQ(ids.size(), 1u);
      threads.insert(*ids.begin());
    }
    EXPECT_EQ(threads.size(), kLanes) << workers << " workers";
    EXPECT_EQ(*owners[kLanes - 1].begin(), std::this_thread::get_id())
        << workers << " workers";
  }
}

TEST(ParallelEpochsTest, OneLaneRunsEveryEpochOnTheCallingThread) {
  ThreadPool pool(2);
  std::set<std::thread::id> threads;
  std::uint64_t epochs = 0;
  pool.run_epochs(
      1,
      [&](std::size_t, std::uint64_t) {
        threads.insert(std::this_thread::get_id());
      },
      [&](std::uint64_t e) {
        ++epochs;
        return e + 1 < 20;
      });
  EXPECT_EQ(epochs, 20u);
  EXPECT_EQ(threads, std::set<std::thread::id>{std::this_thread::get_id()});
}

TEST(ParallelEpochsTest, SingleWorkerPoolStillCompletes) {
  ThreadPool pool(1);  // two parties: the worker plus the calling thread
  std::vector<std::uint64_t> per_lane(4, 0);
  pool.run_epochs(
      4, [&](std::size_t lane, std::uint64_t) { ++per_lane[lane]; },
      [](std::uint64_t e) { return e < 2; });
  for (const auto count : per_lane) EXPECT_EQ(count, 3u);
}

TEST(ParallelEpochsTest, ZeroLanesIsNoop) {
  ThreadPool pool(2);
  bool control_ran = false;
  pool.run_epochs(
      0, [](std::size_t, std::uint64_t) { FAIL() << "no lanes to run"; },
      [&](std::uint64_t) {
        control_ran = true;
        return false;
      });
  EXPECT_FALSE(control_ran);
}

TEST(ParallelEpochsTest, MoreLanesThanPartiesStillCoversAll) {
  ThreadPool pool(2);  // 3 parties, 32 lanes -> strided ownership
  std::vector<std::uint64_t> per_lane(32, 0);
  pool.run_epochs(
      32, [&](std::size_t lane, std::uint64_t) { ++per_lane[lane]; },
      [](std::uint64_t e) { return e + 1 < 10; });
  for (const auto count : per_lane) EXPECT_EQ(count, 10u);
}

TEST(ParallelEpochsTest, PoolIsReusableAfterEpochLoop) {
  ThreadPool pool(2);
  int epochs = 0;
  pool.run_epochs(
      2, [](std::size_t, std::uint64_t) {},
      [&](std::uint64_t) { return ++epochs < 5; });
  // Workers must have fully returned to the queue loop.
  auto f = pool.submit([] { return 42; });
  EXPECT_EQ(f.get(), 42);
  pool.run_epochs(
      3, [](std::size_t, std::uint64_t) {},
      [&](std::uint64_t) { return ++epochs < 8; });
  EXPECT_EQ(epochs, 8);
}

}  // namespace
}  // namespace mars::parallel
