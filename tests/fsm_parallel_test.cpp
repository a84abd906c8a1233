// The parallel mining engine's contract: for every miner and every thread
// count, mine_with_stats() returns the SAME pattern sequence — bit-
// identical, before any sort_patterns() canonicalization — and the same
// thread-count-independent stats as the sequential run. Suite names
// contain "Parallel" so the CI TSan job picks this binary up.

#include <gtest/gtest.h>

#include <map>
#include <thread>

#include "brute_force_miner.hpp"
#include "fsm/miner.hpp"
#include "parallel/thread_pool.hpp"
#include "util/rng.hpp"

namespace mars::fsm {
namespace {

using test_support::BruteForce;

SequenceDatabase random_database(std::uint64_t seed, std::size_t max_len,
                                 Item alphabet) {
  util::Rng rng(seed);
  SequenceDatabase db;
  const int sequences = 8 + static_cast<int>(rng.below(30));
  for (int s = 0; s < sequences; ++s) {
    Sequence seq;
    const std::size_t len = 1 + rng.below(max_len);
    for (std::size_t i = 0; i < len; ++i) {
      seq.push_back(static_cast<Item>(rng.below(alphabet)));
    }
    db.add(std::move(seq), 1 + rng.below(5));
  }
  return db;
}

std::map<Sequence, std::uint64_t> as_map(const std::vector<Pattern>& v) {
  std::map<Sequence, std::uint64_t> m;
  for (const auto& p : v) m[p.items] = p.support;
  return m;
}

class ParallelEngineTest : public ::testing::TestWithParam<MinerKind> {};

TEST_P(ParallelEngineTest, ParallelOutputBitIdenticalToSequential) {
  const auto miner = make_miner(GetParam());
  for (const bool contiguous : {true, false}) {
    const auto db = random_database(7 + contiguous, 10, 8);
    MiningParams p;
    p.min_support_abs = 2;
    p.max_length = 3;
    p.contiguous = contiguous;

    p.threads = 1;
    const auto sequential = miner->mine_with_stats(db, p);
    for (const std::uint32_t threads : {2u, 4u, 8u}) {
      p.threads = threads;
      const auto parallel = miner->mine_with_stats(db, p);
      // Bit-identical emission ORDER, not just the same set: per-root
      // buffers are concatenated in root order.
      ASSERT_EQ(parallel.patterns.size(), sequential.patterns.size())
          << miner->name() << " threads=" << threads;
      for (std::size_t i = 0; i < parallel.patterns.size(); ++i) {
        EXPECT_EQ(parallel.patterns[i].items, sequential.patterns[i].items)
            << miner->name() << " threads=" << threads << " index=" << i;
        EXPECT_EQ(parallel.patterns[i].support,
                  sequential.patterns[i].support)
            << miner->name() << " threads=" << threads;
      }
      // Cost stats are defined thread-count-independently.
      EXPECT_EQ(parallel.stats.patterns, sequential.stats.patterns);
      EXPECT_EQ(parallel.stats.nodes_expanded,
                sequential.stats.nodes_expanded)
          << miner->name() << " threads=" << threads;
      EXPECT_EQ(parallel.stats.peak_bytes, sequential.stats.peak_bytes)
          << miner->name() << " threads=" << threads;
    }
  }
}

TEST_P(ParallelEngineTest, RandomizedDifferentialAgainstBruteForce) {
  const auto miner = make_miner(GetParam());
  const BruteForce reference;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    for (const bool contiguous : {true, false}) {
      const auto db = random_database(seed * 131 + 7, 9, 7);
      MiningParams p;
      util::Rng rng(seed);
      p.min_support_abs = 1 + rng.below(db.total() / 3 + 1);
      p.max_length = 2 + rng.below(2);
      p.contiguous = contiguous;

      auto expected = reference.mine(db, p);
      sort_patterns(expected);
      const auto expected_map = as_map(expected);
      for (const std::uint32_t threads : {1u, 4u}) {
        p.threads = threads;
        auto got = miner->mine_with_stats(db, p).patterns;
        sort_patterns(got);
        ASSERT_EQ(as_map(got), expected_map)
            << miner->name() << " seed=" << seed
            << " contiguous=" << contiguous << " threads=" << threads;
      }
    }
  }
}

TEST_P(ParallelEngineTest, SharedExternalPoolAcrossCalls) {
  // The analyzer's usage shape: one pool, many mine calls against it.
  const auto miner = make_miner(GetParam());
  parallel::ThreadPool pool(4);
  MiningParams p;
  p.min_support_abs = 2;
  p.max_length = 3;
  p.contiguous = true;
  p.threads = 4;
  const auto db = random_database(99, 12, 9);
  p.threads = 1;
  const auto baseline = miner->mine_with_stats(db, p);
  p.threads = 4;
  for (int call = 0; call < 3; ++call) {
    const auto res = miner->mine_with_stats(db, p, &pool);
    ASSERT_EQ(res.patterns.size(), baseline.patterns.size());
    EXPECT_EQ(as_map(res.patterns), as_map(baseline.patterns));
    EXPECT_LE(res.stats.threads_used, 4u);
  }
}

TEST_P(ParallelEngineTest, ConcurrentMineCallsOnOneMinerObject) {
  // mine_with_stats is const and keeps no mutable state (the old
  // last_memory_bytes_ member was a data race under exactly this usage).
  const auto miner = make_miner(GetParam());
  const auto db = random_database(5, 10, 8);
  MiningParams p;
  p.min_support_abs = 2;
  p.max_length = 3;
  p.contiguous = true;
  const auto expected = miner->mine_with_stats(db, p);

  std::vector<MineResult> results(4);
  {
    std::vector<std::thread> threads;
    threads.reserve(results.size());
    for (auto& slot : results) {
      threads.emplace_back(
          [&, out = &slot] { *out = miner->mine_with_stats(db, p); });
    }
    for (auto& t : threads) t.join();
  }
  for (const auto& res : results) {
    ASSERT_EQ(res.patterns.size(), expected.patterns.size());
    EXPECT_EQ(as_map(res.patterns), as_map(expected.patterns));
    EXPECT_EQ(res.stats.patterns, expected.stats.patterns);
    EXPECT_EQ(res.stats.peak_bytes, expected.stats.peak_bytes);
  }
}

TEST_P(ParallelEngineTest, StatsAreSane) {
  const auto miner = make_miner(GetParam());
  const auto db = random_database(17, 8, 6);
  MiningParams p;
  p.min_support_abs = 2;
  p.max_length = 3;
  p.contiguous = true;
  const auto res = miner->mine_with_stats(db, p);
  EXPECT_EQ(res.stats.patterns, res.patterns.size());
  // Every emitted pattern had its support evaluated somewhere.
  EXPECT_GE(res.stats.nodes_expanded, res.stats.patterns);
  EXPECT_GT(res.stats.peak_bytes, 0u);
  EXPECT_GE(res.stats.wall_seconds, 0.0);
  EXPECT_EQ(res.stats.threads_used, 1u);  // threads defaults to 1

  MiningParams p8 = p;
  p8.threads = 8;
  const auto par = miner->mine_with_stats(db, p8);
  EXPECT_GE(par.stats.threads_used, 1u);
  EXPECT_LE(par.stats.threads_used, 8u);
}

INSTANTIATE_TEST_SUITE_P(AllMiners, ParallelEngineTest,
                         ::testing::ValuesIn(all_miner_kinds()),
                         [](const auto& info) {
                           std::string name{miner_name(info.param)};
                           for (auto& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(ParallelEngineEdgeTest, ZeroAndOneRootDatabases) {
  for (const auto kind : all_miner_kinds()) {
    const auto miner = make_miner(kind);
    MiningParams p;
    p.min_support_abs = 1;
    p.max_length = 4;
    p.contiguous = true;
    p.threads = 4;

    SequenceDatabase empty;
    EXPECT_TRUE(miner->mine_with_stats(empty, p).patterns.empty());

    SequenceDatabase single;  // one item -> one root, runs inline
    single.add({3, 3, 3}, 2);
    const auto res = miner->mine_with_stats(single, p);
    EXPECT_FALSE(res.patterns.empty()) << miner->name();
    EXPECT_EQ(res.stats.threads_used, 1u) << miner->name();
  }
}

}  // namespace
}  // namespace mars::fsm
