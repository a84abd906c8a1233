#include "fsm/miner.hpp"

#include <gtest/gtest.h>

#include <map>

#include "brute_force_miner.hpp"
#include "util/rng.hpp"

namespace mars::fsm {
namespace {

using test_support::BruteForce;

SequenceDatabase paper_example() {
  // §4.4.2: four <s3,s2,s4> and two <s6,s2,s7>, max len 2, min rel
  // support 50%.
  SequenceDatabase db;
  db.add({3, 2, 4}, 4);
  db.add({6, 2, 7}, 2);
  return db;
}

MiningParams paper_params() {
  MiningParams p;
  p.min_support_rel = 0.5;
  p.max_length = 2;
  p.contiguous = true;
  return p;
}

std::map<Sequence, std::uint64_t> as_map(const std::vector<Pattern>& v) {
  std::map<Sequence, std::uint64_t> m;
  for (const auto& p : v) m[p.items] = p.support;
  return m;
}

class MinerParamTest : public ::testing::TestWithParam<MinerKind> {};

TEST_P(MinerParamTest, ReproducesPaperExample) {
  const auto miner = make_miner(GetParam());
  const auto result = miner->mine(paper_example(), paper_params());
  const auto m = as_map(result);
  // Expected (paper §4.4.2): <s2>:6, <s2,s4>:4, <s3>:4, <s3,s2>:4, <s4>:4.
  ASSERT_EQ(m.size(), 5u) << miner->name();
  EXPECT_EQ(m.at({2}), 6u);
  EXPECT_EQ(m.at({2, 4}), 4u);
  EXPECT_EQ(m.at({3}), 4u);
  EXPECT_EQ(m.at({3, 2}), 4u);
  EXPECT_EQ(m.at({4}), 4u);
  // <s6> etc. pruned (support 2 < 3); <s3,s4> absent (not contiguous).
  EXPECT_EQ(m.count({6}), 0u);
  EXPECT_EQ(m.count({3, 4}), 0u);
}

TEST_P(MinerParamTest, EmptyDatabaseYieldsNothing) {
  const auto miner = make_miner(GetParam());
  SequenceDatabase db;
  EXPECT_TRUE(miner->mine(db, paper_params()).empty());
}

TEST_P(MinerParamTest, MaxLengthOneGivesOnlyItems) {
  const auto miner = make_miner(GetParam());
  MiningParams p = paper_params();
  p.max_length = 1;
  for (const auto& pat : miner->mine(paper_example(), p)) {
    EXPECT_EQ(pat.items.size(), 1u);
  }
}

TEST_P(MinerParamTest, SupportIsAntimonotone) {
  const auto miner = make_miner(GetParam());
  MiningParams p;
  p.min_support_abs = 1;
  p.max_length = 3;
  p.contiguous = true;
  SequenceDatabase db;
  util::Rng rng(42);
  for (int s = 0; s < 30; ++s) {
    Sequence seq;
    for (int i = 0; i < 6; ++i) {
      seq.push_back(static_cast<Item>(rng.below(5)));
    }
    db.add(std::move(seq), 1 + rng.below(3));
  }
  auto result = miner->mine(db, p);
  const auto m = as_map(result);
  for (const auto& [items, sup] : m) {
    if (items.size() < 2) continue;
    const Sequence prefix(items.begin(), items.end() - 1);
    const Sequence suffix(items.begin() + 1, items.end());
    ASSERT_TRUE(m.count(prefix));
    ASSERT_TRUE(m.count(suffix));
    EXPECT_LE(sup, m.at(prefix));
    EXPECT_LE(sup, m.at(suffix));
  }
}

struct RandomCase {
  MinerKind kind;
  bool contiguous;
  std::size_t max_length;
  std::uint64_t seed;
};

class MinerCrossValidationTest
    : public ::testing::TestWithParam<std::tuple<MinerKind, bool, int>> {};

TEST_P(MinerCrossValidationTest, AgreesWithBruteForceOnRandomDatabases) {
  const auto& [kind, contiguous, max_len] = GetParam();
  const auto miner = make_miner(kind);
  const BruteForce reference;

  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    util::Rng rng(seed * 977 + 13);
    SequenceDatabase db;
    const int sequences = 5 + static_cast<int>(rng.below(25));
    for (int s = 0; s < sequences; ++s) {
      Sequence seq;
      const int len = 1 + static_cast<int>(rng.below(8));
      for (int i = 0; i < len; ++i) {
        seq.push_back(static_cast<Item>(rng.below(6)));
      }
      db.add(std::move(seq), 1 + rng.below(4));
    }
    MiningParams p;
    p.min_support_abs = 1 + rng.below(db.total() / 2 + 1);
    p.max_length = static_cast<std::size_t>(max_len);
    p.contiguous = contiguous;

    auto got = miner->mine(db, p);
    auto expected = reference.mine(db, p);
    sort_patterns(got);
    sort_patterns(expected);
    ASSERT_EQ(got.size(), expected.size())
        << miner->name() << " seed=" << seed
        << " contiguous=" << contiguous << " min_sup=" << p.min_support_abs;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].items, expected[i].items) << miner->name();
      EXPECT_EQ(got[i].support, expected[i].support)
          << miner->name() << " pattern " << to_string(expected[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMiners, MinerCrossValidationTest,
    ::testing::Combine(
        ::testing::Values(MinerKind::kPrefixSpan, MinerKind::kGsp,
                          MinerKind::kSpade, MinerKind::kSpam,
                          MinerKind::kLapin, MinerKind::kCmSpade,
                          MinerKind::kCmSpam),
        ::testing::Bool(),        // contiguous / gapped
        ::testing::Values(2, 3)), // max pattern length
    [](const auto& info) {
      std::string name{miner_name(std::get<0>(info.param))};
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name + (std::get<1>(info.param) ? "_contig" : "_gapped") +
             "_len" + std::to_string(std::get<2>(info.param));
    });

INSTANTIATE_TEST_SUITE_P(AllMiners, MinerParamTest,
                         ::testing::ValuesIn(all_miner_kinds()),
                         [](const auto& info) {
                           std::string name{miner_name(info.param)};
                           for (auto& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

class LongSequenceTest : public ::testing::TestWithParam<MinerKind> {};

// Regression: the SPAM family's one-word bitmap layout used to throw
// std::invalid_argument on any sequence longer than 64 positions, aborting
// the diagnosis mid-flight. Multi-word bitmaps must mine such databases
// and still agree with brute force.
TEST_P(LongSequenceTest, HandlesSequencesBeyond64Positions) {
  const auto miner = make_miner(GetParam());
  const BruteForce reference;
  util::Rng rng(271828);
  SequenceDatabase db;
  // A few >64-hop walks (long enough to need two or three bitmap words),
  // plus short paths so the frequent frontier is non-trivial.
  for (const std::size_t len : {70u, 65u, 97u, 130u}) {
    Sequence seq;
    for (std::size_t i = 0; i < len; ++i) {
      seq.push_back(static_cast<Item>(rng.below(5)));
    }
    db.add(std::move(seq), 1 + rng.below(3));
  }
  db.add({1, 2, 3}, 4);
  db.add({0, 2, 4}, 2);

  for (const bool contiguous : {true, false}) {
    MiningParams p;
    p.min_support_abs = 3;
    p.max_length = contiguous ? 3 : 2;  // gapped blow-up guard
    p.contiguous = contiguous;
    std::vector<Pattern> got, expected;
    ASSERT_NO_THROW(got = miner->mine(db, p)) << miner->name();
    expected = reference.mine(db, p);
    sort_patterns(got);
    sort_patterns(expected);
    ASSERT_EQ(got.size(), expected.size())
        << miner->name() << " contiguous=" << contiguous;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].items, expected[i].items) << miner->name();
      EXPECT_EQ(got[i].support, expected[i].support) << miner->name();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMiners, LongSequenceTest,
                         ::testing::ValuesIn(all_miner_kinds()),
                         [](const auto& info) {
                           std::string name{miner_name(info.param)};
                           for (auto& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(MinerRegistryTest, NamesAndKinds) {
  EXPECT_EQ(all_miner_kinds().size(), 7u);
  for (const auto kind : all_miner_kinds()) {
    const auto miner = make_miner(kind);
    ASSERT_NE(miner, nullptr);
    EXPECT_EQ(miner->name(), miner_name(kind));
  }
}

TEST(SequenceTest, ContainsPatternSemantics) {
  const Sequence seq{1, 2, 3, 4};
  EXPECT_TRUE(contains_pattern(seq, Sequence{2, 3}, true));
  EXPECT_FALSE(contains_pattern(seq, Sequence{2, 4}, true));
  EXPECT_TRUE(contains_pattern(seq, Sequence{2, 4}, false));
  EXPECT_TRUE(contains_pattern(seq, Sequence{}, true));
  EXPECT_FALSE(contains_pattern(seq, Sequence{1, 2, 3, 4, 5}, false));
}

TEST(SequenceTest, RelativeSupportRoundsUp) {
  MiningParams p;
  p.min_support_rel = 0.5;
  EXPECT_EQ(p.effective_min_support(6), 3u);
  EXPECT_EQ(p.effective_min_support(7), 4u);  // ceil(3.5)
  p.min_support_rel = 0.0;
  p.min_support_abs = 0;
  EXPECT_EQ(p.effective_min_support(10), 1u);  // never below 1
}

}  // namespace
}  // namespace mars::fsm
