// Fixed-seed determinism contract for the event engine.
//
// Every event is keyed by (time, entity, per-entity sequence), so a fixed
// seed must reproduce a scenario bit-identically: same number of events
// executed, same packet conservation totals, and the same Table-1
// localization ranks for every system. The fingerprints below were
// captured on the engine's default of one shard and pin any future
// optimization to the exact same executions. If an intentional
// behavior change lands (new RNG draws, different event counts),
// re-capture these with the harness in DESIGN.md ("Simulator hot path").

#include "mars/scenario.hpp"
#include "mars/scenario_spec.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <random>
#include <sstream>
#include <string>

namespace mars {
namespace {

struct Fingerprint {
  faults::FaultKind kind;
  std::uint64_t seed;
  std::uint64_t events;
  std::uint64_t injected;
  std::uint64_t delivered;
  std::uint64_t dropped;
  std::optional<std::size_t> mars_rank;
  std::optional<std::size_t> spidermon_rank;
  std::optional<std::size_t> intsight_rank;
  std::optional<std::size_t> syndb_rank;
};

class ScenarioDeterminismTest : public ::testing::TestWithParam<Fingerprint> {
};

TEST_P(ScenarioDeterminismTest, MatchesGoldenFingerprint) {
  const Fingerprint& golden = GetParam();
  auto cfg = default_scenario(golden.kind, golden.seed);
  cfg.duration = 4 * sim::kSecond;
  const ScenarioResult r = run_scenario(cfg);

  EXPECT_EQ(r.events_executed, golden.events);
  EXPECT_EQ(r.net_stats.injected, golden.injected);
  EXPECT_EQ(r.net_stats.delivered, golden.delivered);
  EXPECT_EQ(r.net_stats.dropped, golden.dropped);
  EXPECT_EQ(r.outcome("mars").rank, golden.mars_rank);
  EXPECT_EQ(r.outcome("spidermon").rank, golden.spidermon_rank);
  EXPECT_EQ(r.outcome("intsight").rank, golden.intsight_rank);
  EXPECT_EQ(r.outcome("syndb").rank, golden.syndb_rank);
}

INSTANTIATE_TEST_SUITE_P(
    GoldenFingerprints, ScenarioDeterminismTest,
    ::testing::Values(
        Fingerprint{faults::FaultKind::kProcessRateDecrease, 7, 303511,
                    40650, 39965, 0, std::nullopt, 1, 3, 1},
        Fingerprint{faults::FaultKind::kProcessRateDecrease, 21, 326766,
                    39996, 39258, 0, 20, 1, 5, 1},
        Fingerprint{faults::FaultKind::kDrop, 7, 304422, 40650, 40079, 538,
                    2, std::nullopt, std::nullopt, 1},
        Fingerprint{faults::FaultKind::kDrop, 21, 328546, 39996, 39531, 427,
                    1, std::nullopt, 9, 1}),
    [](const ::testing::TestParamInfo<Fingerprint>& info) {
      return std::string(faults::to_string(info.param.kind) ==
                                 std::string("process-rate-decrease")
                             ? "ProcessRateDecrease"
                             : "Drop") +
             "Seed" + std::to_string(info.param.seed);
    });

// The declarative path must be the same experiment: a minimal JSON spec
// (fault kind + seed + duration, everything else defaulted) reproduces a
// golden fingerprint event-for-event and rank-for-rank.
TEST(ScenarioDeterminismTest, SpecDrivenRunMatchesGoldenFingerprint) {
  const ScenarioSpec spec = parse_scenario_spec(R"({
    "name": "golden-rate-7",
    "topology": {"name": "fat-tree"},
    "seed": 7,
    "duration_s": 4.0,
    "faults": [{"kind": "rate", "at_s": 3.0}]
  })");
  const ScenarioResult r = run_scenario(spec.to_config());
  EXPECT_EQ(r.events_executed, 303511u);
  EXPECT_EQ(r.net_stats.injected, 40650u);
  EXPECT_EQ(r.net_stats.delivered, 39965u);
  EXPECT_EQ(r.net_stats.dropped, 0u);
  EXPECT_EQ(r.outcome("mars").rank, std::nullopt);
  EXPECT_EQ(r.outcome("spidermon").rank, std::optional<std::size_t>(1));
  EXPECT_EQ(r.outcome("intsight").rank, std::optional<std::size_t>(3));
  EXPECT_EQ(r.outcome("syndb").rank, std::optional<std::size_t>(1));
}

// ---------------------------------------------------------------------------
// Full-outcome goldens. The rank goldens above cannot see a reordered tail,
// a perturbed score, or a changed byte count; these can. For each Table 1
// cause at seed 21 with all four systems deployed, each system's complete
// ranked culprit list (level, cause, location or flow, exact score, in
// order) is pinned by the FNV-1a digest of its canonical text, alongside
// its telemetry and diagnosis bytes. On a mismatch the test prints the
// canonical text so the two lists can be diffed.

std::string canonical_culprits(const rca::CulpritList& culprits) {
  std::string out;
  for (const auto& c : culprits) {
    out += rca::to_string(c.level);
    out += ' ';
    out += rca::to_string(c.cause);
    out += ' ';
    if (c.level == rca::CulpritLevel::kFlow) {
      out += "f" + std::to_string(c.flow.source) + "-" +
             std::to_string(c.flow.sink);
    }
    for (std::size_t i = 0; i < c.location.size(); ++i) {
      out += (i == 0 ? "s" : "-s") + std::to_string(c.location[i]);
    }
    if (c.level == rca::CulpritLevel::kPort) {
      out += " p" + std::to_string(c.port);
    }
    char score[32];
    std::snprintf(score, sizeof score, " %.17g\n", c.score);
    out += score;
  }
  return out;
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char ch : text) {
    h ^= ch;
    h *= 0x100000001b3ull;
  }
  return h;
}

struct SystemGolden {
  const char* system;
  std::size_t culprits;
  std::uint64_t digest;
  std::uint64_t telemetry_bytes;
  std::uint64_t diagnosis_bytes;
};

struct OutcomeGolden {
  faults::FaultKind kind;
  std::array<SystemGolden, 4> systems;
};

void PrintTo(const OutcomeGolden& golden, std::ostream* os) {
  *os << faults::to_string(golden.kind);
}

class FullOutcomeGoldenTest : public ::testing::TestWithParam<OutcomeGolden> {
};

TEST_P(FullOutcomeGoldenTest, EverySystemOutcomeIsBitIdentical) {
  const OutcomeGolden& golden = GetParam();
  const ScenarioResult r = run_scenario(default_scenario(golden.kind, 21));
  for (const SystemGolden& expect : golden.systems) {
    const SystemOutcome& got = r.outcome(expect.system);
    const std::string text = canonical_culprits(got.culprits);
    EXPECT_EQ(got.culprits.size(), expect.culprits) << expect.system;
    EXPECT_EQ(fnv1a(text), expect.digest)
        << expect.system << " culprit list:\n" << text;
    EXPECT_EQ(got.telemetry_bytes, expect.telemetry_bytes) << expect.system;
    EXPECT_EQ(got.diagnosis_bytes, expect.diagnosis_bytes) << expect.system;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Table1Seed21, FullOutcomeGoldenTest,
    ::testing::Values(
        OutcomeGolden{faults::FaultKind::kMicroBurst,
                      {{{"mars", 19, 0xc08461b609873892ull, 234539, 176340},
                        {"spidermon", 20, 0x355362050d143525ull, 751464, 2400},
                        {"intsight", 20, 0xfc26ea651c1c48d7ull, 6199578, 3720},
                        {"syndb", 20, 0x40897247b0334c50ull, 0, 17131240}}}},
        OutcomeGolden{faults::FaultKind::kEcmpImbalance,
                      {{{"mars", 20, 0x33a71b4f74364e04ull, 321691, 312296},
                        {"spidermon", 20, 0x28b8d97c943f92e3ull, 1101172, 3156},
                        {"intsight", 20, 0xa232b8fa79e1c459ull, 9084669, 19464},
                        {"syndb", 20, 0x3a884c13370c1ab6ull, 0, 25096720}}}},
        OutcomeGolden{faults::FaultKind::kProcessRateDecrease,
                      {{{"mars", 10, 0x8e21a43f7e2c01bbull, 229413, 120992},
                        {"spidermon", 20, 0x2c9c0dcbb39bd5a3ull, 728452, 2400},
                        {"intsight", 20, 0x034ad30df1a7a958ull, 6009729, 2352},
                        {"syndb", 20, 0x39483f7f5a9f6c15ull, 0, 16570360}}}},
        OutcomeGolden{faults::FaultKind::kDelay,
                      {{{"mars", 12, 0xf6640b83bd6224d9ull, 229413, 177712},
                        {"spidermon", 0, 0xcbf29ce484222325ull, 728452, 0},
                        {"intsight", 20, 0x025f6a5129c0b910ull, 6009729, 1680},
                        {"syndb", 20, 0xd231dd84fd0810deull, 0, 16570360}}}},
        OutcomeGolden{faults::FaultKind::kDrop,
                      {{{"mars", 9, 0xd648ffef16425bceull, 227739, 113980},
                        {"spidermon", 0, 0xcbf29ce484222325ull, 722900, 0},
                        {"intsight", 17, 0x52d3dcabad4ea472ull, 5963925, 1392},
                        {"syndb", 1, 0xa21c04f7a8fbb07dull, 0, 16476400}}}}),
    [](const ::testing::TestParamInfo<OutcomeGolden>& info) {
      std::string name;
      for (const char ch : std::string(faults::to_string(info.param.kind))) {
        if (ch != '-') name += ch;
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Shard counts: a fixed seed must produce a byte-identical diagnosis at
// EVERY shard count. Event keys (sim/lane.hpp), not window placement,
// carry that guarantee; these tests pin it. At two or more shards only
// MARS with the postcard backend runs (validate_scenario), so these
// trials deploy MARS alone.

ScenarioConfig shard_config(faults::FaultKind kind, std::uint64_t seed,
                              int shards) {
  auto cfg = default_scenario(kind, seed);
  cfg.duration = 4 * sim::kSecond;
  cfg.systems = {"mars"};  // validate_scenario: >= 2 shards is mars-only
  cfg.sim.shards = shards;
  return cfg;
}

/// Serialize everything an operator would act on — stats, ranks, and the
/// full ranked culprit list with scores — so "same diagnosis" is a single
/// byte-level string comparison.
std::string serialize_diagnosis(const ScenarioResult& r) {
  std::ostringstream out;
  out << "events=" << r.events_executed << " injected=" << r.net_stats.injected
      << " delivered=" << r.net_stats.delivered
      << " dropped=" << r.net_stats.dropped
      << " unroutable=" << r.net_stats.unroutable
      << " packets=" << r.packets_injected << "\n";
  for (const auto& outcome : r.systems) {
    out << outcome.system << " rank=";
    if (outcome.rank) {
      out << *outcome.rank;
    } else {
      out << "null";
    }
    out << " triggered=" << outcome.triggered
        << " telemetry_bytes=" << outcome.telemetry_bytes
        << " diagnosis_bytes=" << outcome.diagnosis_bytes << "\n";
    for (const auto& culprit : outcome.culprits) {
      out << "  " << culprit.describe() << "\n";
    }
  }
  return out.str();
}

struct ShardedFingerprint {
  faults::FaultKind kind;
  std::uint64_t seed;
  std::uint64_t events;
  std::uint64_t injected;
  std::uint64_t delivered;
  std::uint64_t dropped;
  std::optional<std::size_t> mars_rank;
};

class ShardedScenarioDeterminismTest
    : public ::testing::TestWithParam<ShardedFingerprint> {};

TEST_P(ShardedScenarioDeterminismTest, ByteIdenticalAtEveryShardCount) {
  const ShardedFingerprint& golden = GetParam();

  // Shard count 1 is the identity reference: same engine, no parallelism.
  const ScenarioResult reference =
      run_scenario(shard_config(golden.kind, golden.seed, 1));
  EXPECT_EQ(reference.events_executed, golden.events);
  EXPECT_EQ(reference.net_stats.injected, golden.injected);
  EXPECT_EQ(reference.net_stats.delivered, golden.delivered);
  EXPECT_EQ(reference.net_stats.dropped, golden.dropped);
  EXPECT_EQ(reference.outcome("mars").rank, golden.mars_rank);

  const std::string reference_bytes = serialize_diagnosis(reference);
  for (const int shards : {2, 4, 8}) {
    const ScenarioResult r =
        run_scenario(shard_config(golden.kind, golden.seed, shards));
    EXPECT_EQ(serialize_diagnosis(r), reference_bytes)
        << "diagnosis diverged at " << shards << " shards";
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShardedGoldenFingerprints, ShardedScenarioDeterminismTest,
    ::testing::Values(
        ShardedFingerprint{faults::FaultKind::kProcessRateDecrease, 7,
                           303511, 40650, 39965, 0, std::nullopt},
        ShardedFingerprint{faults::FaultKind::kDrop, 21, 328546, 39996,
                           39531, 427, 1}),
    [](const ::testing::TestParamInfo<ShardedFingerprint>& info) {
      return std::string(info.param.kind ==
                                 faults::FaultKind::kProcessRateDecrease
                             ? "ProcessRateDecrease"
                             : "Drop") +
             "Seed" + std::to_string(info.param.seed);
    });

// Randomized cross-shard-traffic differential: random seeds, flow counts,
// rates, and fault kinds on a small fat-tree, sharded run vs the 1-shard
// reference. The trial parameters are drawn from a FIXED meta-seed so the
// test is itself reproducible; what varies is coverage of the cross-shard
// interleavings, not the verdict.
TEST(ShardedScenarioDeterminismTest, RandomizedTrafficMatchesOneShardRun) {
  std::mt19937_64 meta(0xD1FFu);
  const faults::FaultKind kinds[] = {
      faults::FaultKind::kProcessRateDecrease, faults::FaultKind::kDrop,
      faults::FaultKind::kMicroBurst, faults::FaultKind::kDelay};
  for (int trial = 0; trial < 4; ++trial) {
    const auto kind = kinds[trial % 4];
    const std::uint64_t seed = meta() % 10'000;
    auto make = [&](int shards) {
      auto cfg = shard_config(kind, seed, shards);
      cfg.background.flows = 12 + static_cast<int>(seed % 13);
      cfg.background.pps = 120.0 + static_cast<double>(seed % 160);
      return cfg;
    };
    const ScenarioResult reference = run_scenario(make(1));
    const int shards = 2 + static_cast<int>(meta() % 7);  // 2..8
    const ScenarioResult r = run_scenario(make(shards));
    EXPECT_EQ(serialize_diagnosis(r), serialize_diagnosis(reference))
        << "trial " << trial << ": kind " << static_cast<int>(kind)
        << " seed " << seed << " diverged at " << shards << " shards";
  }
}

// The degraded control channel and telemetry faults run in the global
// domain, between windows, so they too replay identically at every shard
// count: the lossy-telemetry spec plus a notification-loss burst gives the
// same result and the same channel damage at 1, 2 and 4 shards.
TEST(ShardedScenarioDeterminismTest, DegradedChannelMatchesAtEveryShardCount) {
  auto run = [](int shards) {
    // scenarios/lossy_telemetry.json
    ScenarioSpec spec = parse_scenario_spec(R"({
      "name": "lossy-telemetry",
      "topology": {"name": "fat-tree", "k": 4},
      "seed": 7,
      "systems": ["mars"],
      "channel": {
        "notification_loss": 0.2,
        "read_failure": 0.1,
        "record_loss": 0.05,
        "record_corruption": 0.02
      },
      "faults": [
        {"kind": "rate", "at_s": 3.0}
      ]
    })");
    spec.set("sim.shards", std::to_string(shards));
    ScenarioConfig cfg = spec.to_config();
    faults::FaultEvent burst;
    burst.kind = faults::FaultKind::kNotificationLoss;
    burst.at = 3 * sim::kSecond + 200 * sim::kMillisecond;
    burst.duration = 500 * sim::kMillisecond;
    cfg.faults.events.push_back(burst);
    Observability obs;
    cfg.observability = &obs;
    const ScenarioResult r = run_scenario(cfg);
    std::ostringstream channel;
    for (const auto& [name, value] : obs.snapshot.gauges) {
      if (name.starts_with("mars.channel.")) {
        channel << name << "=" << value << "\n";
      }
    }
    return std::pair{serialize_diagnosis(r), channel.str()};
  };
  const auto reference = run(1);
  EXPECT_NE(reference.second.find("mars.channel.notifications_dropped="),
            std::string::npos);
  EXPECT_EQ(reference.second.find("notifications_dropped=0\n"),
            std::string::npos)
      << "the lossy channel dropped nothing:\n" << reference.second;
  for (const int shards : {2, 4}) {
    const auto r = run(shards);
    EXPECT_EQ(r.first, reference.first)
        << "diagnosis diverged at " << shards << " shards";
    EXPECT_EQ(r.second, reference.second)
        << "channel gauges diverged at " << shards << " shards";
  }
}

// The spec-driven path lowers a "sim" block onto the same engine: a JSON
// spec with {"shards": 4} reproduces the sharded golden fingerprint.
TEST(ShardedScenarioDeterminismTest, SpecDrivenShardedRunMatchesGolden) {
  const ScenarioSpec spec = parse_scenario_spec(R"({
    "name": "sharded-golden-rate-7",
    "topology": {"name": "fat-tree"},
    "seed": 7,
    "duration_s": 4.0,
    "systems": ["mars"],
    "sim": {"shards": 4},
    "faults": [{"kind": "rate", "at_s": 3.0}]
  })");
  const ScenarioResult r = run_scenario(spec.to_config());
  EXPECT_EQ(r.events_executed, 303511u);
  EXPECT_EQ(r.net_stats.injected, 40650u);
  EXPECT_EQ(r.net_stats.delivered, 39965u);
  EXPECT_EQ(r.net_stats.dropped, 0u);
  EXPECT_EQ(r.outcome("mars").rank, std::nullopt);
}

}  // namespace
}  // namespace mars
