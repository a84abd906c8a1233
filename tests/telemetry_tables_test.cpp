#include "telemetry/tables.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <vector>

#include "sim/time.hpp"
#include "util/rng.hpp"

namespace mars::telemetry {
namespace {

using namespace mars::sim::literals;

constexpr net::FlowId kFlow{1, 5};
constexpr net::FlowId kOther{2, 6};

TEST(IngressTableTest, CountsPerEpoch) {
  IngressTable it(100_ms);
  for (int i = 0; i < 7; ++i) it.count_packet(kFlow.sink, 10_ms * (i + 1));
  // Another flow's packets do not count toward kFlow.
  for (int i = 0; i < 3; ++i) it.count_packet(kOther.sink, 50_ms);
  // The next epoch's telemetry packet carries each flow's own count.
  EXPECT_EQ(it.count_packet(kFlow.sink, 150_ms), 7u);
  EXPECT_EQ(it.count_packet(kOther.sink, 150_ms), 3u);
}

TEST(IngressTableTest, LastEpochCountRollsOver) {
  IngressTable it(100_ms);
  // The first telemetry packet sees an empty previous epoch.
  EXPECT_EQ(it.count_packet(kFlow.sink, 10_ms), 0u);
  for (int i = 1; i < 5; ++i) it.count_packet(kFlow.sink, 10_ms);
  // Move into the next epoch, then the one after.
  EXPECT_EQ(it.count_packet(kFlow.sink, 150_ms), 5u);
  EXPECT_FALSE(it.count_packet(kFlow.sink, 160_ms));
  EXPECT_EQ(it.count_packet(kFlow.sink, 250_ms), 2u);
}

TEST(IngressTableTest, LastEpochCountZeroAfterIdleGap) {
  IngressTable it(100_ms);
  it.count_packet(kFlow.sink, 10_ms);
  it.count_packet(kFlow.sink, 20_ms);
  // Two epochs of silence: epoch 3's "last epoch" (2) saw nothing.
  EXPECT_EQ(it.count_packet(kFlow.sink, 310_ms), 0u);
}

TEST(IngressTableTest, OneTelemetryPacketPerFlowPerEpoch) {
  IngressTable it(100_ms);
  EXPECT_TRUE(it.count_packet(kFlow.sink, 10_ms));
  EXPECT_FALSE(it.count_packet(kFlow.sink, 50_ms));
  EXPECT_FALSE(it.count_packet(kFlow.sink, 99_ms));
  // New epoch: marking allowed again.
  EXPECT_TRUE(it.count_packet(kFlow.sink, 101_ms));
  // Independent per flow.
  EXPECT_TRUE(it.count_packet(kOther.sink, 150_ms));
  EXPECT_FALSE(it.count_packet(kFlow.sink, 150_ms));
}

TEST(EgressTableTest, PerPathPerFlowCounters) {
  EgressTable et(100_ms);
  EXPECT_EQ(et.count_packet(kFlow.source, 0xAA, 500, 10_ms).packets, 1u);
  const auto a = et.count_packet(kFlow.source, 0xAA, 700, 20_ms);
  EXPECT_EQ(a.packets, 2u);
  EXPECT_EQ(a.bytes, 1200u);
  const auto b = et.count_packet(kFlow.source, 0xBB, 100, 30_ms);
  EXPECT_EQ(b.packets, 1u);
  EXPECT_EQ(b.bytes, 100u);
  EXPECT_EQ(et.flow_current_packets(kFlow.source, 50_ms), 3u);
  EXPECT_EQ(et.flow_current_packets(kOther.source, 50_ms), 0u);
  const auto paths = et.flow_path_counts(kFlow.source, 50_ms);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0].path_id, 0xAAu);
  EXPECT_EQ(paths[0].packets, 2u);
  EXPECT_EQ(paths[1].path_id, 0xBBu);
  EXPECT_EQ(paths[1].packets, 1u);
}

TEST(EgressTableTest, PreviousEpochVisibleFromNext) {
  EgressTable et(100_ms);
  et.count_packet(kFlow.source, 0xAA, 500, 50_ms);
  et.count_packet(kFlow.source, 0xAA, 500, 60_ms);
  // Query from epoch 1 without new traffic: the entry still holds epoch 0
  // as "current", which the previous-epoch read must interpret correctly.
  EXPECT_EQ(et.flow_previous_packets(kFlow.source, 150_ms), 2u);
  EXPECT_EQ(et.flow_current_packets(kFlow.source, 150_ms), 0u);
  // After new traffic in epoch 1 the rollover is explicit.
  EXPECT_EQ(et.count_packet(kFlow.source, 0xAA, 500, 160_ms).packets, 1u);
  EXPECT_EQ(et.flow_previous_packets(kFlow.source, 170_ms), 2u);
  EXPECT_EQ(et.flow_current_packets(kFlow.source, 170_ms), 1u);
  // Path counts sum both epochs so a path sampled in either stays visible.
  const auto paths = et.flow_path_counts(kFlow.source, 170_ms);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].packets, 3u);
}

TEST(EgressTableTest, StaleEpochsReadZero) {
  EgressTable et(100_ms);
  et.count_packet(kFlow.source, 0xAA, 500, 50_ms);
  EXPECT_EQ(et.flow_current_packets(kFlow.source, 550_ms), 0u);
  EXPECT_EQ(et.flow_previous_packets(kFlow.source, 550_ms), 0u);
  EXPECT_TRUE(et.flow_path_counts(kFlow.source, 550_ms).empty());
  // A count after the idle gap starts from zero.
  const auto c = et.count_packet(kFlow.source, 0xAA, 500, 560_ms);
  EXPECT_EQ(c.packets, 1u);
  EXPECT_EQ(c.bytes, 500u);
  EXPECT_EQ(et.flow_previous_packets(kFlow.source, 560_ms), 0u);
}

// ---------------------------------------------------------------------------
// Reference: the map-keyed tables the switch-indexed ones replaced. Each
// holds full FlowIds in an unordered_map and scans the whole table for a
// flow-level read. The differential test below drives both through the
// same randomized packets and compares every read the pipeline makes.
// ---------------------------------------------------------------------------

class RefIngressTable {
 public:
  explicit RefIngressTable(sim::Time period) : period_(period) {}

  void count_packet(const net::FlowId& flow, sim::Time now) {
    FlowEntry& e = flows_[flow];
    roll(e, epoch_of(now, period_));
    ++e.current_count;
  }

  bool try_mark_telemetry(const net::FlowId& flow, sim::Time now) {
    FlowEntry& e = flows_[flow];
    const EpochId epoch = epoch_of(now, period_);
    roll(e, epoch);
    if (e.telemetry_marked && e.last_telemetry_epoch == epoch) return false;
    e.telemetry_marked = true;
    e.last_telemetry_epoch = epoch;
    return true;
  }

  std::uint32_t last_epoch_count(const net::FlowId& flow,
                                 sim::Time now) const {
    const auto it = flows_.find(flow);
    if (it == flows_.end()) return 0;
    const FlowEntry& e = it->second;
    const EpochId epoch = epoch_of(now, period_);
    if (e.epoch == epoch) {
      return (e.previous_epoch == epoch - 1) ? e.previous_count : 0;
    }
    if (e.epoch == epoch - 1) return e.current_count;
    return 0;
  }

 private:
  struct FlowEntry {
    EpochId epoch = 0;
    std::uint32_t current_count = 0;
    std::uint32_t previous_count = 0;
    EpochId previous_epoch = 0;
    EpochId last_telemetry_epoch = 0;
    bool telemetry_marked = false;
  };

  void roll(FlowEntry& e, EpochId epoch) const {
    if (epoch == e.epoch) return;
    e.previous_count = (epoch == e.epoch + 1) ? e.current_count : 0;
    e.previous_epoch = epoch - 1;
    e.epoch = epoch;
    e.current_count = 0;
  }

  sim::Time period_;
  std::unordered_map<net::FlowId, FlowEntry> flows_;
};

class RefEgressTable {
 public:
  using PathCounters = EgressTable::PathCounters;
  using FlowPathCount = EgressTable::FlowPathCount;

  explicit RefEgressTable(sim::Time period) : period_(period) {}

  void count_packet(std::uint32_t path_id, const net::FlowId& flow,
                    std::uint32_t bytes, sim::Time now) {
    Entry& e = entries_[Key{path_id, flow}];
    roll(e, epoch_of(now, period_));
    ++e.current.packets;
    e.current.bytes += bytes;
  }

  PathCounters current(std::uint32_t path_id, const net::FlowId& flow,
                       sim::Time now) const {
    const auto it = entries_.find(Key{path_id, flow});
    if (it == entries_.end()) return {};
    const Entry& e = it->second;
    return (e.epoch == epoch_of(now, period_)) ? e.current : PathCounters{};
  }

  std::uint32_t flow_current_packets(const net::FlowId& flow,
                                     sim::Time now) const {
    std::uint32_t total = 0;
    const EpochId epoch = epoch_of(now, period_);
    for (const auto& [key, e] : entries_) {
      if (key.flow == flow && e.epoch == epoch) total += e.current.packets;
    }
    return total;
  }

  std::uint32_t flow_previous_packets(const net::FlowId& flow,
                                      sim::Time now) const {
    std::uint32_t total = 0;
    const EpochId epoch = epoch_of(now, period_);
    for (const auto& [key, e] : entries_) {
      if (key.flow != flow) continue;
      if (e.epoch == epoch && e.previous_epoch == epoch - 1) {
        total += e.previous.packets;
      } else if (e.epoch == epoch - 1) {
        total += e.current.packets;
      }
    }
    return total;
  }

  std::vector<FlowPathCount> flow_path_counts(const net::FlowId& flow,
                                              sim::Time now) const {
    const EpochId epoch = epoch_of(now, period_);
    std::vector<FlowPathCount> out;
    for (const auto& [key, e] : entries_) {
      if (key.flow != flow) continue;
      std::uint32_t packets = 0;
      if (e.epoch == epoch) {
        packets += e.current.packets;
        if (e.previous_epoch == epoch - 1) packets += e.previous.packets;
      } else if (e.epoch == epoch - 1) {
        packets += e.current.packets;
      }
      if (packets > 0) out.push_back(FlowPathCount{key.path_id, packets});
    }
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      return a.path_id < b.path_id;
    });
    return out;
  }

 private:
  struct Key {
    std::uint32_t path_id;
    net::FlowId flow;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      return std::hash<net::FlowId>{}(k.flow) * 1000003u ^ k.path_id;
    }
  };
  struct Entry {
    EpochId epoch = 0;
    PathCounters current;
    PathCounters previous;
    EpochId previous_epoch = 0;
  };

  void roll(Entry& e, EpochId epoch) const {
    if (epoch == e.epoch) return;
    e.previous = (epoch == e.epoch + 1) ? e.current : PathCounters{};
    e.previous_epoch = epoch - 1;
    e.epoch = epoch;
    e.current = PathCounters{};
  }

  sim::Time period_;
  std::unordered_map<Key, Entry, KeyHash> entries_;
};

/// Switch ids at a flow's far end. The first kUsedFarEnds carry traffic,
/// sparse so the indexed tables grow past unused slots. The last two are
/// only read: 5 lies inside the grown table, 30 past its end.
constexpr net::SwitchId kFarEnds[] = {0, 3, 4, 9, 17, 5, 30};
constexpr std::size_t kUsedFarEnds = 5;

/// Random time step: mostly within the epoch, sometimes into the next
/// one, occasionally across idle epochs.
sim::Time next_time(util::Rng& rng, sim::Time now, sim::Time period) {
  const double roll = rng.uniform();
  if (roll < 0.85) return now + rng.range(0, period / 20);
  if (roll < 0.97) return now + rng.range(period / 2, period + period / 4);
  return now + rng.range(2 * period, 5 * period);
}

TEST(EdgeTableDifferentialTest, IngressMatchesMapReference) {
  constexpr sim::Time kPeriod = 100_ms;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::Rng rng(seed);
    const net::SwitchId me = 11;  // this source switch
    IngressTable table(kPeriod);
    RefIngressTable ref(kPeriod);
    sim::Time now = rng.range(0, 3 * kPeriod);
    for (int step = 0; step < 3000; ++step) {
      now = next_time(rng, now, kPeriod);
      const net::SwitchId sink = kFarEnds[rng.below(kUsedFarEnds)];
      const net::FlowId flow{me, sink};
      const std::optional<std::uint32_t> got = table.count_packet(sink, now);
      ref.count_packet(flow, now);
      const bool marked = ref.try_mark_telemetry(flow, now);
      ASSERT_EQ(got.has_value(), marked) << "seed " << seed << " step " << step;
      if (marked) {
        ASSERT_EQ(*got, ref.last_epoch_count(flow, now))
            << "seed " << seed << " step " << step;
      }
    }
  }
}

TEST(EdgeTableDifferentialTest, EgressMatchesMapReference) {
  constexpr sim::Time kPeriod = 100_ms;
  std::size_t previous_epoch_hits = 0;
  std::size_t between_write_hits = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::Rng rng(seed);
    const net::SwitchId me = 11;  // this sink switch
    EgressTable table(kPeriod);
    RefEgressTable ref(kPeriod);
    // Each flow (source) uses a few PathIDs, as ECMP spreads it.
    std::vector<std::vector<std::uint32_t>> paths(kUsedFarEnds);
    for (auto& ids : paths) {
      const std::size_t n = 1 + rng.below(5);
      for (std::size_t i = 0; i < n; ++i) {
        ids.push_back(static_cast<std::uint32_t>(rng.below(1u << 16)));
      }
    }

    const auto compare_flow_reads = [&](net::SwitchId source, sim::Time t,
                                        int step) {
      const net::FlowId flow{source, me};
      ASSERT_EQ(table.flow_previous_packets(source, t),
                ref.flow_previous_packets(flow, t))
          << "seed " << seed << " step " << step;
      ASSERT_EQ(table.flow_current_packets(source, t),
                ref.flow_current_packets(flow, t))
          << "seed " << seed << " step " << step;
      const auto got = table.flow_path_counts(source, t);
      const auto want = ref.flow_path_counts(flow, t);
      ASSERT_EQ(got.size(), want.size())
          << "seed " << seed << " step " << step;
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].path_id, want[i].path_id)
            << "seed " << seed << " step " << step << " entry " << i;
        ASSERT_EQ(got[i].packets, want[i].packets)
            << "seed " << seed << " step " << step << " entry " << i;
      }
    };

    sim::Time now = rng.range(0, 3 * kPeriod);
    for (int step = 0; step < 3000; ++step) {
      now = next_time(rng, now, kPeriod);
      const std::size_t f = rng.below(kUsedFarEnds);
      const net::SwitchId source = kFarEnds[f];
      const std::uint32_t path_id = paths[f][rng.below(paths[f].size())];
      const auto bytes = static_cast<std::uint32_t>(rng.range(64, 1500));
      const auto counted = table.count_packet(source, path_id, bytes, now);
      ref.count_packet(path_id, net::FlowId{source, me}, bytes, now);
      const auto want = ref.current(path_id, net::FlowId{source, me}, now);
      ASSERT_EQ(counted.packets, want.packets)
          << "seed " << seed << " step " << step;
      ASSERT_EQ(counted.bytes, want.bytes)
          << "seed " << seed << " step " << step;
      // The sink's reads for a telemetry packet: same flow, same time.
      compare_flow_reads(source, now, step);
      previous_epoch_hits += table.flow_previous_packets(source, now) > 0;
      // Reads between writes: any flow, including one never written, at a
      // time up to a few epochs ahead (or behind) of the last write.
      if (rng.chance(0.3)) {
        const net::SwitchId any = kFarEnds[rng.below(std::size(kFarEnds))];
        const sim::Time t = std::max<sim::Time>(
            0, now + rng.range(-kPeriod, 3 * kPeriod));
        compare_flow_reads(any, t, step);
        between_write_hits += !table.flow_path_counts(any, t).empty();
      }
    }
  }
  // The comparison saw real previous-epoch and per-path data, not just
  // empty reads.
  EXPECT_GT(previous_epoch_hits, 10000u);
  EXPECT_GT(between_write_hits, 2000u);
}

TEST(RingTableTest, OverwritesOldestAndReportsMemory) {
  RingTable rt(4);
  for (std::uint32_t i = 0; i < 6; ++i) {
    RtRecord rec;
    rec.epoch_id = i;
    rt.insert(rec);
  }
  const auto snap = rt.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap.front().epoch_id, 2u);
  EXPECT_EQ(snap.back().epoch_id, 5u);
  EXPECT_EQ(rt.memory_bytes(), 4 * RtRecord::kWireBytes);
}

}  // namespace
}  // namespace mars::telemetry
