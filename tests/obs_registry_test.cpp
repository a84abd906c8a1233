#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json_reader.hpp"
#include "obs/json_writer.hpp"
#include "obs/registry.hpp"

namespace {

using namespace mars;

TEST(Counter, StartsAtZeroAndAccumulates) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(MetricsRegistry, CounterHandlesAreStableAndCreateOrGet) {
  obs::MetricsRegistry registry;
  obs::Counter& a = registry.counter("x");
  registry.counter("y").inc(7);  // insertion must not invalidate `a`
  a.inc(3);
  EXPECT_EQ(&a, &registry.counter("x"));
  EXPECT_EQ(registry.counter("x").value(), 3u);
  EXPECT_EQ(registry.counter_count(), 2u);
}

// ---- LogHistogram bucket layout -----------------------------------------
// With sub_bucket_bits = B (S = 2^B), values in [0, 2S) get exact unit
// buckets; above that each octave splits into S linear sub-buckets, so the
// relative bucket width never exceeds 1/S.

TEST(LogHistogram, UnitBucketsBelowTwoS) {
  const obs::LogHistogram h(4);  // S = 16 -> unit buckets for [0, 32)
  for (std::uint64_t v = 0; v < 32; ++v) {
    EXPECT_EQ(h.bucket_index(v), v) << "v=" << v;
    EXPECT_EQ(h.bucket_lo(h.bucket_index(v)), v);
    EXPECT_EQ(h.bucket_hi(h.bucket_index(v)), v + 1);
  }
}

TEST(LogHistogram, BucketBoundsContainValue) {
  const obs::LogHistogram h(4);
  // Probe power-of-two edges and their neighbours across many octaves.
  std::vector<std::uint64_t> probes = {0, 1, 31, 32, 33};
  for (int k = 6; k <= 40; k += 2) {
    const std::uint64_t p = 1ull << k;
    probes.push_back(p - 1);
    probes.push_back(p);
    probes.push_back(p + 1);
  }
  for (const std::uint64_t v : probes) {
    const std::size_t idx = h.bucket_index(v);
    EXPECT_LE(h.bucket_lo(idx), v) << "v=" << v;
    EXPECT_LT(v, h.bucket_hi(idx)) << "v=" << v;
  }
}

TEST(LogHistogram, BucketIndexIsMonotone) {
  const obs::LogHistogram h(4);
  std::size_t prev = h.bucket_index(0);
  for (std::uint64_t v = 1; v < 4096; ++v) {
    const std::size_t idx = h.bucket_index(v);
    EXPECT_GE(idx, prev) << "v=" << v;
    prev = idx;
  }
}

TEST(LogHistogram, RelativeBucketWidthBounded) {
  const obs::LogHistogram h(4);  // S = 16 -> width/lo <= 1/16
  for (const std::uint64_t v :
       {100ull, 1'000ull, 123'456ull, 1'000'000'007ull, 1ull << 50}) {
    const std::size_t idx = h.bucket_index(v);
    const double lo = static_cast<double>(h.bucket_lo(idx));
    const double width = static_cast<double>(h.bucket_hi(idx) - h.bucket_lo(idx));
    EXPECT_LE(width / lo, 1.0 / 16.0 + 1e-12) << "v=" << v;
  }
}

TEST(LogHistogram, StatsAndQuantile) {
  obs::LogHistogram h(4);
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  EXPECT_EQ(h.total(), 1000u);
  EXPECT_EQ(h.sum(), 500'500u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_DOUBLE_EQ(h.mean(), 500.5);
  // Quantile error is bounded by the bucket's relative width (<= 1/16).
  EXPECT_NEAR(static_cast<double>(h.quantile(0.5)), 500.0, 500.0 / 16.0);
  EXPECT_NEAR(static_cast<double>(h.quantile(0.99)), 990.0, 990.0 / 16.0);
  EXPECT_EQ(h.quantile(1.0), h.max());
}

TEST(LogHistogram, RecordNMatchesRepeatedRecord) {
  obs::LogHistogram a(4);
  obs::LogHistogram b(4);
  for (int i = 0; i < 9; ++i) a.record(77);
  b.record_n(77, 9);
  EXPECT_EQ(a.total(), b.total());
  EXPECT_EQ(a.sum(), b.sum());
  EXPECT_EQ(a.bucket_count(a.bucket_index(77)),
            b.bucket_count(b.bucket_index(77)));
}

// ---- Snapshot / delta ----------------------------------------------------

TEST(MetricsSnapshot, SortedAndDeterministic) {
  obs::MetricsRegistry registry;
  registry.counter("z.late").inc(1);
  registry.counter("a.early").inc(2);
  registry.gauge("m.gauge", [] { return 3.5; });
  registry.histogram("h.hist").record(10);

  const auto s1 = registry.snapshot();
  const auto s2 = registry.snapshot();
  ASSERT_EQ(s1.counters.size(), 2u);
  EXPECT_EQ(s1.counters[0].first, "a.early");
  EXPECT_EQ(s1.counters[1].first, "z.late");
  EXPECT_EQ(s1.counters, s2.counters);  // repeat snapshots identical
  EXPECT_EQ(s1.gauges, s2.gauges);
  ASSERT_EQ(s1.gauges.size(), 1u);
  EXPECT_EQ(s1.gauges[0].first, "m.gauge");
  EXPECT_DOUBLE_EQ(s1.gauges[0].second, 3.5);
  EXPECT_EQ(s1.counter_or("z.late", 0), 1u);
  EXPECT_EQ(s1.counter_or("missing", 9), 9u);
}

TEST(MetricsSnapshot, DeltaSubtractsCountersKeepsLaterGauges) {
  obs::MetricsRegistry registry;
  double g = 1.0;
  registry.counter("c").inc(10);
  registry.gauge("g", [&g] { return g; });
  const auto before = registry.snapshot();

  registry.counter("c").inc(5);
  registry.counter("fresh").inc(3);  // absent from `before`
  g = 2.0;
  const auto after = registry.snapshot();

  const auto d = after.delta(before);
  EXPECT_EQ(d.counter_or("c", 0), 5u);
  EXPECT_EQ(d.counter_or("fresh", 0), 3u);  // keeps full value
  ASSERT_EQ(d.gauges.size(), 1u);
  EXPECT_EQ(d.gauges[0].first, "g");
  EXPECT_DOUBLE_EQ(d.gauges[0].second, 2.0);
}

TEST(MetricsRegistry, RemoveGaugesByPrefix) {
  obs::MetricsRegistry registry;
  registry.gauge("net.a", [] { return 1.0; });
  registry.gauge("net.b", [] { return 2.0; });
  registry.gauge("mars.c", [] { return 3.0; });
  EXPECT_EQ(registry.remove_gauges("net."), 2u);
  EXPECT_EQ(registry.gauge_count(), 1u);
  EXPECT_EQ(registry.remove_gauges(""), 1u);
  EXPECT_EQ(registry.gauge_count(), 0u);
}

TEST(MetricsRegistry, ExportersCoverAllKinds) {
  obs::MetricsRegistry registry;
  registry.counter("c").inc(4);
  registry.gauge("g", [] { return 2.5; });
  registry.histogram("h").record(100);
  const auto snap = registry.snapshot();

  std::ostringstream json;
  obs::JsonWriter w(json);
  obs::MetricsRegistry::write_json(w, snap);
  const auto doc = obs::JsonValue::parse(json.str());
  EXPECT_EQ(doc.find("counters")->find("c")->as_int(), 4);
  EXPECT_DOUBLE_EQ(doc.find("gauges")->find("g")->as_number(), 2.5);
  const auto* h = doc.find("histograms")->find("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->find("total")->as_int(), 1);
  EXPECT_EQ(h->find("max")->as_int(), 100);
}

}  // namespace
