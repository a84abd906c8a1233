// §5.5 "Switch Memory Usage for PathID" — MAT entries and bytes for the
// PathID scheme (MARS: entries only on hash conflicts) versus IntSight
// (one entry per hop of every path).
//
// Paper numbers for K=4: IntSight 512 entries x ~7B; MARS 48 entries x
// ~10B with CRC16/CRC32, a ~43.6% memory saving. We reproduce the shape:
// MARS needs entries only where hashes collide, so M_IS > M_MS always,
// and the gap widens with topology size.
//
// --audit-out FILE additionally runs the collision-rate-vs-K grid and the
// registry construction timing, and writes them as JSON for
// bench/run_pathid_audit.sh to merge into BENCH_pathid_audit.json.
// --audit-k N picks the construction-timing fabric (default 16; the CI
// smoke uses 8 to stay under a second). Both flags are consumed before
// google-benchmark sees argv.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>

#include "control/path_registry.hpp"
#include "control/path_registry_cache.hpp"
#include "net/fat_tree.hpp"

namespace {

using namespace mars;

void report(int k, telemetry::HashKind hash, std::uint32_t width) {
  const auto ft = net::build_fat_tree({.k = k});
  const net::RoutingTable routing(ft.topology);
  const control::PathRegistry registry(ft.topology, routing,
                                       {hash, width});
  const double mars_bytes = static_cast<double>(registry.mars_memory_bytes());
  const double intsight_bytes =
      static_cast<double>(registry.intsight_memory_bytes());
  const double saving =
      intsight_bytes > 0 ? 100.0 * (1.0 - mars_bytes / intsight_bytes) : 0.0;
  std::printf(
      "  K=%d %-6s width=%2u | paths %4zu | MARS MAT %4zu entries (%6.0f B) "
      "| IntSight %5zu entries (%7.0f B) | saving %5.1f%% | conflict-free "
      "%s\n",
      k, hash == telemetry::HashKind::kCrc16 ? "CRC16" : "CRC32", width,
      registry.path_count(), registry.mat_entry_count(), mars_bytes,
      registry.intsight_memory_bytes() /
          control::PathRegistry::kIntSightMatEntryBytes,
      intsight_bytes, saving, registry.conflict_free() ? "yes" : "NO");
}

// One collision-census row: how does the initial collision count (before
// any MAT separation) and the MAT cost scale with fabric size and PathID
// width? Deterministic on every host — the regression gate exact-matches
// these numbers against the committed record.
void audit_grid_row(std::FILE* out, int k, telemetry::HashKind hash,
                    std::uint32_t width, bool last) {
  const auto ft = net::build_fat_tree({.k = k});
  const net::RoutingTable routing(ft.topology);
  const control::PathRegistry reg(ft.topology, routing, {hash, width});
  const control::PathAuditReport& a = reg.audit();
  std::fprintf(
      out,
      "    {\"k\": %d, \"hash\": \"%s\", \"width_bits\": %u, "
      "\"paths\": %zu, \"id_space\": %zu, \"initial_collisions\": %zu, "
      "\"collision_rate\": %.6f, \"residual_collisions\": %zu, "
      "\"mat_entries\": %zu, \"rounds\": %d, "
      "\"pigeonhole_infeasible\": %s, \"conflict_free\": %s}%s\n",
      k, telemetry::hash_name(hash), width, a.path_count, a.id_space,
      a.initial_collisions,
      a.path_count > 0
          ? static_cast<double>(a.initial_collisions) /
                static_cast<double>(a.path_count)
          : 0.0,
      a.residual_collisions, a.mat_entries, a.rounds,
      a.pigeonhole_infeasible ? "true" : "false",
      a.conflict_free ? "true" : "false", last ? "" : ",");
}

// One construction timing plus the cache round-trip. The cold
// get_or_build is the build: build_seconds is the registry's own wall
// time, cache_cold_seconds adds the cache's structural fingerprint, and
// the second call must hit.
void audit_construction(std::FILE* out, int k) {
  const telemetry::PathIdConfig cfg{telemetry::HashKind::kCrc32, 32};
  const auto ft = net::build_fat_tree({.k = k});
  const net::RoutingTable routing(ft.topology);

  auto& cache = control::PathRegistryCache::instance();
  cache.clear();
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  const auto cold = cache.get_or_build(ft.topology, routing, cfg);
  const auto t1 = clock::now();
  const auto hit = cache.get_or_build(ft.topology, routing, cfg);
  const auto t2 = clock::now();
  const double cold_s = std::chrono::duration<double>(t1 - t0).count();
  const double hit_s = std::chrono::duration<double>(t2 - t1).count();
  if (cold.get() != hit.get()) {
    std::fprintf(stderr, "error: cache returned a different registry\n");
    std::exit(1);
  }
  cache.clear();

  const control::PathAuditReport& a = cold->audit();
  std::fprintf(
      out,
      "  \"construction\": {\"k\": %d, \"hash\": \"%s\", "
      "\"width_bits\": %u, \"paths\": %zu, \"hops\": %zu, "
      "\"initial_collisions\": %zu, \"mat_entries\": %zu, "
      "\"conflict_free\": %s,\n"
      "    \"build_seconds\": %.4f,\n"
      "    \"cache_cold_seconds\": %.4f, \"cache_hit_seconds\": %.6f}\n",
      k, telemetry::hash_name(cfg.hash), cfg.width_bits, a.path_count,
      a.hop_count, a.initial_collisions, a.mat_entries,
      a.conflict_free ? "true" : "false", a.build_seconds, cold_s, hit_s);
}

void write_audit(const std::string& path, int construction_k) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(out, "{\n  \"grid\": [\n");
  const int ks[] = {4, 6, 8};
  const std::uint32_t widths[] = {10, 12, 14, 16};
  for (std::size_t i = 0; i < std::size(ks); ++i) {
    for (std::size_t w = 0; w < std::size(widths); ++w) {
      const bool last =
          i + 1 == std::size(ks) && w + 1 == std::size(widths);
      audit_grid_row(out, ks[i], telemetry::HashKind::kCrc16, widths[w],
                     last);
    }
  }
  std::fprintf(out, "  ],\n");
  audit_construction(out, construction_k);
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote PathID audit report to %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  // Consume our flags before google-benchmark parses the rest.
  std::string audit_out;
  int audit_k = 16;
  for (int i = 1; i < argc;) {
    const bool is_out = std::strcmp(argv[i], "--audit-out") == 0;
    const bool is_k = std::strcmp(argv[i], "--audit-k") == 0;
    if ((is_out || is_k) && i + 1 < argc) {
      if (is_out) audit_out = argv[i + 1];
      if (is_k) audit_k = std::atoi(argv[i + 1]);
      for (int j = i; j + 2 <= argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
    } else {
      ++i;
    }
  }

  std::printf("== §5.5 PathID switch-memory comparison ==\n");
  std::printf("(paper, K=4: IntSight 512 entries/3584B vs MARS 48 "
              "entries/480B -> 43.6%% saving with their entry census)\n");
  for (const int k : {4, 6, 8}) {
    report(k, telemetry::HashKind::kCrc16, 16);
  }
  report(4, telemetry::HashKind::kCrc32, 32);
  report(4, telemetry::HashKind::kCrc16, 12);
  report(4, telemetry::HashKind::kCrc16, 10);
  std::printf("\n");

  if (!audit_out.empty()) write_audit(audit_out, audit_k);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

namespace {

void BM_PathRegistryBuild(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const auto ft = net::build_fat_tree({.k = k});
  const net::RoutingTable routing(ft.topology);
  for (auto _ : state) {
    control::PathRegistry registry(ft.topology, routing, {});
    benchmark::DoNotOptimize(registry.mat_entry_count());
  }
  const control::PathRegistry registry(ft.topology, routing, {});
  state.counters["paths"] = static_cast<double>(registry.path_count());
  state.counters["mat_entries"] =
      static_cast<double>(registry.mat_entry_count());
}
BENCHMARK(BM_PathRegistryBuild)->Arg(4)->Arg(6)->Arg(8);

}  // namespace
