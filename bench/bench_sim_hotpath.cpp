// Hot-path throughput of the discrete-event substrate (events/sec and
// packets/sec) on a leaf-spine scenario, plus a steady-state heap
// allocation counter. Every MARS experiment replays millions of packets
// through this loop, so these numbers bound experiment scale.
//
// The leaf-spine replays run on the one event engine (net::Engine, one
// shard), as every scenario does.
//
// Run `bench/run_sim_hotpath.sh` to emit BENCH_sim_hotpath.json; the
// committed file tracks the trajectory across PRs (baseline vs current).

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "net/engine.hpp"
#include "net/leaf_spine.hpp"
#include "obs/net_scrape.hpp"
#include "obs/registry.hpp"
#include "obs/tracer.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"
#include "workload/traffic_gen.hpp"

// ---- Global allocation counter ------------------------------------------
// Replacing operator new binary-wide lets the benchmarks report heap
// allocations per simulated event. The interesting number is the
// steady-state delta (after warm-up), not the absolute count.

static std::atomic<std::uint64_t> g_alloc_count{0};

static std::uint64_t alloc_count() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) - 1) &
                                       ~(static_cast<std::size_t>(align) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace mars;

// ---- Raw event-queue churn ----------------------------------------------
// schedule + pop with small closures at pseudo-random times: the pattern
// every Switch/Network callback follows.

void BM_EventQueue_SchedulePop(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  util::Rng rng(0x5EED);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    sim::EventQueue q;
    for (std::size_t i = 0; i < batch; ++i) {
      const auto t = static_cast<sim::Time>(rng.below(1'000'000));
      q.schedule(t, [&sink, i] { sink += i; });
    }
    while (!q.empty()) q.pop().second();
  }
  benchmark::DoNotOptimize(sink);
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations() * batch),
      benchmark::Counter::kIsRate);
}

// Timer pattern: schedule then cancel most events before they fire — the
// path that exercised the tombstone sets in the old queue.
void BM_EventQueue_ScheduleCancel(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  util::Rng rng(0xCA4CE1);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    sim::EventQueue q;
    std::vector<std::uint64_t> ids;
    ids.reserve(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      const auto t = static_cast<sim::Time>(rng.below(1'000'000));
      ids.push_back(q.schedule(t, [&sink, i] { sink += i; }));
    }
    // Cancel 7 of every 8 (timeouts that never fire), run the rest.
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (i % 8 != 0) q.cancel(ids[i]);
    }
    while (!q.empty()) q.pop().second();
  }
  benchmark::DoNotOptimize(sink);
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations() * batch),
      benchmark::Counter::kIsRate);
}

// ---- Leaf-spine packet replay -------------------------------------------
// The end-to-end hot path: traffic generator -> inject -> switch service
// -> link forward -> deliver, measured in steady state after pools and
// arenas are warm.

void BM_LeafSpine_HotPath(benchmark::State& state) {
  auto fabric = net::build_leaf_spine(
      {.leaves = 8, .spines = 4, .leaf_spine_gbps = 10.0});
  net::Engine engine(fabric.topology);
  net::Network& network = engine.network();

  workload::TrafficGenerator traffic(network, 42);
  workload::BackgroundConfig bg;
  bg.flows = 64;
  bg.pps = 50'000.0;  // keep ports busy: the queue, not the idle gaps
  traffic.add_background(bg, fabric.leaf, /*pods=*/1);
  traffic.start();

  // Warm-up: let queues, pools, and arenas reach steady state.
  engine.run(5 * sim::kMillisecond);

  const std::uint64_t events0 = engine.sim().events_executed();
  const std::uint64_t packets0 = traffic.packets_injected();
  const std::uint64_t allocs0 = alloc_count();

  for (auto _ : state) {
    engine.run(engine.now() + sim::kMillisecond);
  }

  const auto events =
      static_cast<double>(engine.sim().events_executed() - events0);
  const auto packets =
      static_cast<double>(traffic.packets_injected() - packets0);
  const auto allocs = static_cast<double>(alloc_count() - allocs0);
  state.counters["events_per_sec"] =
      benchmark::Counter(events, benchmark::Counter::kIsRate);
  state.counters["packets_per_sec"] =
      benchmark::Counter(packets, benchmark::Counter::kIsRate);
  state.counters["allocs_per_event"] = events > 0 ? allocs / events : 0.0;
  state.counters["allocs_per_packet"] = packets > 0 ? allocs / packets : 0.0;
}

// Same replay with the observability layer compiled in and constructed but
// with nothing attached: a registry full of lazy gauges over every port
// counter (never sampled) and an idle SpanTracer. The "zero-overhead when
// disabled" guarantee means events_per_sec here must stay within a few
// percent of BM_LeafSpine_HotPath; bench/run_sim_hotpath.sh records the
// pairwise ratio as instrumented_unattached_ratio.
void BM_LeafSpine_HotPath_Instrumented(benchmark::State& state) {
  auto fabric = net::build_leaf_spine(
      {.leaves = 8, .spines = 4, .leaf_spine_gbps = 10.0});
  net::Engine engine(fabric.topology);
  net::Network& network = engine.network();

  obs::MetricsRegistry registry;
  obs::scrape_network(network, registry);  // lazy gauges, never read
  obs::SpanTracer tracer;                  // constructed, never written
  benchmark::DoNotOptimize(&tracer);

  workload::TrafficGenerator traffic(network, 42);
  workload::BackgroundConfig bg;
  bg.flows = 64;
  bg.pps = 50'000.0;
  traffic.add_background(bg, fabric.leaf, /*pods=*/1);
  traffic.start();

  engine.run(5 * sim::kMillisecond);

  const std::uint64_t events0 = engine.sim().events_executed();
  const std::uint64_t packets0 = traffic.packets_injected();
  const std::uint64_t allocs0 = alloc_count();

  for (auto _ : state) {
    engine.run(engine.now() + sim::kMillisecond);
  }

  const auto events =
      static_cast<double>(engine.sim().events_executed() - events0);
  const auto packets =
      static_cast<double>(traffic.packets_injected() - packets0);
  const auto allocs = static_cast<double>(alloc_count() - allocs0);
  state.counters["events_per_sec"] =
      benchmark::Counter(events, benchmark::Counter::kIsRate);
  state.counters["packets_per_sec"] =
      benchmark::Counter(packets, benchmark::Counter::kIsRate);
  state.counters["allocs_per_event"] = events > 0 ? allocs / events : 0.0;
  state.counters["allocs_per_packet"] = packets > 0 ? allocs / packets : 0.0;
  state.counters["gauges_registered"] =
      static_cast<double>(registry.gauge_count());
  registry.remove_gauges();
}

}  // namespace

BENCHMARK(BM_EventQueue_SchedulePop)->Arg(1 << 10)->Arg(1 << 14);
BENCHMARK(BM_EventQueue_ScheduleCancel)->Arg(1 << 10)->Arg(1 << 14);
BENCHMARK(BM_LeafSpine_HotPath)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LeafSpine_HotPath_Instrumented)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
