// perfbench_trial: the process side of the whole-trial benchmark.
// perfbench/run.py builds this program, runs it, and aggregates what it
// prints; see perfbench/METHOD.md for the metrics and workloads.
//
// Every number comes from outside the program, through its public entry
// points: validate_scenario, run_scenario, SystemRegistry, Observability
// and PathRegistryCache. Three modes:
//
//   --setup         time the first validate_scenario call of this process
//                   (fabric, routing, cold PathID registry) and exit;
//   --setup-layers  time the pieces of that call one by one instead: the
//                   fabric build, the routing tables, the cold registry;
//   (default)       run --rounds rounds of the workload's trials back to
//                   back, one closed-loop client on this thread. The trial
//                   list depends only on --seed and --rounds, so every
//                   build of the program times the same work. One JSON
//                   line per trial, then a last line with the process's
//                   peak resident memory.
//
// --setup and the trials print beside each wall time the host's speed
// around it (host_ns, see host_speed), which run.py scales by.
//
// With --trace every trial runs twice: untraced as above, then again with
// an Observability bundle attached and, on the single-queue engine, a
// probe system that wraps each packet observer in a timing proxy. The
// traced half of the line carries the wall spans, the gauge snapshot and
// the per-observer tallies; run.py checks that both passes agree.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "control/path_registry_cache.hpp"
#include "mars/scenario.hpp"
#include "mars/scenario_spec.hpp"
#include "mars/system_registry.hpp"
#include "net/network.hpp"
#include "net/routing.hpp"
#include "obs/json_reader.hpp"
#include "obs/json_writer.hpp"

namespace {

using namespace mars;
using Clock = std::chrono::steady_clock;

constexpr const char* kProbeName = "bench_probe";

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// ---------------------------------------------------------------- workloads

enum class Workload { kTable1K4, kMarsK4, kMarsK16Sharded };

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "table1_k4") return Workload::kTable1K4;
  if (name == "mars_k4") return Workload::kMarsK4;
  if (name == "mars_k16_sharded") return Workload::kMarsK16Sharded;
  return std::nullopt;
}

/// The five Table 1 causes, cycled in this order by both k=4 workloads.
constexpr faults::FaultKind kTable1Kinds[] = {
    faults::FaultKind::kMicroBurst, faults::FaultKind::kEcmpImbalance,
    faults::FaultKind::kProcessRateDecrease, faults::FaultKind::kDelay,
    faults::FaultKind::kDrop};

/// Workload seed of the core rounds (see TrialFactory::seed_of). Its
/// trials are typical: the first value tried, 2^64-1, drew six light
/// `ecmp` trials on table1_k4, whose process then peaked at 330 MB where
/// nine seeded runs in ten peak near 1.1 GB.
constexpr std::uint64_t kCoreSeed = 1000001;

/// Seed of trial `index`: repeatable per (workload seed, index), and
/// distinct between workloads through `salt`.
std::uint64_t trial_seed(std::uint64_t workload_seed, std::uint64_t salt,
                         std::uint64_t index) {
  std::uint64_t z = workload_seed * 0x9E3779B97F4A7C15ull +
                    salt * 0xD1B54A32D192ED03ull + index;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return (z ^ (z >> 31)) % 1'000'000'000ull + 1;
}

struct Trial {
  std::string kind;
  ScenarioConfig config;
};

class TrialFactory {
 public:
  TrialFactory(Workload workload, std::uint64_t seed,
               const std::string& spec_path)
      : workload_(workload), seed_(seed) {
    if (workload_ == Workload::kMarsK16Sharded) {
      k16_ = load_scenario_spec(spec_path).to_config();
    }
  }

  /// Trials per round: one of each fault kind on the k=4 workloads, so
  /// each kind gets the same number of trials.
  [[nodiscard]] std::uint64_t round() const {
    return workload_ == Workload::kMarsK16Sharded ? 1
                                                  : std::size(kTable1Kinds);
  }

  [[nodiscard]] Trial make(std::uint64_t index) const {
    switch (workload_) {
      case Workload::kTable1K4:
      case Workload::kMarsK4: {
        const faults::FaultKind kind =
            kTable1Kinds[index % std::size(kTable1Kinds)];
        const bool table1 = workload_ == Workload::kTable1K4;
        Trial trial{faults::short_name(kind),
                    default_scenario(kind, seed_of(index, table1 ? 1 : 2))};
        if (!table1) trial.config.systems = {"mars"};
        return trial;
      }
      case Workload::kMarsK16Sharded: {
        Trial trial{faults::short_name(k16_->faults.events.front().kind),
                    *k16_};
        trial.config.seed = seed_of(index, 3);
        return trial;
      }
    }
    throw std::logic_error("unknown workload");
  }

 private:
  /// Three rounds in four form a core list that every workload seed
  /// shares; every fourth round (rounds 3, 7, ...) comes from the run's
  /// own seed. Trial costs vary twofold between seeds on most kinds and
  /// fivefold on `ecmp`, and the shared rounds (common random numbers) cut
  /// the variance that puts on a run's metrics from seed to seed to a
  /// quarter, while every run of four rounds or more still draws trials of
  /// its own.
  [[nodiscard]] std::uint64_t seed_of(std::uint64_t index,
                                      std::uint64_t salt) const {
    const bool core = (index / round()) % 4 != 3;
    return trial_seed(core ? kCoreSeed : seed_, salt, index);
  }

  Workload workload_;
  std::uint64_t seed_;
  std::optional<ScenarioConfig> k16_;
};

// ------------------------------------------------------------ host speed

constexpr int kSpeedSteps = 100'000;  // steps of one block (~0.3 ms)
constexpr int kSpeedBlocks = 5;

inline std::uint64_t xorshift(std::uint64_t x) {
  x ^= x << 13;
  x ^= x >> 7;
  return x ^ (x << 17);
}

/// The host's speed right now, in ns per step of four independent chains
/// of shifts and xors: the fastest of a few short blocks, so that a block
/// the thread was preempted in does not count. The chains touch no memory
/// and keep the core's integer units busy, so their time follows both the
/// core's clock rate and the share of the core that a busy sibling
/// hyperthread leaves to this thread: on a shared host these change from
/// second to second and move a trial's wall time by up to 1.5x, where a
/// single chain barely slows. run.py scales the timings to a reference
/// speed with it (see METHOD.md).
double host_ns_per_step() {
  // Read and written through an atomic so that the compiler cannot fold
  // the chains, and several threads can measure at once.
  static std::atomic<std::uint64_t> seed{1};
  double best = std::numeric_limits<double>::infinity();
  for (int b = 0; b < kSpeedBlocks; ++b) {
    std::uint64_t x0 = seed.load(std::memory_order_relaxed) +
                       static_cast<std::uint64_t>(b);
    std::uint64_t x1 = x0 + 1;
    std::uint64_t x2 = x0 + 2;
    std::uint64_t x3 = x0 + 3;
    const auto t0 = Clock::now();
    for (int i = 0; i < kSpeedSteps; ++i) {
      x0 = xorshift(x0);
      x1 = xorshift(x1);
      x2 = xorshift(x2);
      x3 = xorshift(x3);
      // Keep the chains scalar, in general registers, as the simulator's
      // integer code is.
      asm volatile("" : "+r"(x0), "+r"(x1), "+r"(x2), "+r"(x3));
    }
    asm volatile("" : "+r"(x0) : : "memory");  // finish before t1
    const auto t1 = Clock::now();
    seed.store(x0 ^ x1 ^ x2 ^ x3, std::memory_order_relaxed);
    best = std::min(best, ms_between(t0, t1) * 1e6 / kSpeedSteps);
  }
  return best;
}

/// host_ns_per_step() on `threads` threads at once (at least one), averaged:
/// the speed of the host while it runs that many busy threads, as the
/// sharded engine's shards do.
double host_speed(std::size_t threads) {
  std::vector<double> ns(std::max<std::size_t>(threads, 1));
  std::atomic<std::size_t> ready{0};
  const auto measure = [&](std::size_t i) {
    ready.fetch_add(1);
    while (ready.load() < ns.size()) {
    }
    ns[i] = host_ns_per_step();
  };
  std::vector<std::thread> helpers;
  for (std::size_t i = 1; i < ns.size(); ++i) helpers.emplace_back(measure, i);
  measure(0);
  for (std::thread& t : helpers) t.join();
  double sum = 0.0;
  for (const double v : ns) sum += v;
  return sum / static_cast<double>(ns.size());
}

// ------------------------------------------------------- observer probe

/// The proxies' clock. On x86 it is the time-stamp counter, which costs
/// about half a steady_clock read on a VM (~22 ns against ~43) and ticks at
/// a constant rate on every x86-64 host with an invariant TSC;
/// calibrate_probe() measures that rate. Elsewhere it is steady_clock in ns.
inline std::uint64_t probe_ticks() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
#endif
}

/// Calls of one observer on one thread, every one of them timed. Sampling
/// one call in N would skip or N-fold the rare costly call (a SpiderMon
/// edge-log reallocation takes tens of ms), so the traced pass pays the
/// two clock reads on every call and accounts for them afterwards.
struct Tally {
  std::uint64_t calls = 0;
  std::uint64_t ticks = 0;
};

/// Run `call`, counting and timing it in `tally`.
template <typename Call>
void book(Tally& tally, Call&& call) {
  const std::uint64_t t0 = probe_ticks();
  call();
  const std::uint64_t t1 = probe_ticks();
  ++tally.calls;
  tally.ticks += t1 - t0;
}

/// Per-thread tallies of the timing proxies, one slot per wrapped
/// observer. Each thread that runs observer callbacks (shard threads on
/// the sharded engine) writes its own row; totals() merges the rows.
class ObserverLedger {
 public:
  /// Start a new trial's tallies, one slot per name.
  void begin(std::vector<std::string> names) {
    std::lock_guard<std::mutex> lock(mu_);
    names_ = std::move(names);
    rows_.clear();
    generation_.store(next_generation_.fetch_add(1) + 1,
                      std::memory_order_release);
  }

  /// This thread's tally for `slot`.
  [[nodiscard]] Tally& slot(std::size_t slot) {
    return this_thread_row()[slot];
  }

  [[nodiscard]] const std::vector<std::string>& names() const {
    return names_;
  }

  [[nodiscard]] std::vector<Tally> totals() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Tally> sum(names_.size());
    for (const auto& row : rows_) {
      for (std::size_t i = 0; i < sum.size(); ++i) {
        sum[i].calls += (*row)[i].calls;
        sum[i].ticks += (*row)[i].ticks;
      }
    }
    return sum;
  }

 private:
  using Row = std::vector<Tally>;

  Row& this_thread_row() {
    struct Cache {
      std::uint64_t generation = 0;
      Row* row = nullptr;
    };
    thread_local Cache cache;
    const std::uint64_t generation =
        generation_.load(std::memory_order_acquire);
    if (cache.generation != generation) {
      std::lock_guard<std::mutex> lock(mu_);
      rows_.push_back(std::make_unique<Row>(names_.size()));
      cache = {generation, rows_.back().get()};
    }
    return *cache.row;
  }

  static inline std::atomic<std::uint64_t> next_generation_{0};
  std::atomic<std::uint64_t> generation_{0};
  mutable std::mutex mu_;  // guards names_ and rows_
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<Row>> rows_;
};

/// The proxies' clock rate, and what book() books around an empty call:
/// the share of the two clock reads that falls between them.
struct ProbeCost {
  double ticks_per_ns = 1.0;
  double inside_ticks = 0.0;

  /// Wall time of a tally's calls less what the clock reads add to them.
  [[nodiscard]] double observer_ns(const Tally& tally) const {
    return std::max(0.0, static_cast<double>(tally.ticks) -
                             inside_ticks * static_cast<double>(tally.calls)) /
           ticks_per_ns;
  }
};

/// Measure ProbeCost: the clock rate against steady_clock over 50 ms, and
/// the booked time of an empty call as the median over a few batches.
ProbeCost calibrate_probe() {
  ProbeCost cost;
  const auto c0 = Clock::now();
  const std::uint64_t k0 = probe_ticks();
  while (ms_between(c0, Clock::now()) < 50.0) {
  }
  const std::uint64_t k1 = probe_ticks();
  cost.ticks_per_ns =
      static_cast<double>(k1 - k0) / (ms_between(c0, Clock::now()) * 1e6);

  std::vector<double> inside;
  for (int b = 0; b < 9; ++b) {
    Tally tally;
    for (int i = 0; i < 1 << 16; ++i) {
      book(tally, [] { std::atomic_signal_fence(std::memory_order_seq_cst); });
    }
    inside.push_back(static_cast<double>(tally.ticks) /
                     static_cast<double>(tally.calls));
  }
  std::nth_element(inside.begin(), inside.begin() + 4, inside.end());
  cost.inside_ticks = inside[4];
  return cost;
}

/// Forwards every callback to the wrapped observer and books it in the
/// ledger.
class TimedObserver final : public net::PacketObserver {
 public:
  TimedObserver(net::PacketObserver& inner, std::size_t slot,
                ObserverLedger& ledger)
      : inner_(&inner), slot_(slot), ledger_(&ledger) {}

  void on_ingress(net::SwitchContext& ctx, net::Packet& pkt) override {
    book(tally(), [&] { inner_->on_ingress(ctx, pkt); });
  }
  void on_enqueue(net::SwitchContext& ctx, net::Packet& pkt, net::PortId out,
                  std::uint32_t queue_depth) override {
    book(tally(), [&] { inner_->on_enqueue(ctx, pkt, out, queue_depth); });
  }
  void on_egress(net::SwitchContext& ctx, net::Packet& pkt, net::PortId out,
                 sim::Time hop_latency) override {
    book(tally(), [&] { inner_->on_egress(ctx, pkt, out, hop_latency); });
  }
  void on_drop(net::SwitchContext& ctx, const net::Packet& pkt,
               net::PortId out) override {
    book(tally(), [&] { inner_->on_drop(ctx, pkt, out); });
  }
  void on_deliver(net::SwitchContext& ctx, net::Packet& pkt) override {
    book(tally(), [&] { inner_->on_deliver(ctx, pkt); });
  }

 private:
  Tally& tally() { return ledger_->slot(slot_); }

  net::PacketObserver* inner_;
  std::size_t slot_;
  ObserverLedger* ledger_;
};

/// A telemetry system that monitors nothing: deployed after the real
/// systems, it swaps each of their packet observers for a TimedObserver.
class ProbeSystem final : public systems::TelemetrySystem {
 public:
  ProbeSystem(net::Network& network, const ScenarioConfig& config,
              Observability& obs, ObserverLedger& ledger) {
    std::vector<net::PacketObserver*>& observers = network.observers();
    const auto probe_at = static_cast<std::size_t>(
        std::find(config.systems.begin(), config.systems.end(), kProbeName) -
        config.systems.begin());
    // Each system listed before the probe attached exactly one observer,
    // in list order; anything else would misattribute the time.
    if (observers.size() != probe_at) {
      throw std::logic_error(
          "bench_probe: expected one packet observer per system listed "
          "before it (" + std::to_string(probe_at) + "), found " +
          std::to_string(observers.size()));
    }
    ledger.begin({config.systems.begin(),
                  config.systems.begin() + static_cast<long>(probe_at)});
    // The benchmark reads only the sim.* and mars.* gauges. A baseline's
    // gauges call its overheads(), which for SpiderMon rebuilds a set over
    // its whole wait-for edge log; unregistered, the end-of-run snapshot
    // does not add that work to the traced trial.
    for (std::size_t i = 0; i < probe_at; ++i) {
      if (config.systems[i] != "mars") {
        obs.registry.remove_gauges(config.systems[i] + ".");
      }
    }
    for (std::size_t i = 0; i < observers.size(); ++i) {
      proxies_.push_back(
          std::make_unique<TimedObserver>(*observers[i], i, ledger));
      observers[i] = proxies_.back().get();
    }
  }

  [[nodiscard]] std::string_view name() const override { return kProbeName; }
  [[nodiscard]] rca::CulpritList diagnose(
      const systems::DiagnosisQuery& /*query*/) override {
    return {};
  }
  [[nodiscard]] systems::OverheadReport overheads() const override {
    return {};
  }
  [[nodiscard]] bool triggered() const override { return false; }

 private:
  std::vector<std::unique_ptr<TimedObserver>> proxies_;
};

// ------------------------------------------------------------- output

void write_rank(obs::JsonWriter& w, const std::optional<std::size_t>& rank) {
  if (rank) {
    w.value(std::uint64_t{*rank});
  } else {
    w.null();
  }
}

/// The facts run.py grades and cross-checks, for either pass.
void write_result(obs::JsonWriter& w, const ScenarioResult& r) {
  w.member("injected", r.packets_injected)
      .member("delivered", r.net_stats.delivered)
      .member("dropped", r.net_stats.dropped)
      .member("unroutable", r.net_stats.unroutable)
      .member("events", r.events_executed)
      .member("fault_injected", r.fault_injected);
  w.key("ranks").begin_object();
  for (const SystemOutcome& outcome : r.systems) {
    if (outcome.system == kProbeName) continue;
    w.key(outcome.system);
    write_rank(w, outcome.rank);
  }
  w.end_object();
  const SystemOutcome* mars = r.find("mars");
  w.member("mars_telemetry_bytes",
           mars != nullptr ? mars->telemetry_bytes : std::uint64_t{0});
}

struct Span {
  std::string name;
  double ts_ms = 0.0;
  double dur_ms = 0.0;
};

/// Every wall-clock span the tracer recorded, in recording order.
std::vector<Span> wall_spans(const obs::SpanTracer& tracer) {
  std::ostringstream out;
  tracer.write_chrome_json(out);
  const obs::JsonValue doc = obs::JsonValue::parse(out.str());
  std::vector<Span> spans;
  for (const obs::JsonValue& event : doc.find("traceEvents")->items()) {
    const obs::JsonValue* ph = event.find("ph");
    const obs::JsonValue* pid = event.find("pid");
    if (ph == nullptr || ph->as_string() != "X" || pid == nullptr ||
        pid->as_int() != obs::SpanTracer::kWallPid) {
      continue;
    }
    spans.push_back({event.find("name")->as_string(),
                     event.find("ts")->as_number() / 1e3,
                     event.find("dur")->as_number() / 1e3});
  }
  return spans;
}

/// The traced pass of one trial, written as the "traced" member.
void run_traced(obs::JsonWriter& w, const Trial& trial,
                ObserverLedger& ledger, const ProbeCost& cost) {
  Observability obs;
  ScenarioConfig config = trial.config;
  config.observability = &obs;
  // One sampler tick, at t=0 before any traffic, so periodic gauge scrapes
  // stay out of the timed layers. The probe unregisters the baselines'
  // gauges, so the end-of-run snapshot reads only cheap ones.
  config.sample_period = config.duration + 1;
  // validate_scenario admits only "mars" on the sharded engine, so the
  // per-observer split exists only on the single-queue engine.
  const bool probe = config.sim.shards == 0;
  if (probe) config.systems.push_back(kProbeName);

  std::optional<ScenarioResult> result;
  {
    const auto trial_span = obs.tracer.wall_span("bench.trial", "bench");
    result = run_scenario(config);
  }

  w.key("traced").begin_object();
  write_result(w, *result);
  w.member("ticks", std::uint64_t{obs.series.rows()});
  const std::vector<Span> spans = wall_spans(obs.tracer);
  const auto trial_span =
      std::find_if(spans.begin(), spans.end(),
                   [](const Span& s) { return s.name == "bench.trial"; });
  w.member("trial_ms", trial_span->dur_ms);
  // Spans relative to the start of the trial: [name, start_ms, dur_ms].
  w.key("spans").begin_array();
  for (const Span& span : spans) {
    if (&span == &*trial_span) continue;
    w.begin_array()
        .value(span.name)
        .value(span.ts_ms - trial_span->ts_ms)
        .value(span.dur_ms)
        .end_array();
  }
  w.end_array();
  w.key("gauges").begin_object();
  for (const auto& [name, value] : obs.snapshot.gauges) {
    if (name.starts_with("sim.") || name.starts_with("mars.")) {
      w.member(name, value);
    }
  }
  w.end_object();
  if (probe) {
    w.key("observers").begin_object();
    const auto totals = ledger.totals();
    for (std::size_t i = 0; i < totals.size(); ++i) {
      w.key(ledger.names()[i])
          .begin_object()
          .member("ns", cost.observer_ns(totals[i]))
          .member("calls", totals[i].calls)
          .end_object();
    }
    w.end_object();
  } else {
    w.member_null("observers");
  }
  w.end_object();
}

// -------------------------------------------------------------- modes

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int run_setup(const Trial& trial) {
  const std::size_t threads = trial.config.sim.shards;
  const double speed_before = host_speed(threads);
  const auto t0 = Clock::now();
  const std::vector<std::string> errors = validate_scenario(trial.config);
  const double setup_s = ms_between(t0, Clock::now()) / 1e3;
  const double speed_after = host_speed(threads);
  if (!errors.empty()) {
    std::cerr << "perfbench_trial: invalid scenario: " << errors.front()
              << "\n";
    return 1;
  }
  obs::JsonWriter w(std::cout, 0);
  w.begin_object()
      .member("setup_s", setup_s)
      .member("host_ns", (speed_before + speed_after) / 2)
      .end_object();
  std::cout << "\n";
  return 0;
}

int run_setup_layers(const Trial& trial) {
  const ScenarioConfig& config = trial.config;
  const auto t0 = Clock::now();
  const net::BuiltFabric fabric =
      net::TopologyRegistry::instance().build(config.topology);
  const auto t1 = Clock::now();
  const net::RoutingTable routing(fabric.topology);
  const auto t2 = Clock::now();
  const auto registry = control::PathRegistryCache::instance().get_or_build(
      fabric.topology, routing, config.mars.pipeline.path_id);
  const auto t3 = Clock::now();
  const std::vector<std::string> errors = validate_scenario(config);
  if (!errors.empty()) {
    std::cerr << "perfbench_trial: invalid scenario: " << errors.front()
              << "\n";
    return 1;
  }
  obs::JsonWriter w(std::cout, 0);
  w.begin_object()
      .member("fabric_ms", ms_between(t0, t1))
      .member("routing_ms", ms_between(t1, t2))
      .member("registry_s", ms_between(t2, t3) / 1e3)
      .member("registry_paths", std::uint64_t{registry->path_count()})
      .end_object();
  std::cout << "\n";
  return 0;
}

int run_trials(const TrialFactory& factory, std::uint64_t rounds,
               bool trace) {
  ObserverLedger ledger;
  const ProbeCost cost = trace ? calibrate_probe() : ProbeCost{};
  if (trace) {
    SystemRegistry::instance().add(
        kProbeName, [&ledger](net::Network& network,
                              const ScenarioConfig& config,
                              Observability* obs) {
          if (obs == nullptr) {
            throw std::logic_error("bench_probe needs an Observability");
          }
          return std::make_unique<ProbeSystem>(network, config, *obs, ledger);
        });
  }
  // Set-up (fabric, routing, the cold PathID registry every trial reuses)
  // happens here, outside the timed trials; run.py times it on its own in
  // fresh processes.
  if (const auto errors = validate_scenario(factory.make(0).config);
      !errors.empty()) {
    throw std::invalid_argument("invalid scenario: " + errors.front());
  }
  const std::uint64_t trials = rounds * factory.round();
  std::uint64_t index = 0;
  for (; index < trials; ++index) {
    const Trial trial = factory.make(index);
    obs::JsonWriter w(std::cout, 0);
    w.begin_object()
        .member("trial", index)
        .member("kind", trial.kind)
        .member("seed", trial.config.seed);
    try {
      const std::size_t threads = trial.config.sim.shards;
      const double speed_before = host_speed(threads);
      const auto t0 = Clock::now();
      const ScenarioResult result = run_scenario(trial.config);
      w.member("wall_ms", ms_between(t0, Clock::now()));
      w.member("host_ns", (speed_before + host_speed(threads)) / 2);
      write_result(w, result);
      if (trace) run_traced(w, trial, ledger, cost);
    } catch (const std::exception& e) {
      w.member("error", e.what());
    }
    w.end_object();
    std::cout << "\n" << std::flush;
  }
  obs::JsonWriter w(std::cout, 0);
  w.begin_object()
      .member("trials", index)
      .member("peak_rss_mb", peak_rss_mb())
      .end_object();
  std::cout << "\n";
  return 0;
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload table1_k4|mars_k4|mars_k16_sharded"
               " [--seed N] [--rounds N] [--trace]"
               " [--setup|--setup-layers] [--spec FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<Workload> workload;
  std::uint64_t seed = 1;
  std::uint64_t rounds = 1;
  bool trace = false;
  bool setup = false;
  bool setup_layers = false;
  std::string spec_path = "perfbench/k16_sharded.json";
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      const auto next = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument("missing value");
        return argv[++i];
      };
      if (arg == "--workload") {
        workload = parse_workload(next());
        if (!workload) return usage(argv[0]);
      } else if (arg == "--seed") {
        seed = std::stoull(next());
      } else if (arg == "--rounds") {
        rounds = std::stoull(next());
      } else if (arg == "--spec") {
        spec_path = next();
      } else if (arg == "--trace") {
        trace = true;
      } else if (arg == "--setup") {
        setup = true;
      } else if (arg == "--setup-layers") {
        setup_layers = true;
      } else {
        return usage(argv[0]);
      }
    }
  } catch (const std::exception&) {
    return usage(argv[0]);
  }
  if (!workload) return usage(argv[0]);

  try {
    const TrialFactory factory(*workload, seed, spec_path);
    if (setup) return run_setup(factory.make(0));
    if (setup_layers) return run_setup_layers(factory.make(0));
    return run_trials(factory, rounds, trace);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_trial: " << e.what() << "\n";
    return 1;
  }
}
