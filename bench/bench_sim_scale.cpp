// Sharded-simulation scale benchmark: events/sec vs shard count.
//
// Drives the conservative-lookahead engine (sim/sharded.hpp) directly —
// topology, partition, Network, background traffic — with no telemetry
// system deployed, so the measurement isolates the event loop itself:
// shard queues, the window barrier, cross-shard mailboxes. One data point
// is a multi-second simulation, so this is a plain flag-driven driver
// (like bench/run_sim_scale.sh expects), not a google-benchmark binary.
//
// The determinism invariant rides along for free: every shard count must
// execute the exact same number of events and inject the same number of
// packets as the 1-shard reference, or the binary exits nonzero.
//
// Usage:
//   bench_sim_scale [--k N] [--flows N] [--pps X] [--duration-ms N]
//                   [--propagation-us X] [--shards CSV] [--seed N]
//                   [--out FILE]
//
// Output: one JSON object with the machine's shard-count curve.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "net/engine.hpp"
#include "net/topology_registry.hpp"
#include "obs/json_writer.hpp"
#include "sim/sharded.hpp"
#include "sim/time.hpp"
#include "workload/traffic_gen.hpp"

namespace {

struct Options {
  int k = 16;
  int flows = 100'000;
  double pps = 50.0;
  int duration_ms = 300;
  double propagation_us = 10.0;
  std::vector<int> shards = {1, 2, 4, 8};
  std::uint64_t seed = 16;
  std::string out;
};

struct Point {
  int shards = 0;
  double wall_ms = 0.0;
  std::uint64_t events = 0;
  std::uint64_t injected = 0;
  mars::sim::ShardSyncStats sync;
  std::vector<mars::sim::ShardStats> shard_stats;
  mars::net::Network::MailboxStats mailbox;
};

std::vector<int> parse_csv_ints(const char* s) {
  std::vector<int> out;
  for (const char* p = s; *p != '\0';) {
    char* end = nullptr;
    out.push_back(static_cast<int>(std::strtol(p, &end, 10)));
    p = (*end == ',') ? end + 1 : end;
  }
  return out;
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: bench_sim_scale [--k N] [--flows N] [--pps X] "
               "[--duration-ms N]\n"
               "  [--propagation-us X] [--shards CSV] [--seed N] "
               "[--out FILE]\n");
  std::exit(2);
}

Point run_point(const Options& opt, int shards) {
  using mars::sim::Time;
  mars::net::TopologySpec spec;
  spec.name = "fat-tree";
  spec.k = opt.k;
  spec.edge_gbps = 10.0;
  spec.core_gbps = 40.0;
  spec.propagation =
      static_cast<Time>(opt.propagation_us * mars::sim::kMicrosecond);
  mars::net::BuiltFabric fabric =
      mars::net::TopologyRegistry::instance().build(spec);
  mars::net::Engine engine(fabric.topology, {.shards = shards});
  mars::sim::ShardedSimulator& ssim = engine.sim();
  mars::net::Network& network = engine.network();
  for (mars::net::SwitchId sw = 0; sw < network.switch_count(); ++sw) {
    network.node(sw).set_queue_capacity(4096);
  }

  mars::workload::TrafficGenerator traffic(network, opt.seed);
  mars::workload::BackgroundConfig background;
  background.flows = opt.flows;
  background.pps = opt.pps;
  traffic.add_background(background, fabric.edge, fabric.pods);
  traffic.start();

  const Time until =
      static_cast<Time>(opt.duration_ms) * mars::sim::kMillisecond;
  const auto start = std::chrono::steady_clock::now();
  ssim.run(until);
  const auto stop = std::chrono::steady_clock::now();

  Point p;
  p.shards = shards;
  p.wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  p.events = ssim.events_executed();
  p.injected = traffic.packets_injected();
  p.sync = ssim.sync_stats();
  p.shard_stats.reserve(static_cast<std::size_t>(shards));
  for (int i = 0; i < ssim.shard_count(); ++i) {
    p.shard_stats.push_back(ssim.shard_stats(i));
  }
  p.mailbox = network.mailbox_stats();
  return p;
}

void write_report(std::ostream& out, const Options& opt,
                  const std::vector<Point>& points) {
  mars::obs::JsonWriter w(out);
  w.begin_object();
  w.member("benchmark", "bench_sim_scale");
  w.key("config").begin_object();
  w.member("topology", "fat-tree");
  w.member("k", std::int64_t{opt.k});
  w.member("flows", std::int64_t{opt.flows});
  w.member("pps", opt.pps);
  w.member("duration_ms", std::int64_t{opt.duration_ms});
  w.member("propagation_us", opt.propagation_us);
  w.member("seed", opt.seed);
  w.end_object();
  w.key("points").begin_array();
  for (const Point& p : points) {
    w.begin_object();
    w.member("shards", std::int64_t{p.shards});
    w.member("wall_ms", p.wall_ms);
    w.member("events", p.events);
    w.member("events_per_sec",
             p.wall_ms > 0 ? 1e3 * static_cast<double>(p.events) / p.wall_ms
                           : 0.0);
    w.member("injected", p.injected);
    w.member("windows", p.sync.windows);
    w.member("global_rounds", p.sync.global_rounds);
    w.member("lookahead_stalls", p.sync.lookahead_stalls);
    if (p.shards != points.front().shards && points.front().wall_ms > 0) {
      w.member("speedup_vs_first",
               points.front().wall_ms / std::max(p.wall_ms, 1e-9));
    }
    // PDES profiler: window-end attribution, mailbox volume, and per-shard
    // occupancy (see sim::ShardStats). Every window end is attributed to
    // exactly one cap, so the three counters sum to "windows".
    w.key("profile").begin_object();
    w.key("window_caps").begin_object();
    w.member("lookahead_stall", p.sync.lookahead_stalls);
    w.member("global_event", p.sync.windows_capped_by_global);
    w.member("end_of_run", p.sync.windows_to_end);
    w.end_object();
    w.member("critical_path_events", p.sync.critical_path_events);
    w.key("mailbox").begin_object();
    w.member("drains", p.mailbox.drains);
    w.member("total_mail", p.mailbox.total_mail);
    w.member("max_batch", p.mailbox.max_batch);
    w.key("batch_hist").begin_array();
    for (const std::uint64_t n : p.mailbox.batch_hist) w.value(n);
    w.end_array();
    w.end_object();
    w.key("shards").begin_array();
    for (const mars::sim::ShardStats& s : p.shard_stats) {
      w.begin_object();
      w.member("windows", s.windows);
      w.member("busy_windows", s.busy_windows);
      w.member("busy_fraction", s.busy_fraction());
      w.member("window_events", s.window_events);
      w.member("max_window_events", s.max_window_events);
      w.key("window_event_hist").begin_array();
      for (const std::uint64_t n : s.window_event_hist) w.value(n);
      w.end_array();
      w.end_object();
    }
    w.end_array();
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--k") {
      opt.k = std::atoi(next());
    } else if (arg == "--flows") {
      opt.flows = std::atoi(next());
    } else if (arg == "--pps") {
      opt.pps = std::atof(next());
    } else if (arg == "--duration-ms") {
      opt.duration_ms = std::atoi(next());
    } else if (arg == "--propagation-us") {
      opt.propagation_us = std::atof(next());
    } else if (arg == "--shards") {
      opt.shards = parse_csv_ints(next());
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--out") {
      opt.out = next();
    } else {
      usage();
    }
  }
  if (opt.k < 4 || opt.flows < 1 || opt.duration_ms < 1 ||
      opt.shards.empty()) {
    usage();
  }

  std::vector<Point> points;
  points.reserve(opt.shards.size());
  for (const int shards : opt.shards) {
    std::fprintf(stderr, "bench_sim_scale: k=%d flows=%d shards=%d ... ",
                 opt.k, opt.flows, shards);
    points.push_back(run_point(opt, shards));
    const Point& p = points.back();
    std::fprintf(stderr, "%.0f ms, %llu events (%.2f M events/s)\n",
                 p.wall_ms, static_cast<unsigned long long>(p.events),
                 p.wall_ms > 0
                     ? static_cast<double>(p.events) / p.wall_ms / 1e3
                     : 0.0);
    // Determinism gate: every shard count replays the 1-shard execution.
    if (p.events != points.front().events ||
        p.injected != points.front().injected) {
      std::fprintf(stderr,
                   "bench_sim_scale: DETERMINISM VIOLATION at %d shards "
                   "(events %llu vs %llu, injected %llu vs %llu)\n",
                   shards, static_cast<unsigned long long>(p.events),
                   static_cast<unsigned long long>(points.front().events),
                   static_cast<unsigned long long>(p.injected),
                   static_cast<unsigned long long>(points.front().injected));
      return 1;
    }
  }

  if (opt.out.empty()) {
    write_report(std::cout, opt, points);
  } else {
    std::ofstream file(opt.out);
    if (!file) {
      std::fprintf(stderr, "cannot write %s\n", opt.out.c_str());
      return 1;
    }
    write_report(file, opt, points);
  }
  return 0;
}
