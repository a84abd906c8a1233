#pragma once
// Engine: the one way to stand a Network up on the event engine.
//
// Every run — a scenario, a benchmark, an example, a test fixture — goes
// through the keyed sharded engine (sim/sharded.hpp), one shard unless
// asked for more. Setting it up takes five steps, and they live here:
//   1. partition the topology into `shards` groups (net/partition.hpp);
//   2. lookahead = min(control latency, the slimmest boundary link's
//      propagation); one shard has no boundary, so its lookahead is the
//      control latency;
//   3. a pool of shards - 1 workers (the thread that calls run() works the
//      last shard, so one shard needs no pool);
//   4. the ShardedSimulator over that pool;
//   5. the Network, every switch on a keyed lane of its shard's queue.
//
// The Engine owns all five and must outlive everything built on its
// network (telemetry systems, traffic generators, fault injectors).

#include <limits>
#include <memory>

#include "net/network.hpp"
#include "net/partition.hpp"
#include "net/topology.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/sharded.hpp"
#include "sim/time.hpp"

namespace mars::net {

struct EngineConfig {
  /// Event-queue shards, in [1, partition_capacity(topology)].
  int shards = 1;
  /// Virtual-time delay of a data-plane -> controller notification; also
  /// the ceiling of the conservative lookahead window.
  sim::Time control_latency = 1 * sim::kMillisecond;
};

class Engine {
 public:
  explicit Engine(Topology topology, EngineConfig config = {});
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] Network& network() { return network_; }
  [[nodiscard]] sim::ShardedSimulator& sim() { return sim_; }
  /// The control-plane domain (controller polls, samplers, fault
  /// lambdas); its events run between windows, when no shard is running.
  [[nodiscard]] sim::Simulator& global() { return sim_.global(); }
  [[nodiscard]] sim::Time now() { return sim_.global().now(); }

  /// Run every queue to `until` inclusive (by default, until all are
  /// empty).
  void run(sim::Time until = std::numeric_limits<sim::Time>::max()) {
    sim_.run(until);
  }

 private:
  Partition partition_;
  std::unique_ptr<parallel::ThreadPool> pool_;
  sim::ShardedSimulator sim_;
  Network network_;
};

}  // namespace mars::net
