#include "net/engine.hpp"

#include <algorithm>
#include <cstddef>
#include <utility>

namespace mars::net {

namespace {

sim::ShardedConfig engine_config(const EngineConfig& config,
                                 const Partition& partition) {
  sim::ShardedConfig out;
  out.shards = config.shards;
  out.control_latency = config.control_latency;
  // Lookahead: the fastest path between shards — the slimmest boundary
  // link, capped by the control latency (post_control requires
  // control_latency >= lookahead).
  out.lookahead = config.control_latency;
  if (!partition.boundary_links.empty()) {
    out.lookahead =
        std::min(out.lookahead, partition.min_boundary_propagation);
  }
  return out;
}

}  // namespace

Engine::Engine(Topology topology, EngineConfig config)
    : partition_(partition_topology(topology, config.shards)),
      // ThreadPool(0) would mean one worker per core, so one shard gets
      // no pool at all.
      pool_(config.shards > 1 ? std::make_unique<parallel::ThreadPool>(
                                    static_cast<std::size_t>(
                                        config.shards - 1))
                              : nullptr),
      sim_(pool_.get(), engine_config(config, partition_)),
      network_(sim_, std::move(topology), partition_) {}

}  // namespace mars::net
