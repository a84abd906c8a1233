#include "control/path_registry_cache.hpp"

namespace mars::control {

PathRegistryCache& PathRegistryCache::instance() {
  static PathRegistryCache cache;
  return cache;
}

std::shared_ptr<const PathRegistry> PathRegistryCache::get_or_build(
    const net::Topology& topology, const net::RoutingTable& routing,
    telemetry::PathIdConfig config) {
  const Key key{net::structural_fingerprint(topology), config.hash,
                config.width_bits};
  // Building under the lock intentionally serializes concurrent first
  // builds of the same key: one thread pays the build, the rest block
  // briefly and share the result instead of duplicating the most
  // expensive setup step in the process.
  std::lock_guard<std::mutex> lock(mu_);
  if (const auto it = entries_.find(key); it != entries_.end()) {
    ++stats_.hits;
    return it->second;
  }
  ++stats_.misses;
  auto registry =
      std::make_shared<const PathRegistry>(topology, routing, config);
  entries_.emplace(key, registry);
  return registry;
}

PathRegistryCacheStats PathRegistryCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void PathRegistryCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  stats_ = {};
}

}  // namespace mars::control
