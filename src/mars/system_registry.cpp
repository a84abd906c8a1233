#include "mars/system_registry.hpp"

#include <stdexcept>
#include <utility>

#include "baselines/intsight.hpp"
#include "baselines/spidermon.hpp"
#include "baselines/syndb.hpp"
#include "mars/mars.hpp"
#include "mars/scenario.hpp"
#include "net/network.hpp"
#include "util/rng.hpp"

namespace mars {

namespace {

std::unique_ptr<systems::TelemetrySystem> make_mars(
    net::Network& network, const ScenarioConfig& config, Observability* obs) {
  MarsConfig mars_config = config.mars;
  // Mix the trial seed into the chaos stream so sweep trials decorrelate:
  // two trials that differ only in seed must see different drops.
  std::uint64_t trial_seed = config.seed;
  mars_config.channel.seed ^= util::splitmix64(trial_seed);
  // The MarsSystem constructor attaches its pipeline observer and
  // registers the "mars." gauge family itself.
  return std::make_unique<MarsSystem>(network, mars_config,
                                      trial_context(obs, config.obs));
}

/// Construct a baseline, attach it as a packet observer, and register its
/// overhead gauges when observability is on.
template <typename System>
std::unique_ptr<systems::TelemetrySystem> deploy_baseline(
    std::unique_ptr<System> system, net::Network& network,
    Observability* obs) {
  network.add_observer(*system);
  if (obs != nullptr) system->register_metrics(obs->registry);
  return system;
}

std::unique_ptr<systems::TelemetrySystem> make_spidermon(
    net::Network& network, const ScenarioConfig& config, Observability* obs) {
  return deploy_baseline(
      std::make_unique<baselines::SpiderMon>(network.switch_count(),
                                             config.spidermon),
      network, obs);
}

std::unique_ptr<systems::TelemetrySystem> make_intsight(
    net::Network& network, const ScenarioConfig& config, Observability* obs) {
  return deploy_baseline(
      std::make_unique<baselines::IntSight>(config.intsight), network, obs);
}

std::unique_ptr<systems::TelemetrySystem> make_syndb(
    net::Network& network, const ScenarioConfig& config, Observability* obs) {
  return deploy_baseline(std::make_unique<baselines::SynDb>(config.syndb),
                         network, obs);
}

}  // namespace

SystemRegistry& SystemRegistry::instance() {
  static SystemRegistry registry = [] {
    SystemRegistry r;
    r.add("mars", make_mars);
    r.add("spidermon", make_spidermon);
    r.add("intsight", make_intsight);
    r.add("syndb", make_syndb);
    return r;
  }();
  return registry;
}

void SystemRegistry::add(std::string name, Factory factory) {
  for (auto& entry : entries_) {
    if (entry.name == name) {  // re-registration replaces
      entry.factory = std::move(factory);
      return;
    }
  }
  entries_.push_back(Entry{std::move(name), std::move(factory)});
}

const SystemRegistry::Entry* SystemRegistry::find(
    std::string_view name) const {
  for (const auto& entry : entries_) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

bool SystemRegistry::contains(std::string_view name) const {
  return find(name) != nullptr;
}

std::vector<std::string> SystemRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& entry : entries_) out.push_back(entry.name);
  return out;
}

std::string SystemRegistry::known_names() const {
  std::string out;
  for (const auto& entry : entries_) {
    if (!out.empty()) out += ", ";
    out += entry.name;
  }
  return out;
}

std::unique_ptr<systems::TelemetrySystem> SystemRegistry::create(
    std::string_view name, net::Network& network,
    const ScenarioConfig& config, Observability* observability) const {
  const Entry* entry = find(name);
  if (entry == nullptr) {
    throw std::invalid_argument("unknown telemetry system '" +
                                std::string(name) +
                                "' (known: " + known_names() + ")");
  }
  return entry->factory(network, config, observability);
}

}  // namespace mars
