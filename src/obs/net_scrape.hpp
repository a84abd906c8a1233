#pragma once
// Promote substrate state (Simulator + Network/Switch PortCounters) onto a
// MetricsRegistry as lazy gauges, so benches and tests read named metrics
// from one place instead of reaching into `ports_[port].counters`
// piecemeal.
//
// All gauges are lazy: registering them costs nothing on the packet hot
// path; the counters they read are the ones Switch already maintains.
// The network must outlive the gauges — call
// MetricsRegistry::remove_gauges() (or snapshot first) before tearing the
// network down.

#include <string>

#include "net/network.hpp"
#include "obs/registry.hpp"

namespace mars::obs {

struct ScrapeOptions {
  std::string prefix = "net.";
  /// Per-port gauges: {prefix}sw{S}.p{P}.{tx_packets,tx_bytes,drops,
  /// busy_s,queue_depth} plus per-switch {prefix}sw{S}.queue_depth totals.
  bool per_port = true;
  /// Per-link-direction utilization gauges:
  ///   {prefix}link.{edge|core}.{upstream}-{downstream}.util
  /// classified like Fig. 2: a link touching an edge switch belongs to the
  /// edge layer, anything else to the core.
  bool link_utilization = true;
  /// Simulator + aggregate NetworkStats gauges under "sim." / {prefix}:
  /// every "sim.*" gauge — event queues, packet pool, PDES windows and
  /// stalls, mailboxes, and sim.shard.N.{events,busy_windows,
  /// busy_fraction,max_window_events} per shard.
  bool totals = true;
};

/// Register gauges over `network` (and its simulator). Gauge names are
/// deterministic for a given topology.
void scrape_network(net::Network& network, MetricsRegistry& registry,
                    const ScrapeOptions& options = {});

}  // namespace mars::obs
