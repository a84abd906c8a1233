#include "obs/net_scrape.hpp"

#include <algorithm>
#include <cstdint>

#include "sim/sharded.hpp"

namespace mars::obs {

namespace {

/// Utilization of one egress port since t=0: busy_time / elapsed.
double port_utilization(net::Network& network, net::SwitchId sw,
                        net::PortId port) {
  const sim::Time now = network.simulator().now();
  if (now <= 0) return 0.0;
  return static_cast<double>(network.node(sw).counters(port).busy_time) /
         static_cast<double>(now);
}

/// `count` summed over the global queue and every shard queue.
template <typename Count>
std::uint64_t sum_over_queues(net::Network& network, Count count) {
  sim::ShardedSimulator& pdes = network.pdes();
  std::uint64_t total = count(pdes.global());
  for (int i = 0; i < pdes.shard_count(); ++i) total += count(pdes.shard(i));
  return total;
}

}  // namespace

void scrape_network(net::Network& network, MetricsRegistry& registry,
                    const ScrapeOptions& options) {
  const std::string& p = options.prefix;

  if (options.totals) {
    registry.gauge("sim.events_executed", [&network] {
      return static_cast<double>(network.pdes().events_executed());
    });
    registry.gauge("sim.time_s", [&network] {
      return sim::to_seconds(network.simulator().now());
    });
    registry.gauge("sim.event_queue_depth", [&network] {
      // Live scheduled events: every shard queue plus the global/control
      // queue. Undrained cross-shard mail is one pending hop event each.
      return static_cast<double>(
          sum_over_queues(network,
                          [](sim::Simulator& q) {
                            return std::uint64_t{q.pending_events()};
                          }) +
          network.undrained_mail());
    });
    // Event-queue traffic: schedule calls that sifted into a heap vs.
    // appended to a fixed-delay FIFO lane, over every queue. A pure
    // function of (spec, seed, shards): cross-shard mail uses the heap.
    registry.gauge("sim.queue.heap_pushes", [&network] {
      return static_cast<double>(sum_over_queues(
          network, [](sim::Simulator& q) { return q.heap_pushes(); }));
    });
    registry.gauge("sim.queue.lane_pushes", [&network] {
      return static_cast<double>(sum_over_queues(
          network, [](sim::Simulator& q) { return q.lane_pushes(); }));
    });
    registry.gauge("sim.packet_pool.in_flight", [&network] {
      // Every packet in the network — queued, in service, or on a link.
      // Undrained cross-shard mail is in flight too, just not pooled yet.
      return static_cast<double>(network.pool_in_flight() +
                                 network.undrained_mail());
    });
    registry.gauge("sim.packet_pool.peak", [&network] {
      return static_cast<double>(network.pool_peak_in_flight());
    });
    // The engine's windows, barriers and mailboxes, and each shard's work.
    sim::ShardedSimulator& pdes = network.pdes();
    registry.gauge("sim.shards", [&pdes] {
      return static_cast<double>(pdes.shard_count());
    });
    registry.gauge("sim.windows", [&pdes] {
      return static_cast<double>(pdes.sync_stats().windows);
    });
    registry.gauge("sim.global_rounds", [&pdes] {
      return static_cast<double>(pdes.sync_stats().global_rounds);
    });
    registry.gauge("sim.lookahead_stalls", [&pdes] {
      return static_cast<double>(pdes.sync_stats().lookahead_stalls);
    });
    registry.gauge("sim.windows_capped_by_global", [&pdes] {
      return static_cast<double>(pdes.sync_stats().windows_capped_by_global);
    });
    registry.gauge("sim.windows_to_end", [&pdes] {
      return static_cast<double>(pdes.sync_stats().windows_to_end);
    });
    registry.gauge("sim.critical_path_events", [&pdes] {
      return static_cast<double>(pdes.sync_stats().critical_path_events);
    });
    registry.gauge("sim.mailbox.drains", [&network] {
      return static_cast<double>(network.mailbox_stats().drains);
    });
    registry.gauge("sim.mailbox.mail", [&network] {
      return static_cast<double>(network.mailbox_stats().total_mail);
    });
    registry.gauge("sim.mailbox.max_batch", [&network] {
      return static_cast<double>(network.mailbox_stats().max_batch);
    });
    for (int i = 0; i < pdes.shard_count(); ++i) {
      const std::string sp = "sim.shard." + std::to_string(i) + ".";
      registry.gauge(sp + "events", [&pdes, i] {
        return static_cast<double>(pdes.shard(i).events_executed());
      });
      registry.gauge(sp + "busy_windows", [&pdes, i] {
        return static_cast<double>(pdes.shard_stats(i).busy_windows);
      });
      registry.gauge(sp + "busy_fraction", [&pdes, i] {
        return pdes.shard_stats(i).busy_fraction();
      });
      registry.gauge(sp + "max_window_events", [&pdes, i] {
        return static_cast<double>(pdes.shard_stats(i).max_window_events);
      });
    }
    registry.gauge(p + "injected", [&network] {
      return static_cast<double>(network.stats().injected);
    });
    registry.gauge(p + "delivered", [&network] {
      return static_cast<double>(network.stats().delivered);
    });
    registry.gauge(p + "dropped", [&network] {
      return static_cast<double>(network.stats().dropped);
    });
    registry.gauge(p + "unroutable", [&network] {
      return static_cast<double>(network.stats().unroutable);
    });
    registry.gauge(p + "queue_depth_total", [&network] {
      std::uint64_t total = 0;
      for (net::SwitchId sw = 0; sw < network.switch_count(); ++sw) {
        total += network.node(sw).total_queue_depth();
      }
      return static_cast<double>(total);
    });
  }

  if (options.per_port) {
    for (net::SwitchId sw = 0; sw < network.switch_count(); ++sw) {
      const std::string sw_prefix = p + "sw" + std::to_string(sw) + ".";
      registry.gauge(sw_prefix + "queue_depth", [&network, sw] {
        return static_cast<double>(network.node(sw).total_queue_depth());
      });
      const std::size_t ports = network.node(sw).port_count();
      for (net::PortId port = 0; port < ports; ++port) {
        const std::string pp =
            sw_prefix + "p" + std::to_string(port) + ".";
        registry.gauge(pp + "tx_packets", [&network, sw, port] {
          return static_cast<double>(
              network.node(sw).counters(port).tx_packets);
        });
        registry.gauge(pp + "tx_bytes", [&network, sw, port] {
          return static_cast<double>(
              network.node(sw).counters(port).tx_bytes);
        });
        registry.gauge(pp + "drops", [&network, sw, port] {
          return static_cast<double>(network.node(sw).counters(port).drops);
        });
        registry.gauge(pp + "busy_s", [&network, sw, port] {
          return sim::to_seconds(network.node(sw).counters(port).busy_time);
        });
        registry.gauge(pp + "queue_depth", [&network, sw, port] {
          return static_cast<double>(network.node(sw).queue_depth(port));
        });
      }
    }
  }

  if (options.link_utilization) {
    const auto& topo = network.topology();
    for (std::size_t i = 0; i < topo.links().size(); ++i) {
      const net::Link& link = topo.links()[i];
      // Fig. 2's classification: a link with an edge-switch endpoint is an
      // edge link; everything else belongs to the core.
      const bool touches_edge =
          topo.layer(link.a.sw) == net::Layer::kEdge ||
          topo.layer(link.b.sw) == net::Layer::kEdge;
      const char* klass = touches_edge ? "edge" : "core";
      for (const net::LinkEnd& end : {link.a, link.b}) {
        const net::LinkEnd& other = end.sw == link.a.sw ? link.b : link.a;
        const std::string name = p + "link." + klass + "." +
                                 std::to_string(end.sw) + "-" +
                                 std::to_string(other.sw) + ".util";
        const net::SwitchId sw = end.sw;
        const net::PortId port = end.port;
        registry.gauge(name, [&network, sw, port] {
          return port_utilization(network, sw, port);
        });
      }
    }
  }
}

}  // namespace mars::obs
