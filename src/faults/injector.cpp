#include "faults/injector.hpp"

#include <algorithm>
#include <cstdio>

#include "control/channel.hpp"
#include "faults/schedule.hpp"
#include "obs/event_log.hpp"
#include "obs/registry.hpp"

namespace mars::faults {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kMicroBurst: return "micro-burst";
    case FaultKind::kEcmpImbalance: return "ecmp-imbalance";
    case FaultKind::kProcessRateDecrease: return "process-rate-decrease";
    case FaultKind::kDelay: return "delay";
    case FaultKind::kDrop: return "drop";
    case FaultKind::kNotificationLoss: return "notification-loss";
    case FaultKind::kReadOutage: return "read-outage";
    case FaultKind::kLinkFlap: return "link-flap";
    case FaultKind::kSlowDrain: return "slow-drain";
    case FaultKind::kAsymmetricLoss: return "asymmetric-loss";
    case FaultKind::kLoadGatedDelay: return "load-gated-delay";
  }
  return "?";
}

std::string GroundTruth::describe() const {
  std::string out = to_string(kind);
  if (is_telemetry_fault(kind)) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " severity %.2f", severity);
    out += buf;
  } else if (kind == FaultKind::kMicroBurst) {
    out += " flow " + net::to_string(flow);
  } else {
    out += " @ s" + std::to_string(switch_id);
    if (kind != FaultKind::kEcmpImbalance) {
      out += " port " + std::to_string(port);
    }
    if (is_gray_fault(kind) && windows_total > 0) {
      char buf[48];
      std::snprintf(buf, sizeof(buf), " manifested %u/%u windows",
                    windows_active, windows_total);
      out += buf;
    }
  }
  return out;
}

FaultInjector::FaultInjector(net::Network& network,
                             workload::TrafficGenerator& traffic,
                             std::uint64_t seed, InjectorConfig config,
                             obs::Context obs)
    : network_(&network), traffic_(&traffic), rng_(seed), config_(config),
      skipped_(obs.metrics != nullptr
                   ? &obs.metrics->counter("faults.skipped")
                   : nullptr),
      log_(obs.log) {}

std::optional<GroundTruth> FaultInjector::inject(FaultKind kind,
                                                 sim::Time at) {
  FaultEvent event;
  event.kind = kind;
  event.at = at;
  return inject(event);
}

std::optional<GroundTruth> FaultInjector::inject(const FaultEvent& event) {
  const sim::Time duration =
      event.duration > 0 ? event.duration : config_.duration;
  std::optional<GroundTruth> truth;
  switch (event.kind) {
    case FaultKind::kMicroBurst:
      truth = inject_micro_burst(event.at, duration);
      break;
    case FaultKind::kEcmpImbalance:
      truth = inject_ecmp(event.at, duration, event.target_switch);
      break;
    case FaultKind::kProcessRateDecrease:
    case FaultKind::kDelay:
    case FaultKind::kDrop:
      truth = inject_port_fault(event.kind, event.at, duration,
                                event.target_switch, event.target_port);
      break;
    case FaultKind::kNotificationLoss:
    case FaultKind::kReadOutage:
      truth = inject_telemetry(event.kind, event.at, duration);
      break;
    case FaultKind::kLinkFlap:
    case FaultKind::kSlowDrain:
    case FaultKind::kAsymmetricLoss:
    case FaultKind::kLoadGatedDelay:
      truth = inject_gray(event.kind, event.at, duration, event.target_switch,
                          event.target_port, event.gray);
      break;
  }
  if (truth) {
    history_.push_back(*truth);
    if (log_ != nullptr) {
      log_->log(obs::LogLevel::kInfo, event.at, "injector", "fault_injected",
                {{"kind", to_string(event.kind)},
                 {"truth", truth->describe()}});
    }
  } else {
    note_skipped(event.kind, event.at);
  }
  return truth;
}

void FaultInjector::note_skipped(FaultKind kind, sim::Time at) {
  if (skipped_ != nullptr) skipped_->inc();
  if (log_ != nullptr) {
    log_->log(obs::LogLevel::kWarn, at, "injector", "fault_skipped",
              {{"kind", to_string(kind)}});
  }
  std::fprintf(stderr,
               "warning: %s injection at %.3fs found no viable target; "
               "trial runs without this fault\n",
               to_string(kind), sim::to_seconds(at));
}

std::optional<GroundTruth> FaultInjector::inject_telemetry(
    FaultKind kind, sim::Time at, sim::Time duration) {
  if (channel_ == nullptr) return std::nullopt;
  GroundTruth truth;
  truth.kind = kind;
  truth.start = at;
  truth.duration = duration;
  if (kind == FaultKind::kNotificationLoss) {
    truth.severity = rng_.uniform(config_.telemetry_loss_min,
                                  config_.telemetry_loss_max);
    channel_->schedule_degradation(
        control::ControlChannel::Dial::kNotificationLoss, truth.severity, at,
        duration);
  } else {
    truth.severity =
        rng_.uniform(config_.read_outage_min, config_.read_outage_max);
    channel_->schedule_degradation(control::ControlChannel::Dial::kReadFailure,
                                   truth.severity, at, duration);
  }
  return truth;
}

std::vector<std::optional<GroundTruth>> FaultInjector::apply(
    const FaultSchedule& schedule) {
  std::vector<std::optional<GroundTruth>> truths;
  truths.reserve(schedule.events.size());
  for (const FaultEvent& event : schedule.events) {
    truths.push_back(inject(event));
  }
  return truths;
}

std::optional<FaultInjector::LoadedPath>
FaultInjector::random_loaded_path(sim::Time when) {
  const auto& flows = traffic_->flows();
  if (flows.empty()) return std::nullopt;
  // Draw only among flows alive at the injection time, so a late event on
  // a long schedule cannot land on a port whose traffic already finished
  // (a vacuous trial that grades like a miss). When every flow is alive —
  // the default background matrix runs for the whole trial — the draw is
  // bit-identical to the historical unfiltered one.
  std::vector<std::size_t> alive;
  alive.reserve(flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (flows[i].start <= when && when < flows[i].stop) alive.push_back(i);
  }
  if (alive.empty()) return std::nullopt;
  const auto& spec = flows[alive[rng_.below(alive.size())]];
  LoadedPath path;
  path.spec = &spec;
  net::SwitchId at = spec.flow.source;
  // Follow the same deterministic ECMP decisions the flow's packets take.
  for (int guard = 0; guard < 16 && at != spec.flow.sink; ++guard) {
    net::PortId out = 0;
    if (!network_->routing().select_port(at, spec.flow.sink, spec.flow_hash,
                                         out)) {
      return std::nullopt;
    }
    path.hops.push_back(LoadedHop{at, out});
    at = network_->topology().peer(at, out).neighbor;
  }
  if (path.hops.empty()) return std::nullopt;
  return path;
}

std::optional<GroundTruth> FaultInjector::inject_micro_burst(
    sim::Time at, sim::Time duration) {
  const auto& flows = traffic_->flows();
  if (flows.empty()) return std::nullopt;
  // Burst between a random pair already present in the traffic matrix so
  // the latency impact lands on active background flows.
  const auto& victim = flows[rng_.below(flows.size())];
  GroundTruth truth;
  truth.kind = FaultKind::kMicroBurst;
  truth.flow = victim.flow;
  truth.start = at;
  truth.duration = duration;
  traffic_->add_burst(victim.flow, config_.burst_pps, at, duration);
  return truth;
}

void FaultInjector::schedule_ecmp_skew(net::SwitchId chooser,
                                       std::uint32_t ratio, sim::Time at,
                                       sim::Time duration) {
  auto& sim = network_->simulator();
  sim.schedule_at(at, [this, chooser, ratio] {
    for (net::SwitchId dst = 0; dst < network_->switch_count(); ++dst) {
      auto& group = network_->routing().mutable_group(chooser, dst);
      if (group.members.size() < 2) continue;
      for (std::size_t m = 0; m < group.members.size(); ++m) {
        group.members[m].weight = (m == 0) ? 1 : ratio;
      }
    }
  });
  sim.schedule_at(at + duration, [this, chooser] {
    for (net::SwitchId dst = 0; dst < network_->switch_count(); ++dst) {
      auto& group = network_->routing().mutable_group(chooser, dst);
      for (auto& member : group.members) member.weight = 1;
    }
  });
}

std::optional<GroundTruth> FaultInjector::inject_ecmp(
    sim::Time at, sim::Time duration, std::optional<net::SwitchId> target) {
  if (target) {
    // Pinned chooser: skew it whether or not a live flow routes through
    // it — the operator asked for this exact switch.
    const auto ratio = static_cast<std::uint32_t>(
        rng_.range(config_.imbalance_min, config_.imbalance_max));
    GroundTruth truth;
    truth.kind = FaultKind::kEcmpImbalance;
    truth.switch_id = *target;
    truth.start = at;
    truth.duration = duration;
    schedule_ecmp_skew(*target, ratio, at, duration);
    return truth;
  }
  // Pick a switch on a loaded path that has a real choice (group >= 2)
  // towards that flow's destination, then skew every group on the switch —
  // the paper rewrites the switch's ECMP strategy wholesale.
  for (int attempt = 0; attempt < 32; ++attempt) {
    const auto path = random_loaded_path(at);
    if (!path) return std::nullopt;
    // The chooser is the first hop on a loaded path that has a real
    // alternative towards that flow's destination — the switch whose skew
    // actually redirects live traffic (the paper's s9 in Fig. 6).
    net::SwitchId chooser = net::kInvalidSwitch;
    for (const auto& hop : path->hops) {
      if (network_->routing()
              .group(hop.sw, path->spec->flow.sink)
              .members.size() >= 2) {
        chooser = hop.sw;
        break;
      }
    }
    if (chooser == net::kInvalidSwitch) continue;
    const auto ratio = static_cast<std::uint32_t>(
        rng_.range(config_.imbalance_min, config_.imbalance_max));

    GroundTruth truth;
    truth.kind = FaultKind::kEcmpImbalance;
    truth.switch_id = chooser;
    truth.start = at;
    truth.duration = duration;
    schedule_ecmp_skew(chooser, ratio, at, duration);
    return truth;
  }
  return std::nullopt;
}

std::optional<GroundTruth> FaultInjector::inject_port_fault(
    FaultKind kind, sim::Time at, sim::Time duration,
    std::optional<net::SwitchId> target_switch,
    std::optional<net::PortId> target_port) {
  GroundTruth truth;
  truth.kind = kind;
  truth.start = at;
  truth.duration = duration;
  if (target_switch) {
    if (*target_switch >= network_->switch_count()) return std::nullopt;
    const auto ports = network_->topology().port_count(*target_switch);
    truth.switch_id = *target_switch;
    truth.port = target_port ? *target_port : 0;
    if (truth.port >= ports) return std::nullopt;
  } else {
    const auto path = random_loaded_path(at);
    if (!path) return std::nullopt;
    const auto& hop = path->hops[rng_.below(path->hops.size())];
    truth.switch_id = hop.sw;
    truth.port = hop.out;
  }

  auto& sim = network_->simulator();
  net::Switch& sw = network_->node(truth.switch_id);
  const net::PortId port = truth.port;
  switch (kind) {
    case FaultKind::kProcessRateDecrease: {
      const double pps =
          rng_.uniform(config_.process_rate_min, config_.process_rate_max);
      sim.schedule_at(at, [&sw, port, pps] { sw.set_max_pps(port, pps); });
      // Targeted recovery (not clear_faults): with overlapping faults on
      // one switch, recovering this fault must not erase the others.
      sim.schedule_at(at + duration,
                      [&sw, port] { sw.set_max_pps(port, 0.0); });
      break;
    }
    case FaultKind::kDelay: {
      const auto delay = static_cast<sim::Time>(
          rng_.range(config_.delay_min, config_.delay_max));
      sim.schedule_at(at,
                      [&sw, port, delay] { sw.set_extra_delay(port, delay); });
      sim.schedule_at(at + duration,
                      [&sw, port] { sw.set_extra_delay(port, 0); });
      break;
    }
    case FaultKind::kDrop: {
      const double p =
          rng_.uniform(config_.drop_prob_min, config_.drop_prob_max);
      sim.schedule_at(at,
                      [&sw, port, p] { sw.set_drop_probability(port, p); });
      sim.schedule_at(at + duration,
                      [&sw, port] { sw.set_drop_probability(port, 0.0); });
      break;
    }
    default:
      return std::nullopt;
  }
  return truth;
}

std::optional<GroundTruth> FaultInjector::inject_gray(
    FaultKind kind, sim::Time at, sim::Time duration,
    std::optional<net::SwitchId> target_switch,
    std::optional<net::PortId> target_port, const GrayParams& gray) {
  GroundTruth truth;
  truth.kind = kind;
  truth.start = at;
  truth.duration = duration;
  if (target_switch) {
    if (*target_switch >= network_->switch_count()) return std::nullopt;
    const auto ports = network_->topology().port_count(*target_switch);
    truth.switch_id = *target_switch;
    truth.port = target_port ? *target_port : 0;
    if (truth.port >= ports) return std::nullopt;
  } else {
    const auto path = random_loaded_path(at);
    if (!path) return std::nullopt;
    const auto& hop = path->hops[rng_.below(path->hops.size())];
    truth.switch_id = hop.sw;
    truth.port = hop.out;
  }

  auto& sim = network_->simulator();
  net::Switch& sw = network_->node(truth.switch_id);
  const net::PortId port = truth.port;

  GrayWatch watch;
  watch.kind = kind;
  watch.truth_index = history_.size();  // inject() pushes right after us
  watch.ports.emplace_back(truth.switch_id, port);

  switch (kind) {
    case FaultKind::kLinkFlap: {
      const double mean_up =
          gray.flap_mean_up_ms.value_or(config_.flap_mean_up_ms);
      const double mean_down =
          gray.flap_mean_down_ms.value_or(config_.flap_mean_down_ms);
      const auto port_count = network_->topology().port_count(truth.switch_id);
      const int fanout =
          std::clamp(gray.flap_fanout.value_or(config_.flap_fanout), 1,
                     static_cast<int>(port_count));
      // Correlated set: the loaded primary port plus the next ascending
      // port indices of the same switch (a shared-component failure).
      std::vector<net::PortId> flapped;
      for (int i = 0; i < fanout; ++i) {
        flapped.push_back(static_cast<net::PortId>(
            (port + static_cast<net::PortId>(i)) % port_count));
      }
      // The whole Gilbert–Elliott timeline is drawn here, at injection
      // time, from the injector's own stream: transitions are then plain
      // scheduled events, bit-identical at every thread/shard count. The
      // process starts up; entries alternate down, up, down, up, ...
      const sim::Time end = at + duration;
      sim::Time t = at;
      bool down = false;
      while (true) {
        const double mean_ms = down ? mean_down : mean_up;
        t += static_cast<sim::Time>(
            rng_.exponential(1.0 / mean_ms) *
            static_cast<double>(sim::kMillisecond));
        if (t >= end) break;
        down = !down;
        truth.flap_transitions.push_back(t);
      }
      bool to_down = true;
      for (const sim::Time when : truth.flap_transitions) {
        // A flapped-down link drops everything: p = 1 short-circuits the
        // per-packet RNG draw in Switch::enqueue, so flapping perturbs no
        // other stochastic stream.
        const double p = to_down ? 1.0 : 0.0;
        for (const net::PortId fp : flapped) {
          sim.schedule_at(when,
                          [&sw, fp, p] { sw.set_drop_probability(fp, p); });
        }
        to_down = !to_down;
      }
      for (const net::PortId fp : flapped) {
        sim.schedule_at(end,
                        [&sw, fp] { sw.set_drop_probability(fp, 0.0); });
      }
      truth.severity = mean_down / (mean_up + mean_down);  // duty cycle
      watch.ports.clear();
      for (const net::PortId fp : flapped) {
        watch.ports.emplace_back(truth.switch_id, fp);
      }
      break;
    }
    case FaultKind::kSlowDrain: {
      const double us = gray.drain_us_per_pkt
                            ? *gray.drain_us_per_pkt
                            : rng_.uniform(config_.slow_drain_min_us,
                                           config_.slow_drain_max_us);
      const auto per_pkt = static_cast<sim::Time>(
          us * static_cast<double>(sim::kMicrosecond));
      sim.schedule_at(at, [&sw, port, per_pkt] {
        sw.set_slow_drain(port, per_pkt);
      });
      sim.schedule_at(at + duration,
                      [&sw, port] { sw.set_slow_drain(port, 0); });
      truth.severity = us;
      break;
    }
    case FaultKind::kAsymmetricLoss: {
      const double fwd =
          gray.loss_fwd ? *gray.loss_fwd
                        : rng_.uniform(config_.asym_loss_min,
                                       config_.asym_loss_max);
      const double rev = gray.loss_rev.value_or(0.0);
      sim.schedule_at(at, [&sw, port, fwd] {
        sw.set_drop_probability(port, fwd);
      });
      sim.schedule_at(at + duration,
                      [&sw, port] { sw.set_drop_probability(port, 0.0); });
      if (rev > 0.0) {
        // Reverse direction: the peer switch's egress back towards us.
        const auto peer = network_->topology().peer(truth.switch_id, port);
        net::Switch& psw = network_->node(peer.neighbor);
        const net::PortId pp = peer.neighbor_port;
        sim.schedule_at(at, [&psw, pp, rev] {
          psw.set_drop_probability(pp, rev);
        });
        sim.schedule_at(at + duration,
                        [&psw, pp] { psw.set_drop_probability(pp, 0.0); });
        watch.ports.emplace_back(peer.neighbor, pp);
      }
      truth.severity = fwd;
      break;
    }
    case FaultKind::kLoadGatedDelay: {
      const auto delay =
          gray.gate_delay_ms
              ? static_cast<sim::Time>(
                    *gray.gate_delay_ms *
                    static_cast<double>(sim::kMillisecond))
              : static_cast<sim::Time>(
                    rng_.range(config_.delay_min, config_.delay_max));
      const std::uint32_t depth = gray.gate_depth.value_or(config_.gate_depth);
      sim.schedule_at(at, [&sw, port, delay, depth] {
        sw.set_gated_delay(port, delay, depth);
      });
      sim.schedule_at(at + duration,
                      [&sw, port] { sw.set_gated_delay(port, 0, 0); });
      truth.severity = sim::to_seconds(delay);
      break;
    }
    default:
      return std::nullopt;
  }

  watches_.push_back(std::move(watch));
  schedule_probes(watches_.size() - 1, at, duration);
  return truth;
}

std::uint64_t FaultInjector::gray_counter_sum(const GrayWatch& watch) const {
  std::uint64_t sum = 0;
  for (const auto& [sw_id, port] : watch.ports) {
    const net::PortCounters& c = network_->node(sw_id).counters(port);
    switch (watch.kind) {
      case FaultKind::kLinkFlap:
      case FaultKind::kAsymmetricLoss:
        sum += c.fault_drops;
        break;
      case FaultKind::kSlowDrain:
        sum += c.drain_penalties;
        break;
      case FaultKind::kLoadGatedDelay:
        sum += c.gated_delays;
        break;
      default:
        break;
    }
  }
  return sum;
}

void FaultInjector::schedule_probes(std::size_t watch_index, sim::Time at,
                                    sim::Time duration) {
  // Probes run on the control-plane simulator: its events execute
  // between conservative windows with every shard quiescent, so
  // reading PortCounters here is race-free (same contract the fault
  // mutations above rely on).
  auto& sim = network_->simulator();
  sim.schedule_at(at, [this, watch_index] {
    watches_[watch_index].last = gray_counter_sum(watches_[watch_index]);
  });
  const sim::Time window = std::max<sim::Time>(config_.manifestation_window,
                                               1 * sim::kMillisecond);
  for (sim::Time t = at + window; t < at + duration; t += window) {
    sim.schedule_at(t, [this, watch_index] { probe_window(watch_index); });
  }
  sim.schedule_at(at + duration,
                  [this, watch_index] { probe_window(watch_index); });
}

void FaultInjector::probe_window(std::size_t watch_index) {
  GrayWatch& watch = watches_[watch_index];
  const std::uint64_t sum = gray_counter_sum(watch);
  GroundTruth& truth = history_[watch.truth_index];
  ++truth.windows_total;
  if (sum > watch.last) ++truth.windows_active;
  watch.last = sum;
  truth.manifestation_ratio =
      static_cast<double>(truth.windows_active) /
      static_cast<double>(truth.windows_total);
}

}  // namespace mars::faults
