#include "control/controller.hpp"

#include <algorithm>

#include "sim/simulator.hpp"

namespace mars::control {

Controller::Controller(net::Network& network,
                       dataplane::MarsPipeline& pipeline,
                       ControllerConfig config, obs::Context obs)
    : network_(&network), pipeline_(&pipeline), config_(config), obs_(obs) {}

std::vector<net::SwitchId> Controller::edge_switches() const {
  return network_->topology().switches_in_layer(net::Layer::kEdge);
}

ControlChannel::ReadResult Controller::read_ring(net::SwitchId sw) {
  if (channel_ != nullptr) return channel_->read_ring(sw);
  ControlChannel::ReadResult result;
  result.ok = true;
  result.records = pipeline_->ring_snapshot(sw);
  return result;
}

void Controller::start() {
  network_->simulator().schedule_in(config_.poll_interval, [this] {
    poll_once();
    start();  // reschedule
  });
}

void Controller::poll_once() {
  const sim::Time now = network_->simulator().now();
  auto span = obs_.wall_span("controller.poll", "control");
  std::uint64_t samples = 0;
  for (const net::SwitchId sw : edge_switches()) {
    auto read = read_ring(sw);
    if (!read.ok) {
      // Stale-threshold fallback: keep the thresholds we have and leave
      // the watermark untouched, so the records we missed are picked up
      // by the next successful poll instead of silently skipped.
      ++overheads_.poll_reads_failed;
      if (obs_.log != nullptr) {
        obs_.log->log(obs::LogLevel::kWarn, now, "controller",
                      "poll_read_failed", {{"switch", std::uint64_t{sw}}});
      }
      continue;
    }
    const sim::Time watermark =
        poll_watermark_.count(sw) ? poll_watermark_[sw] : -1;
    for (const auto& rec : read.records) {
      if (rec.sink_timestamp <= watermark) continue;
      overheads_.poll_bytes += config_.poll_sample_bytes;
      ++samples;
      if (!plausible_record(rec, now)) {
        // Corrupt latency samples must not steer the dynamic thresholds.
        ++overheads_.records_quarantined;
        if (obs_.log != nullptr) {
          obs_.log->log(obs::LogLevel::kWarn, now, "controller",
                        "poll_record_quarantined",
                        {{"switch", std::uint64_t{sw}}});
        }
        continue;
      }
      auto [it, inserted] = reservoirs_.try_emplace(
          rec.flow, config_.reservoir, reservoir_seed_++);
      it->second.input(static_cast<double>(rec.latency));
      if (it->second.warmed_up()) {
        pipeline_->set_threshold(
            rec.flow, static_cast<sim::Time>(it->second.threshold()));
      }
    }
    poll_watermark_[sw] = now;
  }
  if (span) span->arg({"samples", samples});
}

void Controller::on_notification(const dataplane::Notification& n) {
  ++overheads_.notifications_seen;
  const sim::Time now = network_->simulator().now();
  if (collection_pending_) {
    // A collection is already scheduled: fold this notification into it.
    pending_.push_back(n);
    if (obs_.tracer != nullptr) {
      obs_.tracer->instant("controller.fold_into_pending", "control", now,
                           {{"kind", dataplane::kind_name(n.kind)}});
    }
    if (obs_.log != nullptr) {
      obs_.log->log(obs::LogLevel::kDebug, now, "controller",
                    "fold_into_pending",
                    {{"kind", dataplane::kind_name(n.kind)}});
    }
    return;
  }
  if (last_response_ >= 0 && now - last_response_ < config_.response_window) {
    ++overheads_.notifications_suppressed;
    if (obs_.tracer != nullptr) {
      obs_.tracer->instant("controller.window_suppressed", "control", now,
                           {{"kind", dataplane::kind_name(n.kind)}});
    }
    if (obs_.log != nullptr) {
      obs_.log->log(obs::LogLevel::kDebug, now, "controller",
                    "window_suppressed",
                    {{"kind", dataplane::kind_name(n.kind)}});
    }
    return;
  }
  last_response_ = now;
  if (obs_.log != nullptr) {
    obs_.log->log(obs::LogLevel::kInfo, now, "controller",
                  "notification_accepted",
                  {{"kind", dataplane::kind_name(n.kind)},
                   {"origin", std::uint64_t{n.origin}}});
  }
  pending_.clear();
  pending_.push_back(n);
  if (config_.collection_delay > 0) {
    collection_pending_ = true;
    network_->simulator().schedule_in(
        config_.collection_delay, [this, n] { collect_and_diagnose(n); });
  } else {
    collection_pending_ = true;
    collect_and_diagnose(n);
  }
}

void Controller::collect_and_diagnose(const dataplane::Notification& n) {
  collection_.emplace();
  Collection& c = *collection_;
  c.data.trigger = n;
  c.data.notifications = std::move(pending_);
  pending_.clear();
  c.data.default_threshold = pipeline_->config().default_threshold;
  // MARS only drains edge switches (Motivation #1: offload core switches).
  c.remaining = edge_switches();
  c.data.quality.switches_total = c.remaining.size();
  drain_round();
}

void Controller::drain_round() {
  Collection& c = *collection_;
  const sim::Time now = network_->simulator().now();
  {
    auto span = obs_.wall_span("controller.ring_drain", "control");
    std::vector<net::SwitchId> failed;
    for (const net::SwitchId sw : c.remaining) {
      auto read = read_ring(sw);
      if (!read.ok) {
        ++overheads_.drain_read_failures;
        if (obs_.log != nullptr) {
          obs_.log->log(obs::LogLevel::kWarn, now, "controller",
                        "drain_read_failed",
                        {{"switch", std::uint64_t{sw}},
                         {"round", std::uint64_t{c.round}}});
        }
        failed.push_back(sw);
        continue;
      }
      ++c.data.quality.switches_drained;
      for (auto& rec : read.records) {
        // Quarantined records still crossed the wire: their bytes count
        // toward diagnosis overhead even though they never reach the RCA
        // engine.
        overheads_.diagnosis_bytes += pipeline_->record_wire_bytes();
        if (!plausible_record(rec, now)) {
          ++c.data.quality.records_quarantined;
          ++overheads_.records_quarantined;
          if (obs_.log != nullptr) {
            obs_.log->log(obs::LogLevel::kWarn, now, "controller",
                          "drain_record_quarantined",
                          {{"switch", std::uint64_t{sw}}});
          }
          continue;
        }
        ++c.data.quality.records_collected;
        c.data.records.push_back(rec);
      }
    }
    c.remaining = std::move(failed);
    if (span) {
      span->arg({"records", std::uint64_t{c.data.records.size()}});
    }
  }
  if (!c.remaining.empty() && c.round < config_.max_read_retries) {
    ++c.round;
    c.data.quality.retry_rounds = c.round;
    ++overheads_.drain_retry_rounds;
    // Exponential backoff, all in virtual time: the failed read already
    // burned its deadline, then wait 2^(round-1) base backoffs.
    const sim::Time wait =
        config_.read_deadline + (config_.retry_backoff << (c.round - 1));
    if (obs_.log != nullptr) {
      obs_.log->log(obs::LogLevel::kWarn, now, "controller", "drain_retry",
                    {{"round", std::uint64_t{c.round}},
                     {"switches", std::uint64_t{c.remaining.size()}},
                     {"wait_ms", sim::to_seconds(wait) * 1e3}});
    }
    network_->simulator().schedule_in(wait, [this] { drain_round(); });
    return;
  }
  finalize_collection();
}

void Controller::finalize_collection() {
  Collection& c = *collection_;
  overheads_.drains_abandoned += c.remaining.size();
  c.data.collected_at = network_->simulator().now();
  // Notifications that arrived during retry rounds were folded into
  // pending_; they belong to this session.
  for (auto& n : pending_) c.data.notifications.push_back(n);
  pending_.clear();
  for (const auto& [flow, reservoir] : reservoirs_) {
    if (reservoir.warmed_up()) {
      c.data.thresholds[flow] = static_cast<sim::Time>(reservoir.threshold());
    }
  }
  ++overheads_.diagnoses;
  if (c.data.quality.degraded()) ++overheads_.partial_sessions;
  if (obs_.provenance != nullptr) {
    // Session + notification nodes: the root of this diagnosis's evidence
    // chain. RCA parents its epoch/pattern/suspect nodes under the id.
    c.data.provenance_id = obs_.provenance->add_node(
            obs::ProvenanceGraph::NodeKind::kSession,
            {{"trigger", dataplane::kind_name(c.data.trigger.kind)},
             {"collected_at_s", sim::to_seconds(c.data.collected_at)},
             {"records", c.data.quality.records_collected},
             {"quarantined", c.data.quality.records_quarantined},
             {"coverage", c.data.quality.coverage()},
             {"confidence", c.data.quality.confidence()},
             {"retry_rounds", std::uint64_t{c.data.quality.retry_rounds}}});
    for (const auto& n : c.data.notifications) {
      const std::string nid = obs_.provenance->add_node(
              obs::ProvenanceGraph::NodeKind::kNotification,
              {{"kind", dataplane::kind_name(n.kind)},
               {"origin", std::uint64_t{n.origin}},
               {"ts_s", sim::to_seconds(n.when)}});
      obs_.provenance->add_edge(nid, c.data.provenance_id, "triggered");
    }
  }
  if (obs_.tracer != nullptr) {
    // The posterior-collection window in virtual time: notification ->
    // ring-table drain (including any retry rounds).
    obs::SpanArgs args{
        {"trigger", dataplane::kind_name(c.data.trigger.kind)},
        {"notifications", std::uint64_t{c.data.notifications.size()}},
        {"records", std::uint64_t{c.data.records.size()}}};
    if (!c.data.provenance_id.empty()) {
      args.emplace_back("prov", c.data.provenance_id);
    }
    obs_.tracer->complete("collection_window", "control", c.data.trigger.when,
                          c.data.collected_at, std::move(args));
  }
  if (obs_.log != nullptr) {
    if (!c.remaining.empty()) {
      obs_.log->log(obs::LogLevel::kError, c.data.collected_at, "controller",
                    "drain_abandoned",
                    {{"switches", std::uint64_t{c.remaining.size()}},
                     {"rounds", std::uint64_t{c.round}}});
    }
    obs_.log->log(
        obs::LogLevel::kInfo, c.data.collected_at, "controller",
        "session_finalized",
        {{"records", c.data.quality.records_collected},
         {"coverage", c.data.quality.coverage()},
         {"confidence", c.data.quality.confidence()},
         {"retry_rounds", std::uint64_t{c.data.quality.retry_rounds}}});
  }
  sessions_.push_back(std::move(c.data));
  collection_.reset();
  collection_pending_ = false;
  if (on_diagnosis_) on_diagnosis_(sessions_.back());
}

double Controller::mean_reservoir_fill() const {
  if (reservoirs_.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& [flow, reservoir] : reservoirs_) {
    const auto volume = std::max<std::size_t>(reservoir.config().volume, 1);
    sum += static_cast<double>(reservoir.size()) /
           static_cast<double>(volume);
  }
  return sum / static_cast<double>(reservoirs_.size());
}

}  // namespace mars::control
