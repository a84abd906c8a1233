#include "control/channel.hpp"

#include <algorithm>
#include <memory>

namespace mars::control {

bool plausible_record(const telemetry::RtRecord& rec, sim::Time now) {
  if (rec.latency < 0 || rec.source_timestamp < 0 || rec.sink_timestamp < 0) {
    return false;
  }
  if (rec.sink_timestamp > now) return false;
  if (rec.source_timestamp > rec.sink_timestamp) return false;
  if (rec.latency != rec.sink_timestamp - rec.source_timestamp) return false;
  if (rec.path_count_n > telemetry::RtRecord::kMaxPaths) return false;
  return true;
}

ControlChannel::ControlChannel(sim::Simulator& simulator,
                               dataplane::MarsPipeline& pipeline,
                               ChannelConfig config, obs::Context obs)
    : simulator_(&simulator),
      pipeline_(&pipeline),
      config_(config),
      rng_(config.seed),
      log_(obs.log) {}

void ControlChannel::offer(const dataplane::Notification& n) {
  ++stats_.notifications_offered;
  if (config_.perfect()) {
    deliver_(n);
    return;
  }
  if (config_.notification_loss > 0.0 &&
      rng_.chance(config_.notification_loss)) {
    ++stats_.notifications_dropped;
    return;
  }
  if (config_.notification_delay_prob > 0.0 &&
      rng_.chance(config_.notification_delay_prob)) {
    ++stats_.notifications_delayed;
    const sim::Time lo = config_.notification_delay_min;
    const sim::Time hi = std::max(config_.notification_delay_max, lo);
    const sim::Time delay =
        lo + (hi > lo ? static_cast<sim::Time>(
                            rng_.below(static_cast<std::uint64_t>(hi - lo)))
                      : 0);
    // Delayed packets re-enter through the event queue, so two delayed
    // notifications (or a delayed one and a later prompt one) can arrive
    // out of order — exactly the reordering a congested CPU port causes.
    simulator_->schedule_in(delay, [this, n] { deliver_(n); });
    return;
  }
  deliver_(n);
}

ControlChannel::ReadResult ControlChannel::read_ring(net::SwitchId sw) {
  ++stats_.reads_attempted;
  ReadResult result;
  if (config_.perfect()) {
    result.ok = true;
    result.records = pipeline_->ring_snapshot(sw);
    return result;
  }
  if (config_.read_failure > 0.0 && rng_.chance(config_.read_failure)) {
    ++stats_.reads_failed;
    return result;
  }
  result.ok = true;
  result.records = pipeline_->ring_snapshot(sw);
  if (config_.record_loss > 0.0) {
    const auto end = std::remove_if(
        result.records.begin(), result.records.end(), [this](const auto&) {
          if (rng_.chance(config_.record_loss)) {
            ++stats_.records_lost;
            return true;
          }
          return false;
        });
    result.records.erase(end, result.records.end());
  }
  if (config_.record_corruption > 0.0) {
    for (auto& rec : result.records) {
      if (rng_.chance(config_.record_corruption)) {
        corrupt_record(rec);
        ++stats_.records_corrupted;
      }
    }
  }
  return result;
}

void ControlChannel::corrupt_record(telemetry::RtRecord& rec) {
  // A mix of detectable and silent damage: cases 0/1/4 violate the
  // record's internal consistency (caught by plausible_record), cases 2/3
  // are plausible garbage that no range check can refute.
  switch (rng_.below(5)) {
    case 0:
      rec.latency ^= static_cast<sim::Time>((rng_() >> 8) | 1);
      break;
    case 1:
      rec.source_timestamp =
          rec.sink_timestamp + 1 + static_cast<sim::Time>(rng_.below(1u << 20));
      break;
    case 2:
      rec.total_queue_depth ^= static_cast<std::uint32_t>(rng_()) | 1u;
      break;
    case 3:
      rec.src_last_epoch_count ^= static_cast<std::uint32_t>(rng_()) | 1u;
      break;
    case 4:
      rec.path_count_n = static_cast<std::uint8_t>(
          telemetry::RtRecord::kMaxPaths + 1 + rng_.below(100));
      break;
  }
}

double& ControlChannel::dial_value(Dial dial) {
  switch (dial) {
    case Dial::kNotificationLoss: return config_.notification_loss;
    case Dial::kReadFailure: return config_.read_failure;
    case Dial::kRecordCorruption: return config_.record_corruption;
  }
  return config_.notification_loss;  // unreachable
}

const char* ControlChannel::dial_name(Dial dial) {
  switch (dial) {
    case Dial::kNotificationLoss: return "notification_loss";
    case Dial::kReadFailure: return "read_failure";
    case Dial::kRecordCorruption: return "record_corruption";
  }
  return "?";
}

void ControlChannel::schedule_degradation(Dial dial, double severity,
                                          sim::Time at, sim::Time duration) {
  ++stats_.scheduled_faults;
  // The restore event needs the pre-window value, which only exists once
  // the degrade event runs; a shared cell carries it across.
  auto saved = std::make_shared<double>(0.0);
  simulator_->schedule_at(at, [this, dial, severity, saved] {
    double& value = dial_value(dial);
    *saved = value;
    value = std::max(value, severity);
    if (log_ != nullptr) {
      log_->log(obs::LogLevel::kWarn, simulator_->now(), "channel",
                "degradation_start",
                {{"dial", dial_name(dial)}, {"severity", severity}});
    }
  });
  simulator_->schedule_at(at + duration, [this, dial, saved] {
    dial_value(dial) = *saved;
    if (log_ != nullptr) {
      log_->log(obs::LogLevel::kInfo, simulator_->now(), "channel",
                "degradation_end",
                {{"dial", dial_name(dial)}, {"restored", *saved}});
    }
  });
}

}  // namespace mars::control
