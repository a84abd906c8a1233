#include "dataplane/mars_pipeline.hpp"

#include <cassert>
#include <optional>

#include "sim/simulator.hpp"

namespace mars::dataplane {

MarsPipeline::MarsPipeline(std::size_t switch_count, PipelineConfig config,
                           NotificationFn notify, obs::Context obs)
    : config_(config), notify_fn_(std::move(notify)),
      backend_(telemetry::make_backend(config_.backend, switch_count,
                                       config_.epoch_period,
                                       config_.ring_capacity)),
      latency_hist_(obs.metrics != nullptr
                        ? &obs.metrics->histogram("mars.telemetry_latency_ns")
                        : nullptr) {
  state_.reserve(switch_count);
  for (std::size_t i = 0; i < switch_count; ++i) {
    state_.emplace_back(config_.epoch_period);
  }
}

void MarsPipeline::observe_epoch(net::SwitchId sw, sim::Time now) {
  const telemetry::EpochId epoch =
      telemetry::epoch_of(now, config_.epoch_period);
  telemetry::EpochId& last = state_[sw].last_epoch;
  if (epoch > last) {
    last = epoch;
    backend_->on_epoch_rollover(sw, epoch, now);
  }
}

void MarsPipeline::set_threshold(const net::FlowId& flow,
                                 sim::Time threshold) {
  thresholds_[flow] = threshold;
}

sim::Time MarsPipeline::threshold(const net::FlowId& flow) const {
  const auto it = thresholds_.find(flow);
  return it != thresholds_.end() ? it->second : config_.default_threshold;
}

PipelineOverheads MarsPipeline::overheads() const {
  PipelineOverheads total;
  for (const SwitchState& st : state_) {
    total.telemetry_bytes += st.overheads.telemetry_bytes;
    total.notifications += st.overheads.notifications;
    total.notification_bytes += st.overheads.notification_bytes;
    total.telemetry_packets_marked += st.overheads.telemetry_packets_marked;
    total.latency_notifications += st.overheads.latency_notifications;
    total.drop_notifications += st.overheads.drop_notifications;
    total.window_suppressed += st.overheads.window_suppressed;
  }
  return total;
}

void MarsPipeline::on_ingress(net::SwitchContext& ctx, net::Packet& pkt) {
  // Every switch observes local epoch advances here (the one callback all
  // packets pass at every hop), driving backend rollover hooks.
  observe_epoch(ctx.id, ctx.sim.now());
  if (ctx.id != pkt.flow.source) return;
  SwitchState& st = state_[ctx.id];
  const sim::Time now = ctx.sim.now();

  // Source switch: count the packet and insert the PathID field.
  const std::optional<std::uint32_t> last_epoch_count =
      st.ingress.count_packet(pkt.flow.sink, now);
  pkt.has_path_id = true;
  pkt.path_id = 0;

  // Mark at most one telemetry packet per flow per epoch (§4.2.1). The
  // marked packet carries the common in-band fields for every backend so
  // serialization timing stays backend-invariant (telemetry/backend.hpp).
  if (last_epoch_count) {
    net::IntHeader hdr;
    hdr.source_timestamp = now;
    hdr.last_epoch_count = *last_epoch_count;
    hdr.total_queue_depth = 0;
    hdr.epoch_id = telemetry::epoch_of(now, config_.epoch_period);
    pkt.telemetry = hdr;
    ++st.overheads.telemetry_packets_marked;
    backend_->on_marked(ctx, pkt);
  }
}

void MarsPipeline::on_enqueue(net::SwitchContext& ctx, net::Packet& pkt,
                              net::PortId out, std::uint32_t queue_depth) {
  if (!pkt.has_path_id) return;
  // Per-hop PathID update; MAT overrides the control word on conflicting
  // hops (§4.1).
  pkt.path_id = telemetry::update_path_id_with_mat(
      config_.path_id, mat_, pkt.path_id, ctx.id, pkt.ingress_port, out);
  if (pkt.telemetry) {
    // In-network aggregation: add this hop's queue depth (§4.2.1).
    pkt.telemetry->total_queue_depth += queue_depth;
  }
  backend_->on_hop_enqueue(ctx, pkt, out, queue_depth);
}

void MarsPipeline::maybe_check_latency(net::SwitchContext& ctx,
                                       net::Packet& pkt, bool at_sink) {
  if (!pkt.telemetry) return;
  // Observer callbacks run on shard threads, so every mutation stays
  // inside the packet or the state of ctx.id. The flagging hop decides
  // in-band only: it sets the suppression flag (§4.2.2) and records
  // itself and its latency in the packet.
  if (!pkt.anomaly_flagged) {
    const sim::Time latency = ctx.sim.now() - pkt.telemetry->source_timestamp;
    if (latency > threshold(pkt.flow)) {
      pkt.anomaly_flagged = true;
      pkt.anomaly_reporter = ctx.id;
      pkt.anomaly_latency = latency;
    }
  }
  if (!at_sink) return;
  // The sink owns the flow's delivery order, so the streak lives here: a
  // clean telemetry packet breaks it, and the anomaly must persist across
  // telemetry packets before the sink notifies on the flagging hop's
  // behalf (single-epoch ambient queueing spikes stay local).
  std::uint32_t& streak = state_[ctx.id].sink_latency_streak[pkt.flow];
  if (!pkt.anomaly_flagged) {
    streak = 0;
    return;
  }
  if (++streak < config_.latency_persistence) return;
  Notification n;
  n.kind = Notification::Kind::kHighLatency;
  n.reporter = pkt.anomaly_reporter;
  n.flow = pkt.flow;
  n.when = ctx.sim.now();
  n.latency = pkt.anomaly_latency;
  n.threshold = threshold(pkt.flow);
  notify(ctx, n);
}

void MarsPipeline::notify(net::SwitchContext& ctx, Notification n) {
  SwitchState& st = state_[ctx.id];
  n.origin = ctx.id;
  const sim::Time now = ctx.sim.now();
  // One notification per reporter per window (§4.2.2), kept by the
  // sending switch.
  const auto [last, first] = st.last_notification.try_emplace(n.reporter, now);
  if (!first) {
    if (now - last->second < config_.notification_window) {
      ++st.overheads.window_suppressed;
      return;
    }
    last->second = now;
  }
  ++st.overheads.notifications;
  if (n.kind == Notification::Kind::kHighLatency) {
    ++st.overheads.latency_notifications;
  } else {
    ++st.overheads.drop_notifications;
  }
  st.overheads.notification_bytes += Notification::kWireBytes;
  if (notify_fn_) notify_fn_(n);
}

void MarsPipeline::on_egress(net::SwitchContext& ctx, net::Packet& pkt,
                             net::PortId out, sim::Time hop_latency) {
  // Monitoring bytes occupy this link once per traversal (Fig. 9); what
  // they amount to is the backend's wire format.
  state_[ctx.id].overheads.telemetry_bytes +=
      backend_->on_hop_egress(ctx, pkt, out, hop_latency);
  maybe_check_latency(ctx, pkt, /*at_sink=*/false);
}

void MarsPipeline::on_drop(net::SwitchContext& ctx, const net::Packet& pkt,
                           net::PortId /*out*/) {
  backend_->on_drop(ctx, pkt);
}

void MarsPipeline::on_deliver(net::SwitchContext& ctx, net::Packet& pkt) {
  if (!pkt.has_path_id) return;
  SwitchState& st = state_[ctx.id];
  const sim::Time now = ctx.sim.now();

  // Final PathID hop: the sink's host-facing egress.
  pkt.path_id = telemetry::update_path_id_with_mat(
      config_.path_id, mat_, pkt.path_id, ctx.id, pkt.ingress_port,
      net::kHostPort);

  // Egress Table: per-(PathID, FlowID) counters for all packets (§4.2.2).
  const auto path_now =
      st.egress.count_packet(pkt.flow.source, pkt.path_id, pkt.size_bytes, now);

  if (!pkt.telemetry) return;

  const net::IntHeader hdr = *pkt.telemetry;
  const sim::Time latency = now - hdr.source_timestamp;

  // Epoch-gap drop detection: missing telemetry packets mean whole epochs
  // were lost (§4.3.2).
  std::uint32_t gap = 0;
  if (const auto it = st.last_seen_epoch.find(pkt.flow);
      it != st.last_seen_epoch.end() && hdr.epoch_id > it->second + 1) {
    gap = hdr.epoch_id - it->second - 1;
  }
  st.last_seen_epoch[pkt.flow] = hdr.epoch_id;

  // Count-mismatch drop detection: source's last-epoch count vs the
  // sink's own last-epoch count for this flow (§4.3.2). A fault that only
  // delays packets shifts a few of them across one epoch boundary, which
  // looks like a single-epoch deficit — real loss persists — so the
  // mismatch must repeat before it is trusted.
  const std::uint32_t c_s = hdr.last_epoch_count;
  const std::uint32_t c_d =
      st.egress.flow_previous_packets(pkt.flow.source, now);
  const auto mismatch_threshold = std::max<std::uint32_t>(
      config_.drop_count_threshold,
      static_cast<std::uint32_t>(config_.drop_count_relative *
                                 static_cast<double>(c_s)));
  const bool mismatch = c_s > c_d && (c_s - c_d) > mismatch_threshold;
  std::uint32_t& streak = st.mismatch_streak[pkt.flow];
  streak = mismatch ? streak + 1 : 0;
  const bool count_drop = streak >= config_.drop_persistence;

  // Ring Table record (§4.2.2). Inserted before any notification so the
  // control plane's diagnosis snapshot includes the triggering evidence.
  telemetry::RtRecord rec;
  rec.flow = pkt.flow;
  rec.path_id = pkt.path_id;
  rec.epoch_id = hdr.epoch_id;
  rec.source_timestamp = hdr.source_timestamp;
  rec.sink_timestamp = now;
  rec.latency = latency;
  rec.total_queue_depth = hdr.total_queue_depth;
  rec.src_last_epoch_count = c_s;
  rec.sink_last_epoch_count = c_d;
  rec.path_epoch_packets = path_now.packets;
  rec.path_epoch_bytes = path_now.bytes;
  rec.flow_epoch_packets =
      st.egress.flow_current_packets(pkt.flow.source, now);
  rec.epoch_gap = gap;
  const auto per_path = st.egress.flow_path_counts(pkt.flow.source, now);
  rec.path_count_n = static_cast<std::uint8_t>(
      std::min(per_path.size(), telemetry::RtRecord::kMaxPaths));
  for (std::uint8_t i = 0; i < rec.path_count_n; ++i) {
    rec.path_counts[i] = per_path[i];
  }
  backend_->on_sink_record(ctx, pkt, rec);
  if (latency_hist_ != nullptr && latency >= 0) {
    latency_hist_->record(static_cast<std::uint64_t>(latency));
  }

  if (gap > 0 || count_drop) {
    Notification n;
    n.kind = Notification::Kind::kDrop;
    n.reporter = ctx.id;
    n.flow = pkt.flow;
    n.when = now;
    n.epoch_gap = gap;
    n.dropped_estimate = c_s > c_d ? c_s - c_d : 0;
    notify(ctx, n);
  }
  maybe_check_latency(ctx, pkt, /*at_sink=*/true);

  // INT headers are removed at the sink; monitoring is transparent to
  // end hosts (§4.2.2).
  pkt.telemetry.reset();
}

}  // namespace mars::dataplane
