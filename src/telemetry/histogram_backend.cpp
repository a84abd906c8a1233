#include "telemetry/histogram_backend.hpp"

#include <algorithm>

namespace mars::telemetry {

HistogramBackend::HistogramBackend(HistogramBackendConfig config,
                                   std::size_t switch_count,
                                   sim::Time epoch_period,
                                   std::size_t ring_capacity)
    : config_(config), epoch_period_(epoch_period),
      digest_capacity_(config.digest_capacity > 0 ? config.digest_capacity
                                                  : ring_capacity),
      quantizer_(config.sub_bucket_bits, config.buckets) {
  state_.reserve(switch_count);
  for (std::size_t i = 0; i < switch_count; ++i) {
    state_.emplace_back(config_.sub_bucket_bits, config_.buckets,
                        digest_capacity_, config_.trigger_enter,
                        config_.trigger_exit);
  }
}

std::uint32_t HistogramBackend::on_hop_egress(net::SwitchContext& ctx,
                                              const net::Packet& pkt,
                                              net::PortId /*out*/,
                                              sim::Time /*hop_latency*/) {
  std::uint32_t bytes = pkt.has_path_id ? 1u : 0u;
  if (pkt.telemetry) bytes += config_.marker_bytes;
  state_[ctx.id].counters.inband_bytes += bytes;
  return bytes;
}

sim::Time HistogramBackend::quantize_latency(sim::Time latency) const {
  if (latency <= 0) return 0;
  const auto us = static_cast<std::uint64_t>(latency) /
                  static_cast<std::uint64_t>(sim::kMicrosecond);
  std::size_t bucket = quantizer_.bucket_of(us);
  if (bucket >= config_.buckets) bucket = config_.buckets - 1;
  return static_cast<sim::Time>(quantizer_.bucket_floor(bucket)) *
         sim::kMicrosecond;
}

void HistogramBackend::on_sink_record(net::SwitchContext& ctx,
                                      const net::Packet& /*pkt*/,
                                      const RtRecord& rec) {
  SwitchSlice& st = state_[ctx.id];
  Digest& d = st.live[rec.flow];
  d.last = rec;
  d.max_latency = std::max(d.max_latency, rec.latency);
  d.max_gap = std::max(d.max_gap, rec.epoch_gap);
  ++d.merged;

  // Trigger signal: fraction of this epoch's delivered telemetry
  // latencies above the tail bound.
  st.sink_latency.add(
      static_cast<std::uint64_t>(std::max<sim::Time>(rec.latency, 0)) /
      static_cast<std::uint64_t>(sim::kMicrosecond));
  const double tail = st.sink_latency.fraction_above(
      static_cast<std::uint64_t>(config_.tail_latency) /
      static_cast<std::uint64_t>(sim::kMicrosecond));
  if (st.detector.update(tail)) {
    ++st.counters.triggers;
    // Rising edge: make the anomalous evidence drainable now instead of
    // at the next rollover.
    seal_live(st);
  }
}

RtRecord HistogramBackend::to_record(const Digest& d) const {
  RtRecord rec = d.last;
  rec.latency = quantize_latency(d.max_latency);
  // Keep the drained record self-consistent (and past the controller's
  // plausibility check): latency must equal sink - source exactly.
  rec.source_timestamp = rec.sink_timestamp - rec.latency;
  // The digest does not carry queue depths — the backend's deliberate
  // accuracy/bandwidth trade.
  rec.total_queue_depth = 0;
  rec.epoch_gap = d.max_gap;
  return rec;
}

void HistogramBackend::seal_live(SwitchSlice& st) {
  // std::map order: digests seal sorted by flow, deterministically.
  for (const auto& [flow, digest] : st.live) {
    st.sealed.push(to_record(digest));
    ++st.counters.records;
  }
  st.live.clear();
}

void HistogramBackend::on_epoch_rollover(net::SwitchId sw, EpochId /*epoch*/,
                                         sim::Time /*now*/) {
  SwitchSlice& st = state_[sw];
  ++st.counters.epochs;
  seal_live(st);
  // In-switch registers reset each epoch (the rollover is the register
  // swap a real pipeline performs).
  st.sink_latency.clear();
}

std::vector<RtRecord> HistogramBackend::drain(net::SwitchId sw) const {
  const SwitchSlice& st = state_[sw];
  std::vector<RtRecord> out = st.sealed.snapshot();
  // Register-read semantics: the epoch in progress is readable too.
  out.reserve(out.size() + st.live.size());
  for (const auto& [flow, digest] : st.live) {
    out.push_back(to_record(digest));
  }
  return out;
}

std::size_t HistogramBackend::store_size(net::SwitchId sw) const {
  return state_[sw].sealed.size() + state_[sw].live.size();
}

BackendCounters HistogramBackend::counters() const {
  BackendCounters total;
  for (const SwitchSlice& st : state_) {
    total.inband_bytes += st.counters.inband_bytes;
    total.records += st.counters.records;
    total.epochs += st.counters.epochs;
    total.triggers += st.counters.triggers;
  }
  return total;
}

}  // namespace mars::telemetry
