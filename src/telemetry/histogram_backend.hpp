#pragma once
// In-switch histogram + event-detection export backend (the P4TG /
// "Programmable Event Detection for INT" direction): switches aggregate
// telemetry locally instead of exporting per-packet records.
//
//   sink switch:   per-flow epoch digests folded from delivered telemetry
//                  packets (latency quantized to its log-linear bucket,
//                  queue depths not carried), sealed into a bounded
//                  digest ring at epoch rollover;
//   triggers:      a per-sink hysteresis detector over the fraction of
//                  this epoch's delivered latencies above a tail bound —
//                  on a rising edge the current digests are sealed early
//                  so anomalous evidence becomes drainable immediately.
//
// In-band wire format: marked packets carry a 7-byte marker (timestamp +
// last-epoch count + epoch id) instead of the 11-byte postcard header —
// queue depth is not accumulated in-band, which is the backend's accuracy
// cost (digest RtRecords report total_queue_depth = 0) and its bandwidth
// win. Drained digests are also cheaper than full RtRecords
// (kDigestWireBytes vs RtRecord::kWireBytes).
//
// One shard only: validate_scenario rejects this backend at two or more
// shards until every observer's state is made per shard (ROADMAP item 1).

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "telemetry/backend.hpp"
#include "util/histogram.hpp"
#include "util/ring_buffer.hpp"

namespace mars::telemetry {

/// Hysteresis trigger: fires on a rising edge through `enter`, then stays
/// silent until the signal falls to `exit` or below.
class EventDetector {
 public:
  EventDetector(double enter, double exit) : enter_(enter), exit_(exit) {}

  /// Feed the current signal level; true exactly on a rising edge.
  bool update(double level) {
    if (triggered_) {
      if (level <= exit_) triggered_ = false;
      return false;
    }
    if (level >= enter_) {
      triggered_ = true;
      return true;
    }
    return false;
  }

  [[nodiscard]] bool triggered() const { return triggered_; }

 private:
  double enter_;
  double exit_;
  bool triggered_ = false;
};

class HistogramBackend final : public TelemetryBackend {
 public:
  /// Wire bytes per drained digest: flow (4) + path (4) + epoch (2) +
  /// latency bucket (2) + src/sink last-epoch counts (2+2) + flow epoch
  /// packets (2) + epoch gap (2) + per-path counts (kMaxPaths * 5).
  static constexpr std::uint32_t kDigestWireBytes =
      20 + RtRecord::kMaxPaths * 5;

  HistogramBackend(HistogramBackendConfig config, std::size_t switch_count,
                   sim::Time epoch_period, std::size_t ring_capacity);

  [[nodiscard]] BackendKind kind() const override {
    return BackendKind::kHistogram;
  }

  [[nodiscard]] std::uint32_t on_hop_egress(net::SwitchContext& ctx,
                                            const net::Packet& pkt,
                                            net::PortId out,
                                            sim::Time hop_latency) override;
  void on_sink_record(net::SwitchContext& ctx, const net::Packet& pkt,
                      const RtRecord& rec) override;
  void on_epoch_rollover(net::SwitchId sw, EpochId epoch,
                         sim::Time now) override;

  [[nodiscard]] std::vector<RtRecord> drain(net::SwitchId sw) const override;
  [[nodiscard]] std::uint32_t record_wire_bytes() const override {
    return kDigestWireBytes;
  }
  [[nodiscard]] std::size_t store_size(net::SwitchId sw) const override;
  [[nodiscard]] std::size_t store_capacity() const override {
    return digest_capacity_;
  }
  [[nodiscard]] BackendCounters counters() const override;

  /// Latency a digest reports for a raw latency sample: the microsecond
  /// log-linear bucket floor, scaled back to nanoseconds.
  [[nodiscard]] sim::Time quantize_latency(sim::Time latency) const;

 private:
  /// One flow's folded evidence for the epoch being aggregated at a sink.
  struct Digest {
    RtRecord last;            ///< latest contributing record, latency raw
    sim::Time max_latency = 0;
    std::uint32_t max_gap = 0;
    std::uint32_t merged = 0; ///< records folded in
  };
  struct SwitchSlice {
    util::LogLinearHistogram sink_latency;   ///< delivered telemetry, us
    std::map<net::FlowId, Digest> live;      ///< current-epoch digests
    util::RingBuffer<RtRecord> sealed;
    EventDetector detector;
    BackendCounters counters;
    SwitchSlice(std::uint32_t sub_bits, std::size_t buckets,
                std::size_t digest_capacity, double enter, double exit)
        : sink_latency(sub_bits, buckets), sealed(digest_capacity),
          detector(enter, exit) {}
  };

  [[nodiscard]] RtRecord to_record(const Digest& d) const;
  void seal_live(SwitchSlice& st);

  HistogramBackendConfig config_;
  sim::Time epoch_period_;
  std::size_t digest_capacity_;
  /// Empty histogram used only for bucket math when quantizing latencies.
  util::LogLinearHistogram quantizer_;
  std::vector<SwitchSlice> state_;
};

}  // namespace mars::telemetry
