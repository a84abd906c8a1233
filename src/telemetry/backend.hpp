#pragma once
// Pluggable telemetry-export backends behind one contract.
//
// MARS's data plane splits cleanly into (a) common machinery every export
// mode needs — Ingress/Egress table counting, PathID chaining, the
// one-telemetry-packet-per-flow-per-epoch marking, in-switch detection and
// notifications, sink-side record assembly — and (b) the export mode
// itself: what telemetry state each hop accumulates, how many in-band
// bytes that costs per link, and what the controller sees when it drains a
// sink. `dataplane::MarsPipeline` keeps (a); a TelemetryBackend supplies
// (b). Three backends ship:
//
//   postcard  — the paper's mode: per-telemetry-packet RtRecords into the
//               sink Ring Table (11-byte INT header + 1-byte PathID
//               in band). Bit-identical to the pre-backend pipeline.
//   int-md    — INT 2.1 eMbed-Data: per-hop metadata stack grows with the
//               path; sinks pop full hop detail (Fig. 3's comparison).
//   histogram — in-switch aggregation (P4TG-style): per-port log-linear
//               latency/queue histograms plus event-detection triggers;
//               sinks export compact per-(flow, path) epoch digests
//               instead of per-packet records.
//
// Determinism contract: backends model in-band bytes in *accounting only*.
// The packet's wire fields (PathID byte + 11-byte INT header on marked
// packets) are managed by the common pipeline identically for every
// backend, so serialization timing — and therefore the event schedule and
// every fixed-seed golden — is backend-invariant. The bytes a backend
// returns from on_hop_egress() are what its wire format *would* occupy,
// which is exactly what the bandwidth-vs-accuracy frontier compares.
//
// Shard discipline: hooks run on shard threads and, at two or more
// shards, concurrently, so they may only touch per-switch state of
// ctx.id. Only the postcard backend honors that (int-md and histogram
// keep cross-switch in-flight state), so validate_scenario allows the
// other two at one shard only, where a single thread runs every hook.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/observer.hpp"
#include "net/types.hpp"
#include "sim/time.hpp"
#include "telemetry/int_md.hpp"
#include "telemetry/tables.hpp"

namespace mars::telemetry {

enum class BackendKind { kPostcard, kIntMd, kHistogram };

[[nodiscard]] const char* to_string(BackendKind kind);
[[nodiscard]] std::optional<BackendKind> backend_from_name(
    std::string_view name);
/// All valid backend names, in declaration order.
[[nodiscard]] const std::vector<std::string>& known_backend_names();
/// Closest known name to a misspelled one (edit distance; empty if
/// nothing is close enough to suggest).
[[nodiscard]] std::string suggest_backend(std::string_view name);

/// Histogram backend tuning (see histogram_backend.hpp for the model).
struct HistogramBackendConfig {
  /// Log-linear layout of the sink's delivered-latency histogram (the
  /// trigger signal) and of the digest latency quantizer, in microsecond
  /// units: 96 buckets at 2 sub-bucket bits span ~16 s.
  std::uint32_t buckets = 96;
  std::uint32_t sub_bucket_bits = 2;
  /// In-band marker replacing the 11-byte postcard header in this mode's
  /// wire-format accounting: 4B source timestamp + 2B last-epoch count +
  /// 1B epoch id (queue depths are not carried).
  std::uint32_t marker_bytes = 7;
  /// Event-detection trigger: fires when the fraction of this epoch's
  /// delivered telemetry latencies above `tail_latency` rises through
  /// `trigger_enter`; re-arms when it falls to `trigger_exit` or below.
  sim::Time tail_latency = 30 * sim::kMillisecond;
  double trigger_enter = 0.10;
  double trigger_exit = 0.02;
  /// Sink digest ring capacity; 0 = inherit the pipeline ring capacity.
  std::size_t digest_capacity = 0;
};

struct BackendConfig {
  BackendKind kind = BackendKind::kPostcard;
  IntMdConfig int_md;
  HistogramBackendConfig histogram;
};

/// Cumulative export-side counters, surfaced as telemetry.backend.* gauges.
struct BackendCounters {
  std::uint64_t inband_bytes = 0;  ///< accounted wire bytes across links
  std::uint64_t records = 0;       ///< records/digests exported at sinks
  std::uint64_t epochs = 0;        ///< epoch rollovers observed (any switch)
  std::uint64_t triggers = 0;      ///< event-detection firings (histogram)
};

class TelemetryBackend {
 public:
  virtual ~TelemetryBackend() = default;

  [[nodiscard]] virtual BackendKind kind() const = 0;
  [[nodiscard]] const char* name() const { return to_string(kind()); }

  // ---- per-packet hooks (called by MarsPipeline; ctx.id discipline) ----
  /// The source switch marked `pkt` as this flow's telemetry packet for
  /// the current epoch (its IntHeader is already set).
  virtual void on_marked(net::SwitchContext& /*ctx*/,
                         const net::Packet& /*pkt*/) {}
  /// A MARS-tracked packet was enqueued on `out` behind `queue_depth`
  /// packets.
  virtual void on_hop_enqueue(net::SwitchContext& /*ctx*/,
                              const net::Packet& /*pkt*/, net::PortId /*out*/,
                              std::uint32_t /*queue_depth*/) {}
  /// A MARS-tracked packet leaves ctx.id towards `out`. Returns the
  /// in-band bytes this backend's wire format occupies on that link
  /// (accounting only — see the determinism contract above).
  [[nodiscard]] virtual std::uint32_t on_hop_egress(
      net::SwitchContext& ctx, const net::Packet& pkt, net::PortId out,
      sim::Time hop_latency) = 0;
  /// A tracked packet was dropped before reaching its sink.
  virtual void on_drop(net::SwitchContext& /*ctx*/,
                       const net::Packet& /*pkt*/) {}
  /// The sink assembled the common RtRecord for a delivered telemetry
  /// packet; export it in this backend's format.
  virtual void on_sink_record(net::SwitchContext& ctx, const net::Packet& pkt,
                              const RtRecord& rec) = 0;
  /// Switch `sw` observed its local epoch advance to `epoch`.
  virtual void on_epoch_rollover(net::SwitchId /*sw*/, EpochId /*epoch*/,
                                 sim::Time /*now*/) {}

  // ---- controller drain surface ----
  /// Records currently readable at sink `sw`, oldest first. Register-read
  /// semantics: non-destructive, repeat reads see retained records again
  /// (the controller's poll watermark dedupes).
  [[nodiscard]] virtual std::vector<RtRecord> drain(net::SwitchId sw) const = 0;
  /// Wire bytes the control plane pays per drained record (Fig. 9
  /// diagnosis-bandwidth accounting).
  [[nodiscard]] virtual std::uint32_t record_wire_bytes() const = 0;
  /// Occupancy of the export store at `sw` (mars.ring_occupancy gauge).
  [[nodiscard]] virtual std::size_t store_size(net::SwitchId sw) const = 0;
  [[nodiscard]] virtual std::size_t store_capacity() const = 0;

  /// Merged across switches.
  [[nodiscard]] virtual BackendCounters counters() const = 0;
};

/// Build a backend. `ring_capacity` is the pipeline's sink-store capacity;
/// `epoch_period` the telemetry epoch length.
[[nodiscard]] std::unique_ptr<TelemetryBackend> make_backend(
    const BackendConfig& config, std::size_t switch_count,
    sim::Time epoch_period, std::size_t ring_capacity);

}  // namespace mars::telemetry
