#pragma once
// SpiderMon (Wang et al., NSDI'22) — reimplementation of its
// diagnosis-relevant subset, as characterized in MARS §5.4/§6:
//
//   - every packet carries a small INT header (cumulative queueing delay,
//     4 bytes) — much lighter than IntSight's;
//   - a switch triggers when a packet's cumulative queueing delay exceeds
//     a *static* threshold; telemetry is then pulled from ALL switches
//     (including core), unlike MARS's edge-only collection;
//   - diagnosis builds a Wait-For Graph between flows that share queues in
//     the problem window and ranks by vertex degree (indegree −
//     outdegree); switch locations are ranked by wait-for concentration.
//
// Reproduced limitations: it senses only queueing anomalies, so delay and
// drop faults never trigger it; and a flow that bursts against itself has
// indegree ≈ outdegree, hiding the culprit.
//
// The wait-for graph is aggregated as edges are created rather than logged
// edge by edge. An arriving packet waits for every packet already queued,
// so one enqueue adds `depth` edges; counting queued packets per flow turns
// them into one run per holder flow. Only edges at or after
// trigger_time − window are diagnosed, and the trigger time is never
// earlier than the current time, so before the trigger only a trailing
// window of runs is kept. It is folded into the running degrees once when
// the trigger fires; every later edge is folded in directly.

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "baselines/baseline.hpp"
#include "net/types.hpp"
#include "util/fifo_ring.hpp"

namespace mars::baselines {

struct SpiderMonConfig {
  /// Static cumulative-queueing-delay trigger.
  sim::Time queue_delay_threshold = 5 * sim::kMillisecond;
  /// Wait-for edges older than this are ignored at diagnosis time.
  sim::Time window = 1 * sim::kSecond;
  /// Per-packet INT header bytes (cumulative latency only).
  std::uint32_t header_bytes = 4;
  /// Bytes per wait-for record a switch uploads on collection.
  std::uint32_t record_bytes = 12;
  std::size_t max_culprits = 20;
};

class SpiderMon final : public BaselineSystem {
 public:
  /// `switch_count` bounds the switch ids the callbacks will see.
  SpiderMon(std::size_t switch_count, SpiderMonConfig config = {});

  [[nodiscard]] std::string_view name() const override { return "SpiderMon"; }
  [[nodiscard]] rca::CulpritList diagnose() override;
  [[nodiscard]] OverheadReport overheads() const override;
  [[nodiscard]] bool triggered() const override { return triggered_; }
  [[nodiscard]] sim::Time trigger_time() const { return trigger_time_; }

  // ---- PacketObserver ----
  void on_enqueue(net::SwitchContext& ctx, net::Packet& pkt, net::PortId out,
                  std::uint32_t queue_depth) override;
  void on_egress(net::SwitchContext& ctx, net::Packet& pkt, net::PortId out,
                 sim::Time hop_latency) override;

 private:
  /// Flows are interned to dense indices in first-seen order.
  using FlowIndex = std::uint32_t;

  struct FlowDegrees {
    net::FlowId flow;
    std::int64_t in_degree = 0;   ///< edges where this flow is the holder
    std::int64_t out_degree = 0;  ///< edges where this flow is the waiter
  };
  /// Queued packets of one flow in one queue mirror.
  struct QueuedFlow {
    FlowIndex flow;
    std::uint32_t packets;
  };
  /// FIFO mirror of one (switch, port) queue, by flow.
  struct QueueMirror {
    util::FifoRing<FlowIndex> fifo;
    std::vector<QueuedFlow> flows;  ///< per-flow counts of `fifo`, any order
  };
  struct SwitchState {
    std::vector<QueueMirror> ports;
    std::int64_t weight = 0;  ///< wait-for edges recorded at this switch
    /// Distinct (waiter << 32 | holder) pairs recorded at this switch.
    std::unordered_set<std::uint64_t> pairs;
  };
  /// `edges` wait-for edges from `waiter` to `holder` created at `when`.
  struct WaitRun {
    sim::Time when;
    net::SwitchId at;
    FlowIndex waiter;
    FlowIndex holder;
    std::uint32_t edges;
  };

  FlowIndex flow_index(const net::FlowId& flow);
  void fold(const WaitRun& run);

  SpiderMonConfig config_;
  std::unordered_map<net::FlowId, FlowIndex> flow_index_;
  std::vector<FlowDegrees> flows_;
  std::vector<SwitchState> switches_;  ///< indexed by switch id
  std::uint64_t distinct_triples_ = 0;
  /// Pre-trigger runs no older than now − window, in creation order.
  util::FifoRing<WaitRun> pending_;
  OverheadReport overheads_;
  bool triggered_ = false;
  sim::Time trigger_time_ = 0;
};

}  // namespace mars::baselines
