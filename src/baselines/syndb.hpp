#pragma once
// SyNDB (Kannan et al., NSDI'21) — reimplementation of its
// diagnosis-relevant subset, as characterized in MARS §5.4:
//
//   - no INT headers: every switch records a p-record per packet
//     (packet id, switch, ingress/egress timestamps, queue depth) and
//     streams them to the control plane — enormous diagnosis bandwidth,
//     zero telemetry bandwidth (Fig. 9);
//   - diagnosis is query-based and needs EXPERT KNOWLEDGE: the operator
//     must know which failure class to query for. We model that by
//     passing the injected fault kind as the query hint, exactly the
//     concession the paper makes ("we have to assume SyNDB knows the root
//     cause at first") — its Table 1 numbers are flagged as aided.
//
// With full per-switch packet histories the right query localizes almost
// anything; the price is the bandwidth shown in Fig. 9.
//
// Every p-record is charged at record_bytes, but only the fields a query
// reads are stored: the source switch's ingress records (burst), every
// egress record (latency, ECMP split) and every drop record (loss), each
// kind in arrival order — the latency query sums doubles in that order.

#include <cstdint>
#include <vector>

#include "baselines/baseline.hpp"
#include "faults/injector.hpp"
#include "net/types.hpp"

namespace mars::baselines {

struct SynDbConfig {
  /// Bytes per p-record streamed to the control plane.
  std::uint32_t record_bytes = 40;
  /// Problem window examined by queries, counted back from the end.
  sim::Time window = 1 * sim::kSecond;
  std::size_t max_culprits = 20;
};

class SynDb final : public BaselineSystem {
 public:
  explicit SynDb(SynDbConfig config = {});

  [[nodiscard]] std::string_view name() const override { return "SyNDB"; }
  /// Un-aided diagnosis: SyNDB has no trigger of its own; without the
  /// expert hint it cannot pick a query, so this returns nothing useful.
  [[nodiscard]] rca::CulpritList diagnose() override { return {}; }
  /// Query-based diagnosis: uses the expert hint when the query carries
  /// one (the gray cells of Table 1), otherwise falls back to un-aided.
  [[nodiscard]] rca::CulpritList diagnose(
      const systems::DiagnosisQuery& query) override {
    if (!query.hint) return diagnose();
    return diagnose_with_hint(*query.hint, query.incident_end);
  }
  /// Expert-aided diagnosis (the gray cells of Table 1).
  [[nodiscard]] rca::CulpritList diagnose_with_hint(faults::FaultKind hint,
                                                    sim::Time now);
  [[nodiscard]] OverheadReport overheads() const override;
  [[nodiscard]] bool triggered() const override {
    // Query-based: it "triggers" only when an operator asks.
    return record_count_ > 0;
  }

  // ---- PacketObserver ----
  void on_egress(net::SwitchContext& ctx, net::Packet& pkt, net::PortId out,
                 sim::Time hop_latency) override;
  void on_ingress(net::SwitchContext& ctx, net::Packet& pkt) override;
  void on_drop(net::SwitchContext& ctx, const net::Packet& pkt,
               net::PortId out) override;

 private:
  /// Ingress p-record at the flow's source switch.
  struct SourceRecord {
    net::FlowId flow;
    sim::Time when;
  };
  struct EgressRecord {
    net::SwitchId sw;
    net::PortId out_port;
    sim::Time when;
    sim::Time hop_latency;
  };
  struct DropRecord {
    net::SwitchId sw;
    sim::Time when;
  };

  rca::CulpritList query_latency_per_switch(sim::Time now,
                                            rca::CauseKind cause);
  rca::CulpritList query_drop(sim::Time now);
  rca::CulpritList query_burst(sim::Time now);
  rca::CulpritList query_ecmp(sim::Time now);

  SynDbConfig config_;
  std::uint64_t record_count_ = 0;  ///< every p-record streamed, any kind
  std::vector<SourceRecord> source_ingress_;
  std::vector<EgressRecord> egress_;
  std::vector<DropRecord> drops_;
};

}  // namespace mars::baselines
