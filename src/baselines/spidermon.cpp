#include "baselines/spidermon.hpp"

#include <algorithm>

#include "sim/simulator.hpp"

namespace mars::baselines {

SpiderMon::SpiderMon(std::size_t switch_count, SpiderMonConfig config)
    : config_(config), switches_(switch_count) {}

SpiderMon::FlowIndex SpiderMon::flow_index(const net::FlowId& flow) {
  const auto [it, inserted] =
      flow_index_.try_emplace(flow, static_cast<FlowIndex>(flows_.size()));
  if (inserted) flows_.push_back(FlowDegrees{flow});
  return it->second;
}

void SpiderMon::fold(const WaitRun& run) {
  flows_[run.holder].in_degree += run.edges;
  flows_[run.waiter].out_degree += run.edges;
  SwitchState& sw = switches_[run.at];
  sw.weight += run.edges;
  const std::uint64_t pair =
      (static_cast<std::uint64_t>(run.waiter) << 32) | run.holder;
  if (sw.pairs.insert(pair).second) ++distinct_triples_;
}

void SpiderMon::on_enqueue(net::SwitchContext& ctx, net::Packet& pkt,
                           net::PortId out, std::uint32_t /*queue_depth*/) {
  SwitchState& sw = switches_[ctx.id];
  if (out >= sw.ports.size()) sw.ports.resize(out + std::size_t{1});
  QueueMirror& queue = sw.ports[out];
  const FlowIndex waiter = flow_index(pkt.flow);

  // The arriving packet waits for everything already queued (including its
  // own flow's packets — the self-burst blind spot): one edge per queued
  // packet, one run per queued flow.
  const sim::Time now = ctx.sim.now();
  if (triggered_) {
    if (now >= trigger_time_ - config_.window) {
      for (const QueuedFlow& holder : queue.flows) {
        fold(WaitRun{now, ctx.id, waiter, holder.flow, holder.packets});
      }
    }
  } else if (!queue.flows.empty()) {
    for (const QueuedFlow& holder : queue.flows) {
      pending_.push_back(
          WaitRun{now, ctx.id, waiter, holder.flow, holder.packets});
    }
    // The trigger cannot fire before `now`, so a run older than
    // now − window can never enter the diagnosis window.
    const sim::Time horizon = now - config_.window;
    while (!pending_.empty() && pending_.front().when < horizon) {
      pending_.pop_front();
    }
  }

  queue.fifo.push_back(waiter);
  const auto queued = std::find_if(
      queue.flows.begin(), queue.flows.end(),
      [waiter](const QueuedFlow& q) { return q.flow == waiter; });
  if (queued != queue.flows.end()) {
    ++queued->packets;
  } else {
    queue.flows.push_back(QueuedFlow{waiter, 1});
  }
}

void SpiderMon::on_egress(net::SwitchContext& ctx, net::Packet& pkt,
                          net::PortId out, sim::Time hop_latency) {
  SwitchState& sw = switches_[ctx.id];
  if (out < sw.ports.size() && !sw.ports[out].fifo.empty()) {
    QueueMirror& queue = sw.ports[out];
    const FlowIndex head = queue.fifo.front();
    queue.fifo.pop_front();
    const auto queued = std::find_if(
        queue.flows.begin(), queue.flows.end(),
        [head](const QueuedFlow& q) { return q.flow == head; });
    if (--queued->packets == 0) {
      *queued = queue.flows.back();
      queue.flows.pop_back();
    }
  }
  overheads_.telemetry_bytes += config_.header_bytes;

  // Accumulate queueing delay into the packet's in-band header.
  pkt.spidermon_queue_delay += hop_latency;
  if (!triggered_ &&
      pkt.spidermon_queue_delay > config_.queue_delay_threshold) {
    triggered_ = true;
    trigger_time_ = ctx.sim.now();
    const sim::Time from = trigger_time_ - config_.window;
    for (; !pending_.empty(); pending_.pop_front()) {
      if (pending_.front().when >= from) fold(pending_.front());
    }
    pending_ = {};  // release the pre-trigger log
  }
}

rca::CulpritList SpiderMon::diagnose() {
  if (!triggered_) return {};  // nothing to collect: it never noticed

  // Flow culprits: other flows wait for the culprit, so it has a large
  // indegree and small outdegree. Emitted in FlowId order, then switches in
  // id order: std::sort is not stable, so ties keep their rank only if the
  // input order is fixed.
  std::vector<const FlowDegrees*> culprit_flows;
  for (const FlowDegrees& f : flows_) {
    if (f.in_degree > f.out_degree) culprit_flows.push_back(&f);
  }
  std::sort(culprit_flows.begin(), culprit_flows.end(),
            [](const FlowDegrees* a, const FlowDegrees* b) {
              return a->flow < b->flow;
            });

  rca::CulpritList out;
  for (const FlowDegrees* f : culprit_flows) {
    rca::Culprit c;
    c.level = rca::CulpritLevel::kFlow;
    c.flow = f->flow;
    c.cause = rca::CauseKind::kMicroBurst;
    c.score = static_cast<double>(f->in_degree - f->out_degree);
    out.push_back(std::move(c));
  }
  // Switch culprits: where the wait-for relations concentrate.
  for (net::SwitchId sw = 0; sw < switches_.size(); ++sw) {
    if (switches_[sw].weight == 0) continue;
    rca::Culprit c;
    c.level = rca::CulpritLevel::kSwitch;
    c.location = {sw};
    c.cause = rca::CauseKind::kProcessRateDecrease;
    c.score = static_cast<double>(switches_[sw].weight);
    out.push_back(std::move(c));
  }
  std::sort(out.begin(), out.end(),
            [](const rca::Culprit& a, const rca::Culprit& b) {
              return a.score > b.score;
            });
  if (out.size() > config_.max_culprits) out.resize(config_.max_culprits);
  return out;
}

OverheadReport SpiderMon::overheads() const {
  OverheadReport report = overheads_;
  if (triggered_) {
    // On trigger, ALL switches upload their wait-for state. A switch
    // aggregates repeat edges into counters, so the upload is one record
    // per distinct (switch, waiter, holder) triple in the window.
    report.diagnosis_bytes += distinct_triples_ * config_.record_bytes;
  }
  return report;
}

}  // namespace mars::baselines
