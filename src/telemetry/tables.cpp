#include "telemetry/tables.hpp"

#include <algorithm>

namespace mars::telemetry {

std::optional<std::uint32_t> IngressTable::count_packet(net::SwitchId sink,
                                                        sim::Time now) {
  if (sink >= flows_.size()) flows_.resize(sink + 1);
  FlowEntry& e = flows_[sink];
  const EpochId epoch = epoch_of(now, period_);
  if (epoch != e.epoch) {
    // Keep the immediately preceding epoch's count; anything older is stale.
    e.previous_count = (epoch == e.epoch + 1) ? e.current_count : 0;
    e.epoch = epoch;
    e.current_count = 0;
  }
  if (++e.current_count != 1) return std::nullopt;
  return e.previous_count;
}

EgressTable::PathCounters EgressTable::count_packet(net::SwitchId source,
                                                    std::uint32_t path_id,
                                                    std::uint32_t bytes,
                                                    sim::Time now) {
  if (source >= flows_.size()) flows_.resize(source + 1);
  Slot& slot = flows_[source];
  auto it = std::lower_bound(
      slot.begin(), slot.end(), path_id,
      [](const Entry& e, std::uint32_t id) { return e.path_id < id; });
  if (it == slot.end() || it->path_id != path_id) {
    Entry fresh;
    fresh.path_id = path_id;
    it = slot.insert(it, fresh);
  }
  Entry& e = *it;
  const EpochId epoch = epoch_of(now, period_);
  if (epoch != e.epoch) {
    e.previous = (epoch == e.epoch + 1) ? e.current : PathCounters{};
    e.epoch = epoch;
    e.current = PathCounters{};
  }
  ++e.current.packets;
  e.current.bytes += bytes;
  return e.current;
}

std::uint32_t EgressTable::flow_current_packets(net::SwitchId source,
                                                sim::Time now) const {
  const Slot* entries = slot(source);
  if (entries == nullptr) return 0;
  const EpochId epoch = epoch_of(now, period_);
  std::uint32_t total = 0;
  for (const Entry& e : *entries) {
    if (e.epoch == epoch) total += e.current.packets;
  }
  return total;
}

std::uint32_t EgressTable::flow_previous_packets(net::SwitchId source,
                                                 sim::Time now) const {
  const Slot* entries = slot(source);
  if (entries == nullptr) return 0;
  const EpochId epoch = epoch_of(now, period_);
  std::uint32_t total = 0;
  for (const Entry& e : *entries) {
    if (e.epoch == epoch) {
      total += e.previous.packets;
    } else if (e.epoch == epoch - 1) {
      total += e.current.packets;
    }
  }
  return total;
}

std::vector<EgressTable::FlowPathCount> EgressTable::flow_path_counts(
    net::SwitchId source, sim::Time now) const {
  std::vector<FlowPathCount> out;
  const Slot* entries = slot(source);
  if (entries == nullptr) return out;
  const EpochId epoch = epoch_of(now, period_);
  for (const Entry& e : *entries) {
    std::uint32_t packets = 0;
    if (e.epoch == epoch) {
      packets = e.current.packets + e.previous.packets;
    } else if (e.epoch == epoch - 1) {
      packets = e.current.packets;
    }
    if (packets > 0) out.push_back(FlowPathCount{e.path_id, packets});
  }
  return out;
}

}  // namespace mars::telemetry
