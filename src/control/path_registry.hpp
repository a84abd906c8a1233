#pragma once
// Control-plane PathID registry (paper §4.1, §5.5).
//
// The control plane enumerates every shortest edge-to-edge path, replays
// the data plane's per-hop PathID hash for each, and resolves hash
// conflicts by installing MAT entries that override the control word at
// the first hop where the colliding paths diverge. The result is
//   (a) the PathID -> switch-sequence map used to decompress diagnosis
//       reports, and
//   (b) the conflict MAT the data plane needs, whose entry count is the
//       switch-memory cost compared against IntSight in §5.5.
//
// Construction is one sequential pass into flat arrays: every path's
// switch ids sit back to back in one vector, with a parallel vector of
// hop ports, a per-path offset and PathID, and one sorted
// (PathID << 32 | path index) key array. That is 8 B per hop plus 16 B
// per path, with no per-path allocation; a counting pass over the ECMP
// groups sizes the arrays exactly before a DFS over the same groups
// fills them. Each resolution round replays every path's id (per hop, a
// tabulated hop term XOR the entering PathID's term) and radix-sorts the
// keys; a run of equal ids is a collision group whose lowest-index member
// is the keeper, and groups are separated in ascending PathID order.
// lookup() is a binary search over the same keys.
//
// A registry that fails to resolve every collision is a *diagnosed*
// condition, not a silent one: ambiguous PathIDs decompress to an empty
// span (never to an arbitrary first-wins path), the PathAuditReport
// carries the residual counts, and scenario validation rejects the
// configuration.

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "net/routing.hpp"
#include "net/topology.hpp"
#include "telemetry/path_id.hpp"

namespace mars::obs {
class EventLog;
}

namespace mars::control {

/// Everything scenario validation, the CLI `--path-audit` view, and the
/// collision-rate bench need to judge a built registry. All counts are
/// deterministic; `build_seconds` is the one wall-clock field.
struct PathAuditReport {
  telemetry::PathIdConfig config;
  std::size_t path_count = 0;
  std::size_t hop_count = 0;
  std::size_t id_space = 0;  ///< 2^width_bits (distinct PathID values)
  std::size_t initial_collisions = 0;
  std::size_t residual_collisions = 0;  ///< 0 iff conflict_free
  std::size_t ambiguous_ids = 0;  ///< PathIDs shared by >1 path after build
  std::size_t mat_entries = 0;
  std::size_t mat_overwrites = 0;  ///< last-resort clobbers (expected 0)
  int rounds = 0;                  ///< resolution rounds actually run
  /// More paths than PathID values: resolution is skipped because no MAT
  /// can make the mapping injective (pigeonhole).
  bool pigeonhole_infeasible = false;
  bool conflict_free = false;
  std::size_t mars_memory_bytes = 0;
  std::size_t intsight_memory_bytes = 0;
  double build_seconds = 0.0;  ///< wall clock; nondeterministic
};

/// A hop's ingress and egress port (kHostPort at the path's two ends).
struct HopPorts {
  net::PortId in_port = 0;
  net::PortId out_port = 0;
};

class PathRegistry {
 public:
  /// Enumerates all shortest edge-to-edge paths and resolves conflicts.
  PathRegistry(const net::Topology& topology, const net::RoutingTable& routing,
               telemetry::PathIdConfig config);

  /// Decompress a PathID into its switch sequence, a view into this
  /// registry valid for its lifetime. Empty if unknown *or ambiguous* — an
  /// ambiguous id (only possible when the registry is not conflict_free())
  /// must never decompress to an arbitrary survivor, so it counts in
  /// ambiguous_lookups() and returns nothing.
  [[nodiscard]] std::span<const net::SwitchId> lookup(
      std::uint32_t path_id) const;

  /// True when `path_id` is shared by more than one registered path.
  [[nodiscard]] bool is_ambiguous(std::uint32_t path_id) const {
    return members(path_id).size() > 1;
  }
  /// How many lookup() calls hit an ambiguous id (thread-safe counter).
  [[nodiscard]] std::uint64_t ambiguous_lookups() const {
    return ambiguous_lookups_.load(std::memory_order_relaxed);
  }

  /// The conflict-resolution MAT to install in the data plane.
  [[nodiscard]] const telemetry::ControlMat& mat() const { return mat_; }
  [[nodiscard]] std::size_t mat_entry_count() const { return mat_.size(); }

  /// Registered paths, sources then destinations in edge-layer order,
  /// then ECMP alternatives in port order (RoutingTable's
  /// enumerate_edge_paths() order).
  [[nodiscard]] std::size_t path_count() const { return ids_.size(); }
  [[nodiscard]] std::span<const net::SwitchId> path_switches(
      std::size_t i) const {
    return {switches_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
  }
  [[nodiscard]] std::span<const HopPorts> path_ports(std::size_t i) const {
    return {ports_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
  }
  /// The PathID the data plane computes for path `i` under mat().
  [[nodiscard]] std::uint32_t path_id(std::size_t i) const { return ids_[i]; }

  /// Collisions seen before any MAT entry was installed.
  [[nodiscard]] std::size_t initial_collisions() const {
    return audit_.initial_collisions;
  }
  /// True if every registered path maps to a distinct PathID.
  [[nodiscard]] bool conflict_free() const { return audit_.conflict_free; }

  /// The full construction audit (counts are deterministic).
  [[nodiscard]] const PathAuditReport& audit() const { return audit_; }

  /// Emit the audit as structured events: one info summary, plus an error
  /// event when collisions survived resolution.
  void log_audit(obs::EventLog& log, sim::Time at) const;

  // ---- §5.5 switch-memory accounting ----
  /// MARS: one ~10-byte MAT entry per unresolved hash conflict.
  [[nodiscard]] std::size_t mars_memory_bytes() const {
    return mat_.size() * kMarsMatEntryBytes;
  }
  /// IntSight: one ~7-byte MAT entry per hop of every path.
  [[nodiscard]] std::size_t intsight_memory_bytes() const {
    return switches_.size() * kIntSightMatEntryBytes;
  }

  static constexpr std::size_t kMarsMatEntryBytes = 10;
  static constexpr std::size_t kIntSightMatEntryBytes = 7;

 private:
  class HopTerms;

  void enumerate(const net::Topology& topology,
                 const net::RoutingTable& routing);
  /// Replay every path's id under the current MAT and rebuild the sorted
  /// keys; returns the collision count (paths minus distinct ids).
  std::size_t replay_and_group(const HopTerms& hop_terms);
  void resolve_conflicts(const HopTerms& hop_terms);
  void separate(std::size_t keeper, std::size_t other);
  /// The run of sorted keys whose PathID is `path_id`.
  [[nodiscard]] std::span<const std::uint64_t> members(
      std::uint32_t path_id) const;

  telemetry::PathIdConfig config_;
  std::vector<net::SwitchId> switches_;  ///< every path's hops, back to back
  std::vector<HopPorts> ports_;          ///< parallel to switches_
  /// Path i's hops are [offsets_[i], offsets_[i + 1]) of the two above.
  std::vector<std::uint32_t> offsets_;
  std::vector<std::uint32_t> ids_;       ///< per path
  std::vector<std::uint64_t> keys_;      ///< sorted (id << 32 | index)
  telemetry::ControlMat mat_;
  mutable std::atomic<std::uint64_t> ambiguous_lookups_{0};
  PathAuditReport audit_;
  std::uint32_t next_control_ = 1;
};

}  // namespace mars::control
