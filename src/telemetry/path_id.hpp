#pragma once
// PathID computation (paper §4.1).
//
// "PathID is updated per hop as the packet traverses across switches. At
//  each hop, the updated PathID is hashed by {PathID, switchID, ingress
//  port, egress port, control}. The control field is set to zero by default
//  unless the hashed value has conflicts with another flow."
//
// The same update function runs in the data plane (per packet) and in the
// control plane (once per enumerated path, to precompute the PathID ->
// switch-sequence map). The control plane resolves hash conflicts by
// installing Match-Action Table entries that override the control word at a
// specific hop; the number of such entries is the switch-memory cost that
// §5.5 compares against IntSight.

#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "net/types.hpp"
#include "util/crc.hpp"

namespace mars::telemetry {

/// Which Tofino hash generator the deployment uses.
enum class HashKind : std::uint8_t { kCrc16, kCrc32 };

[[nodiscard]] const char* hash_name(HashKind kind);
/// Parse "crc16" / "crc32" (nullopt if unknown).
[[nodiscard]] std::optional<HashKind> hash_from_name(std::string_view name);

/// PathIDs are carried in a fixed-width reserved IP field; narrower widths
/// save header bytes but collide more often (resolved with MAT entries).
struct PathIdConfig {
  HashKind hash = HashKind::kCrc16;
  std::uint32_t width_bits = 16;  ///< 1..32

  [[nodiscard]] std::uint32_t mask() const {
    return width_bits >= 32 ? 0xFFFFFFFFu : ((1u << width_bits) - 1u);
  }
};

/// Key identifying one hop's MAT override: the PathID value entering the
/// hop plus the hop coordinates. A data-plane match on this key yields a
/// non-zero control word.
struct HopKey {
  std::uint32_t path_id_in = 0;
  net::SwitchId sw = 0;
  net::PortId in_port = 0;
  net::PortId out_port = 0;

  bool operator==(const HopKey&) const = default;
};

struct HopKeyHash {
  std::size_t operator()(const HopKey& k) const noexcept {
    std::size_t h = k.path_id_in;
    h = h * 1000003u ^ k.sw;
    h = h * 1000003u ^ k.in_port;
    h = h * 1000003u ^ k.out_port;
    return h;
  }
};

/// MAT entries installed by the control plane to break hash conflicts.
/// Lookups are exact-match, as on the Tofino prototype.
using ControlMat = std::unordered_map<HopKey, std::uint32_t, HopKeyHash>;

/// One PathID hop update. `control` is zero unless a MAT entry overrides it.
[[nodiscard]] std::uint32_t update_path_id(const PathIdConfig& config,
                                           std::uint32_t path_id,
                                           net::SwitchId sw,
                                           net::PortId in_port,
                                           net::PortId out_port,
                                           std::uint32_t control);

/// Data-plane helper: apply the MAT (if any entry matches) then update.
[[nodiscard]] std::uint32_t update_path_id_with_mat(
    const PathIdConfig& config, const ControlMat& mat, std::uint32_t path_id,
    net::SwitchId sw, net::PortId in_port, net::PortId out_port);

/// The entering PathID's share of a hop update. CRC is affine over GF(2),
/// so the update splits into it and the rest of the hop:
///   update_path_id(c, id, sw, in, out, ctl)
///       == path_id_term(c, id) ^ update_path_id(c, 0, sw, in, out, ctl).
/// The control plane tabulates the second term per hop.
[[nodiscard]] inline std::uint32_t path_id_term(const PathIdConfig& config,
                                                std::uint32_t path_id) {
  const std::uint32_t term = config.hash == HashKind::kCrc16
                                 ? util::crc16_word_term<5>(0, path_id)
                                 : util::crc32_word_term<5>(0, path_id);
  return term & config.mask();
}

}  // namespace mars::telemetry
