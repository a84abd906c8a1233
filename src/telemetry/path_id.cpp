#include "telemetry/path_id.hpp"

#include <array>

namespace mars::telemetry {

const char* hash_name(HashKind kind) {
  return kind == HashKind::kCrc16 ? "crc16" : "crc32";
}

std::optional<HashKind> hash_from_name(std::string_view name) {
  if (name == "crc16") return HashKind::kCrc16;
  if (name == "crc32") return HashKind::kCrc32;
  return std::nullopt;
}

std::uint32_t update_path_id(const PathIdConfig& config,
                             std::uint32_t path_id, net::SwitchId sw,
                             net::PortId in_port, net::PortId out_port,
                             std::uint32_t control) {
  const std::array<std::uint32_t, 5> words{path_id, sw, in_port, out_port,
                                           control};
  const std::uint32_t digest = config.hash == HashKind::kCrc16
                                   ? util::crc16_words(words)
                                   : util::crc32_words(words);
  return digest & config.mask();
}

std::uint32_t update_path_id_with_mat(const PathIdConfig& config,
                                      const ControlMat& mat,
                                      std::uint32_t path_id, net::SwitchId sw,
                                      net::PortId in_port,
                                      net::PortId out_port) {
  // Conflict-free registries install no entries (both default shapes);
  // skip hashing the HopKey into an empty table on every hop.
  std::uint32_t control = 0;
  if (!mat.empty()) {
    if (const auto it = mat.find(HopKey{path_id, sw, in_port, out_port});
        it != mat.end()) {
      control = it->second;
    }
  }
  return update_path_id(config, path_id, sw, in_port, out_port, control);
}

}  // namespace mars::telemetry
