#include "util/crc.hpp"

namespace mars::util {

// The byte-serial CRCs read the position tables' first row: the plain
// 256-entry table of each polynomial.

void Crc16::update(std::uint8_t byte) {
  const auto idx = static_cast<std::uint8_t>((state_ >> 8) ^ byte);
  state_ = static_cast<std::uint16_t>((state_ << 8) ^ detail::kCrc16At[0][idx]);
}

void Crc16::update(std::span<const std::byte> data) {
  for (std::byte b : data) update(static_cast<std::uint8_t>(b));
}

std::uint16_t Crc16::compute(std::span<const std::byte> data) {
  Crc16 crc;
  crc.update(data);
  return crc.value();
}

void Crc32::update(std::uint8_t byte) {
  const auto idx = static_cast<std::uint8_t>((state_ ^ byte) & 0xFFu);
  state_ = (state_ >> 8) ^ detail::kCrc32At[0][idx];
}

void Crc32::update(std::span<const std::byte> data) {
  for (std::byte b : data) update(static_cast<std::uint8_t>(b));
}

std::uint32_t Crc32::compute(std::span<const std::byte> data) {
  Crc32 crc;
  crc.update(data);
  return crc.value();
}

}  // namespace mars::util
