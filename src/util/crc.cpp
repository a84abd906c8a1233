#include "util/crc.hpp"

#include <array>

namespace mars::util {
namespace {

constexpr std::array<std::uint16_t, 256> make_crc16_table() {
  std::array<std::uint16_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint16_t crc = static_cast<std::uint16_t>(i << 8);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 0x8000u) ? static_cast<std::uint16_t>((crc << 1) ^ 0x1021u)
                            : static_cast<std::uint16_t>(crc << 1);
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

// Slicing-by-4 extension tables: kCrc32Slice[k][i] advances the CRC of
// byte i by k more zero bytes. Lets crc32_words fold a whole 32-bit word
// per step (4 parallel lookups) instead of four serial byte steps, with
// bit-identical output — the ECMP hash runs on every hop of every packet.
constexpr std::array<std::array<std::uint32_t, 256>, 4> make_crc32_slices() {
  std::array<std::array<std::uint32_t, 256>, 4> t{};
  t[0] = make_crc32_table();
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (int k = 1; k < 4; ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

// The MSB-first CRC16 counterpart: kCrc16Slices[k][i] advances the CRC of
// byte i by k more zero bytes, shifting left instead of right. The PathID
// update hashes five words per hop of every packet.
constexpr std::array<std::array<std::uint16_t, 256>, 4> make_crc16_slices() {
  std::array<std::array<std::uint16_t, 256>, 4> t{};
  t[0] = make_crc16_table();
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (int k = 1; k < 4; ++k) {
      t[k][i] = static_cast<std::uint16_t>((t[k - 1][i] << 8) ^
                                           t[0][t[k - 1][i] >> 8]);
    }
  }
  return t;
}

constexpr auto kCrc16Slices = make_crc16_slices();
constexpr const auto& kCrc16Table = kCrc16Slices[0];
constexpr auto kCrc32Slices = make_crc32_slices();
constexpr const auto& kCrc32Table = kCrc32Slices[0];

}  // namespace

void Crc16::update(std::uint8_t byte) {
  const auto idx = static_cast<std::uint8_t>((state_ >> 8) ^ byte);
  state_ = static_cast<std::uint16_t>((state_ << 8) ^ kCrc16Table[idx]);
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
  state_ = (state_ >> 8) ^ kCrc32Table[idx];
}

void Crc32::update(std::span<const std::byte> data) {
  for (std::byte b : data) update(static_cast<std::uint8_t>(b));
}

std::uint32_t Crc32::compute(std::span<const std::byte> data) {
  Crc32 crc;
  crc.update(data);
  return crc.value();
}

std::uint16_t crc16_words(std::span<const std::uint32_t> words) {
  // Slicing-by-4, MSB-first: the state's high byte meets the word's first
  // (lowest) byte and its low byte the second, so XOR the byte-swapped
  // state into the word, then combine the four per-byte advance tables.
  std::uint16_t state = 0xFFFFu;
  for (std::uint32_t w : words) {
    const std::uint32_t x = w ^ (state >> 8) ^ ((state & 0xFFu) << 8);
    state = static_cast<std::uint16_t>(
        kCrc16Slices[3][x & 0xFFu] ^ kCrc16Slices[2][(x >> 8) & 0xFFu] ^
        kCrc16Slices[1][(x >> 16) & 0xFFu] ^ kCrc16Slices[0][x >> 24]);
  }
  return state;
}

std::uint32_t crc32_words(std::span<const std::uint32_t> words) {
  // Slicing-by-4: XOR the little-endian word into the state (equivalent to
  // feeding its four bytes low-to-high for a reflected CRC), then combine
  // the four per-byte advance tables in one step.
  std::uint32_t state = 0xFFFFFFFFu;
  for (std::uint32_t w : words) {
    const std::uint32_t x = state ^ w;
    state = kCrc32Slices[3][x & 0xFFu] ^ kCrc32Slices[2][(x >> 8) & 0xFFu] ^
            kCrc32Slices[1][(x >> 16) & 0xFFu] ^ kCrc32Slices[0][x >> 24];
  }
  return state ^ 0xFFFFFFFFu;
}

}  // namespace mars::util
