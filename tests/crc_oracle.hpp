#pragma once
// Test oracles for util/crc.hpp: CRC-16/CCITT-FALSE and CRC-32 (IEEE
// 802.3), computed one bit at a time straight from each polynomial. They
// share no table with the code under test, so a wrong entry in the
// position tables (row 0 included) shows up as a mismatch.

#include <cstddef>
#include <cstdint>
#include <span>

namespace mars::test_support {

/// CRC-16/CCITT-FALSE: poly 0x1021, init 0xFFFF, no reflection, no xorout.
class Crc16 {
 public:
  /// One-shot CRC over a byte range.
  [[nodiscard]] static std::uint16_t compute(std::span<const std::byte> data) {
    Crc16 crc;
    crc.update(data);
    return crc.value();
  }

  /// Incremental interface: feed bytes, then read value().
  void update(std::span<const std::byte> data) {
    for (std::byte b : data) update(static_cast<std::uint8_t>(b));
  }
  void update(std::uint8_t byte) {
    state_ = static_cast<std::uint16_t>(state_ ^ (byte << 8));
    for (int bit = 0; bit < 8; ++bit) {
      state_ = (state_ & 0x8000u)
                   ? static_cast<std::uint16_t>((state_ << 1) ^ 0x1021u)
                   : static_cast<std::uint16_t>(state_ << 1);
    }
  }
  [[nodiscard]] std::uint16_t value() const { return state_; }
  void reset() { state_ = kInit; }

 private:
  static constexpr std::uint16_t kInit = 0xFFFF;
  std::uint16_t state_ = kInit;
};

/// CRC-32 (IEEE 802.3): poly 0x04C11DB7 reflected (0xEDB88320),
/// init 0xFFFFFFFF, reflected in/out, final xor 0xFFFFFFFF.
class Crc32 {
 public:
  [[nodiscard]] static std::uint32_t compute(std::span<const std::byte> data) {
    Crc32 crc;
    crc.update(data);
    return crc.value();
  }

  void update(std::span<const std::byte> data) {
    for (std::byte b : data) update(static_cast<std::uint8_t>(b));
  }
  void update(std::uint8_t byte) {
    state_ ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      state_ = (state_ & 1u) ? (state_ >> 1) ^ 0xEDB88320u : state_ >> 1;
    }
  }
  [[nodiscard]] std::uint32_t value() const { return state_ ^ kXorOut; }
  void reset() { state_ = kInit; }

 private:
  static constexpr std::uint32_t kInit = 0xFFFFFFFFu;
  static constexpr std::uint32_t kXorOut = 0xFFFFFFFFu;
  std::uint32_t state_ = kInit;
};

}  // namespace mars::test_support
