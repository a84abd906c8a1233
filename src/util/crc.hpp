#pragma once
// CRC-16/CCITT-FALSE and CRC-32 (IEEE 802.3) over fixed-length words, as
// used by the PathID engine and the ECMP hash.
//
// MARS updates the PathID at every hop by hashing
// {PathID, switchID, ingress port, egress port, control} (paper §4.1).
// The paper names CRC16/CRC32 as the hash algorithms available in the
// Tofino hash generators, so we provide both with the standard polynomials:
// CRC-16/CCITT-FALSE is poly 0x1021, init 0xFFFF, no reflection, no
// xorout (the `crc16` extern commonly exposed by P4 targets); CRC-32 is
// poly 0x04C11DB7 reflected (0xEDB88320), init 0xFFFFFFFF, reflected
// in/out, final xor 0xFFFFFFFF.

#include <array>
#include <cstddef>
#include <cstdint>

namespace mars::util {

// ---- Fixed-length word hashes --------------------------------------------
//
// A CRC register step is linear over GF(2) in (register, byte), so the CRC
// of an L-byte message is a constant (the init value run through L zero
// bytes, then the final xor) XORed with one independent term per byte:
// that byte's table entry run through the zero bytes that follow it.
// Tabulating the terms by how many bytes follow turns a fixed-length hash
// into 4 lookups per word with no chain between them.

namespace detail {

/// Longest message the position tables cover: the PathID's five words.
inline constexpr std::size_t kMaxWordBytes = 20;

/// kCrc16At[j][b]: the CRC-16 register, started at zero, after byte b and
/// then j zero bytes (MSB-first, so the register shifts left).
constexpr auto make_crc16_positions() {
  std::array<std::array<std::uint16_t, 256>, kMaxWordBytes> t{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    auto crc = static_cast<std::uint16_t>(b << 8);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 0x8000u) ? static_cast<std::uint16_t>((crc << 1) ^ 0x1021u)
                            : static_cast<std::uint16_t>(crc << 1);
    }
    t[0][b] = crc;
  }
  for (std::size_t j = 1; j < kMaxWordBytes; ++j) {
    for (std::uint32_t b = 0; b < 256; ++b) {
      t[j][b] = static_cast<std::uint16_t>((t[j - 1][b] << 8) ^
                                           t[0][t[j - 1][b] >> 8]);
    }
  }
  return t;
}

/// kCrc32At[j][b]: the reflected CRC-32 register, started at zero, after
/// byte b and then j zero bytes (the register shifts right).
constexpr auto make_crc32_positions() {
  std::array<std::array<std::uint32_t, 256>, kMaxWordBytes> t{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t crc = b;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
    }
    t[0][b] = crc;
  }
  for (std::size_t j = 1; j < kMaxWordBytes; ++j) {
    for (std::uint32_t b = 0; b < 256; ++b) {
      t[j][b] = (t[j - 1][b] >> 8) ^ t[0][t[j - 1][b] & 0xFFu];
    }
  }
  return t;
}

inline constexpr auto kCrc16At = make_crc16_positions();
inline constexpr auto kCrc32At = make_crc32_positions();

/// Term of a little-endian word followed by `after` more bytes: its
/// first (lowest) byte has after + 3 bytes behind it, its last has after.
template <typename T>
constexpr T word_term(
    const std::array<std::array<T, 256>, kMaxWordBytes>& t, std::size_t after,
    std::uint32_t w) {
  return static_cast<T>(t[after + 3][w & 0xFFu] ^
                        t[after + 2][(w >> 8) & 0xFFu] ^
                        t[after + 1][(w >> 16) & 0xFFu] ^ t[after][w >> 24]);
}

/// The CRC of `bytes` zero bytes: the init value advanced through them.
constexpr std::uint16_t crc16_of_zeros(std::size_t bytes) {
  std::uint16_t crc = 0xFFFFu;
  for (std::size_t i = 0; i < bytes; ++i) {
    crc = static_cast<std::uint16_t>((crc << 8) ^ kCrc16At[0][crc >> 8]);
  }
  return crc;
}
constexpr std::uint32_t crc32_of_zeros(std::size_t bytes) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < bytes; ++i) {
    crc = (crc >> 8) ^ kCrc32At[0][crc & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace detail

/// Word i's term in the CRC16 of N words: linear in `w` (0 for 0).
template <std::size_t N>
[[nodiscard]] constexpr std::uint16_t crc16_word_term(std::size_t i,
                                                      std::uint32_t w) {
  static_assert(N > 0 && 4 * N <= detail::kMaxWordBytes);
  return detail::word_term(detail::kCrc16At, 4 * (N - 1 - i), w);
}

/// Word i's term in the CRC32 of N words: linear in `w` (0 for 0).
template <std::size_t N>
[[nodiscard]] constexpr std::uint32_t crc32_word_term(std::size_t i,
                                                      std::uint32_t w) {
  static_assert(N > 0 && 4 * N <= detail::kMaxWordBytes);
  return detail::word_term(detail::kCrc32At, 4 * (N - 1 - i), w);
}

/// CRC16 of N 32-bit words in little-endian byte order: the CRC-16/
/// CCITT-FALSE of those 4N bytes.
template <std::size_t N>
[[nodiscard]] constexpr std::uint16_t crc16_words(
    const std::array<std::uint32_t, N>& words) {
  constexpr std::uint16_t kZeros = detail::crc16_of_zeros(4 * N);
  std::uint16_t crc = kZeros;
  for (std::size_t i = 0; i < N; ++i) crc ^= crc16_word_term<N>(i, words[i]);
  return crc;
}

/// CRC32 of N 32-bit words in little-endian byte order: the CRC-32 of
/// those 4N bytes.
template <std::size_t N>
[[nodiscard]] constexpr std::uint32_t crc32_words(
    const std::array<std::uint32_t, N>& words) {
  constexpr std::uint32_t kZeros = detail::crc32_of_zeros(4 * N);
  std::uint32_t crc = kZeros;
  for (std::size_t i = 0; i < N; ++i) crc ^= crc32_word_term<N>(i, words[i]);
  return crc;
}

}  // namespace mars::util
