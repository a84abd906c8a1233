#include "util/crc.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "crc_oracle.hpp"
#include "telemetry/path_id.hpp"
#include "util/rng.hpp"

namespace mars::util {
namespace {

using test_support::Crc16;
using test_support::Crc32;

std::vector<std::byte> bytes_of(std::string_view s) {
  std::vector<std::byte> out(s.size());
  std::memcpy(out.data(), s.data(), s.size());
  return out;
}

/// The words' bytes in the order crc*_words hashes them: little-endian.
std::vector<std::byte> le_bytes_of(std::span<const std::uint32_t> words) {
  std::vector<std::byte> out;
  for (std::uint32_t w : words) {
    for (int shift = 0; shift < 32; shift += 8) {
      out.push_back(static_cast<std::byte>((w >> shift) & 0xFFu));
    }
  }
  return out;
}

TEST(Crc16Test, KnownVectors) {
  // CRC-16/CCITT-FALSE("123456789") == 0x29B1 (standard check value).
  EXPECT_EQ(Crc16::compute(bytes_of("123456789")), 0x29B1);
  EXPECT_EQ(Crc16::compute({}), 0xFFFF);  // init value for empty input
}

TEST(Crc32Test, KnownVectors) {
  // CRC-32/IEEE("123456789") == 0xCBF43926 (standard check value).
  EXPECT_EQ(Crc32::compute(bytes_of("123456789")), 0xCBF43926u);
  EXPECT_EQ(Crc32::compute({}), 0x00000000u);
}

TEST(Crc16Test, IncrementalMatchesOneShot) {
  const auto data = bytes_of("mars path id hashing");
  Crc16 crc;
  for (std::byte b : data) crc.update(static_cast<std::uint8_t>(b));
  EXPECT_EQ(crc.value(), Crc16::compute(data));
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const auto data = bytes_of("mars path id hashing");
  Crc32 crc;
  for (std::byte b : data) crc.update(static_cast<std::uint8_t>(b));
  EXPECT_EQ(crc.value(), Crc32::compute(data));
}

TEST(CrcWordsTest, DeterministicAndSensitiveToOrder) {
  const std::array<std::uint32_t, 5> a{1, 2, 3, 4, 5};
  const std::array<std::uint32_t, 5> b{5, 4, 3, 2, 1};
  EXPECT_EQ(crc16_words(a), crc16_words(a));
  EXPECT_NE(crc16_words(a), crc16_words(b));
  EXPECT_EQ(crc32_words(a), crc32_words(a));
  EXPECT_NE(crc32_words(a), crc32_words(b));
}

TEST(CrcWordsTest, SensitiveToEveryField) {
  // PathID update hashes {path_id, switch, in_port, out_port, control};
  // flipping any single word must change the digest.
  const std::array<std::uint32_t, 5> base{7, 11, 2, 3, 0};
  const auto h = crc32_words(base);
  for (std::size_t i = 0; i < base.size(); ++i) {
    auto mutated = base;
    mutated[i] ^= 1;
    EXPECT_NE(crc32_words(mutated), h) << "word " << i;
  }
}

/// Both word hashes of `words` equal the bit-serial oracle CRCs of its
/// bytes.
template <std::size_t N>
void expect_matches_byte_serial(const std::array<std::uint32_t, N>& words) {
  const auto bytes = le_bytes_of(words);
  ASSERT_EQ(crc16_words(words), Crc16::compute(bytes)) << N << " words";
  ASSERT_EQ(crc32_words(words), Crc32::compute(bytes)) << N << " words";
}

/// The all-zero message and every message of N words with one non-zero
/// byte, every bit pattern at every position.
template <std::size_t N>
void expect_single_bytes_match_byte_serial() {
  std::array<std::uint32_t, N> words{};
  ASSERT_NO_FATAL_FAILURE(expect_matches_byte_serial(words));
  for (std::size_t w = 0; w < N; ++w) {
    for (int shift = 0; shift < 32; shift += 8) {
      for (std::uint32_t b = 1; b < 256; ++b) {
        words[w] = b << shift;
        ASSERT_NO_FATAL_FAILURE(expect_matches_byte_serial(words))
            << "word " << w << " byte " << shift / 8 << " = " << b;
      }
      words[w] = 0;
    }
  }
}

TEST(CrcWordsTest, PositionTablesMatchByteSerialOnEveryByte) {
  // A word hash is a constant XOR one table entry per byte position, so
  // its value on a message is fixed by its values on the zero message and
  // on the messages with one non-zero byte. The oracle CRCs are affine
  // over GF(2), so agreeing on those proves agreement on every input of
  // each length hashed: the ECMP hash (2 words) and the PathID update (5).
  // Single-bit messages alone would miss a wrong table entry at an index
  // that is not a power of two.
  expect_single_bytes_match_byte_serial<2>();
  expect_single_bytes_match_byte_serial<5>();
}

TEST(CrcWordsTest, SlicedMatchesByteSerialOnRandomWords) {
  // The word hashes XOR one position-table lookup per byte; each must
  // equal the bit-at-a-time CRC of the same bytes.
  Rng rng(0xC4C16);
  const auto word = [&rng] {
    // Half the words look like PathID fields (small ids and ports).
    return rng.chance(0.5) ? static_cast<std::uint32_t>(rng())
                           : static_cast<std::uint32_t>(rng.below(1024));
  };
  for (int trial = 0; trial < 20000; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    ASSERT_NO_FATAL_FAILURE(expect_matches_byte_serial(
        std::array<std::uint32_t, 2>{word(), word()}));
    ASSERT_NO_FATAL_FAILURE(expect_matches_byte_serial(
        std::array<std::uint32_t, 5>{word(), word(), word(), word(), word()}));
  }
}

// Known-answer PathID chains: three five-hop paths from PathID 0 under
// each shape the scenarios use, one hop with a MAT control word on two of
// them. The values were captured from the byte-serial hash; a change to
// the position tables, the word order or the width mask shows up here.
TEST(CrcWordsTest, PathIdChainsMatchKnownAnswers) {
  using telemetry::HashKind;
  using telemetry::PathIdConfig;
  struct Hop {
    net::SwitchId sw;
    net::PortId in_port;
    net::PortId out_port;
    std::uint32_t control;
  };
  constexpr Hop kPaths[3][5] = {
      {{4, net::kHostPort, 2, 0}, {12, 0, 3, 0}, {16, 1, 2, 0}, {14, 3, 0, 0},
       {6, 2, net::kHostPort, 0}},
      {{0, net::kHostPort, 3, 0}, {9, 1, 2, 7}, {19, 0, 1, 0}, {10, 2, 1, 0},
       {3, 3, net::kHostPort, 0}},
      {{127, net::kHostPort, 8, 0}, {200, 5, 9, 0}, {311, 12, 3, 1},
       {255, 4, 14, 0}, {90, 8, net::kHostPort, 0}},
  };
  struct Shape {
    PathIdConfig config;
    std::uint32_t ids[3][5];
  };
  constexpr Shape kShapes[] = {
      {{HashKind::kCrc16, 16},
       {{0x7D35u, 0x66BDu, 0x9567u, 0xF55Fu, 0x7713u},
        {0xBA34u, 0x07D1u, 0xC945u, 0xA5E3u, 0x11C2u},
        {0xFCB7u, 0xB0A0u, 0x830Bu, 0xFE85u, 0xDC00u}}},
      {{HashKind::kCrc16, 10},
       {{0x135u, 0x30Fu, 0x2C1u, 0x023u, 0x1A4u},
        {0x234u, 0x1C1u, 0x216u, 0x08Bu, 0x3C3u},
        {0x0B7u, 0x3DBu, 0x0D1u, 0x056u, 0x174u}}},
      {{HashKind::kCrc32, 32},
       {{0xB5E332B8u, 0xBFEC16A9u, 0x27F827AAu, 0x6C0860E4u, 0x943A7027u},
        {0xAD787EA1u, 0x36881A7Du, 0x3CA83896u, 0xA012AA8Cu, 0x23E1B727u},
        {0xA19EB6D4u, 0xC1ECD7ADu, 0xF5FA70C3u, 0xC256D980u, 0x5903AF48u}}},
  };
  for (const Shape& shape : kShapes) {
    for (std::size_t p = 0; p < 3; ++p) {
      std::uint32_t id = 0;
      for (std::size_t h = 0; h < 5; ++h) {
        const Hop& hop = kPaths[p][h];
        id = telemetry::update_path_id(shape.config, id, hop.sw, hop.in_port,
                                       hop.out_port, hop.control);
        EXPECT_EQ(id, shape.ids[p][h])
            << telemetry::hash_name(shape.config.hash) << "/"
            << shape.config.width_bits << " path " << p << " hop " << h;
      }
    }
  }
}

TEST(Crc16Test, ResetRestoresInitialState) {
  Crc16 crc;
  crc.update(bytes_of("junk"));
  crc.reset();
  crc.update(bytes_of("123456789"));
  EXPECT_EQ(crc.value(), 0x29B1);
}

}  // namespace
}  // namespace mars::util
