#include "telemetry/path_id.hpp"

#include <gtest/gtest.h>

#include <random>
#include <set>

namespace mars::telemetry {
namespace {

TEST(PathIdTest, DeterministicUpdate) {
  const PathIdConfig cfg{};
  const auto a = update_path_id(cfg, 0, 3, 1, 2, 0);
  const auto b = update_path_id(cfg, 0, 3, 1, 2, 0);
  EXPECT_EQ(a, b);
}

TEST(PathIdTest, SensitiveToEachField) {
  const PathIdConfig cfg{};
  const auto base = update_path_id(cfg, 7, 3, 1, 2, 0);
  EXPECT_NE(update_path_id(cfg, 8, 3, 1, 2, 0), base);
  EXPECT_NE(update_path_id(cfg, 7, 4, 1, 2, 0), base);
  EXPECT_NE(update_path_id(cfg, 7, 3, 0, 2, 0), base);
  EXPECT_NE(update_path_id(cfg, 7, 3, 1, 3, 0), base);
  EXPECT_NE(update_path_id(cfg, 7, 3, 1, 2, 1), base);
}

TEST(PathIdTest, RespectsWidthMask) {
  PathIdConfig cfg;
  cfg.width_bits = 8;
  for (std::uint32_t sw = 0; sw < 50; ++sw) {
    EXPECT_LE(update_path_id(cfg, 0, sw, 1, 2, 0), 0xFFu);
  }
  cfg.width_bits = 16;
  bool above_byte = false;
  for (std::uint32_t sw = 0; sw < 50; ++sw) {
    const auto id = update_path_id(cfg, 0, sw, 1, 2, 0);
    EXPECT_LE(id, 0xFFFFu);
    above_byte |= id > 0xFFu;
  }
  EXPECT_TRUE(above_byte);  // 16-bit ids actually use the upper byte
}

TEST(PathIdTest, Crc32DiffersFromCrc16) {
  PathIdConfig c16{HashKind::kCrc16, 16};
  PathIdConfig c32{HashKind::kCrc32, 32};
  std::set<std::uint32_t> ids16, ids32;
  for (std::uint32_t sw = 0; sw < 20; ++sw) {
    ids16.insert(update_path_id(c16, 0, sw, 0, 1, 0));
    ids32.insert(update_path_id(c32, 0, sw, 0, 1, 0));
  }
  EXPECT_EQ(ids16.size(), 20u);  // no collisions on this tiny set
  EXPECT_EQ(ids32.size(), 20u);
}

TEST(PathIdTest, MatOverridesControl) {
  const PathIdConfig cfg{};
  ControlMat mat;
  const HopKey key{0, 3, 1, 2};
  mat[key] = 5;
  const auto with_mat = update_path_id_with_mat(cfg, mat, 0, 3, 1, 2);
  const auto expected = update_path_id(cfg, 0, 3, 1, 2, 5);
  EXPECT_EQ(with_mat, expected);
  // A non-matching hop keeps control = 0.
  const auto other = update_path_id_with_mat(cfg, mat, 0, 4, 1, 2);
  EXPECT_EQ(other, update_path_id(cfg, 0, 4, 1, 2, 0));
}

TEST(PathIdTest, ChainedHopsReproducible) {
  // Simulate a 4-hop path twice and at the control plane.
  const PathIdConfig cfg{};
  const ControlMat mat;
  std::uint32_t id1 = 0, id2 = 0;
  const std::uint32_t switches[] = {10, 11, 12, 13};
  for (int pass = 0; pass < 2; ++pass) {
    std::uint32_t& id = pass == 0 ? id1 : id2;
    id = 0;
    for (std::uint32_t i = 0; i < 4; ++i) {
      id = update_path_id_with_mat(cfg, mat, id, switches[i],
                                   static_cast<net::PortId>(i),
                                   static_cast<net::PortId>(i + 1));
    }
  }
  EXPECT_EQ(id1, id2);
}

TEST(PathIdTest, PathIdTermSplitsTheUpdate) {
  // The registry replays a hop as path_id_term(id) XOR the hop's update
  // of PathID 0; CRC's affinity makes that the full update at every shape.
  std::mt19937 rng(0x5EED);
  for (const PathIdConfig cfg : {PathIdConfig{HashKind::kCrc16, 16},
                                 PathIdConfig{HashKind::kCrc16, 10},
                                 PathIdConfig{HashKind::kCrc32, 32},
                                 PathIdConfig{HashKind::kCrc32, 12}}) {
    EXPECT_EQ(path_id_term(cfg, 0), 0u);
    for (int trial = 0; trial < 1000; ++trial) {
      const std::uint32_t id = rng() & cfg.mask();
      const net::SwitchId sw = rng() % 512;
      const auto in = static_cast<net::PortId>(rng());
      const auto out = static_cast<net::PortId>(rng());
      const std::uint32_t control = trial % 2 == 0 ? 0 : rng();
      EXPECT_EQ(update_path_id(cfg, id, sw, in, out, control),
                path_id_term(cfg, id) ^
                    update_path_id(cfg, 0, sw, in, out, control))
          << hash_name(cfg.hash) << "/" << cfg.width_bits << " trial "
          << trial;
    }
  }
}

}  // namespace
}  // namespace mars::telemetry
