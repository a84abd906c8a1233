#pragma once
// Lane: a per-entity scheduling handle that makes event order a pure
// function of the entity, not of sharding.
//
// Single-queue simulations order same-time events by global insertion
// sequence — a number that depends on which other entities happen to share
// the queue, so it cannot survive repartitioning. A Lane instead keys
// every event it schedules with (entity id << 40 | per-entity sequence):
// an entity always emits the same key stream no matter which shard (or
// how many shards) it runs on, so the sharded simulator replays the exact
// same execution at every shard count (the determinism invariant pinned
// by tests/scenario_determinism_test.cpp).
//
// A Lane can also be "plain" (unkeyed): it forwards to the simulator's
// ordinary insertion-sequence scheduling, byte-identical to pre-shard
// behavior. The legacy single-simulator Network binds plain lanes so the
// historical golden fingerprints are untouched.

#include <cassert>
#include <cstdint>
#include <utility>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace mars::sim {

class Lane {
 public:
  /// Bits reserved for the per-entity sequence: 2^40 events per entity
  /// (weeks of simulated time for the busiest switch) under 2^24 entities.
  static constexpr int kSeqBits = 40;

  Lane() = default;

  /// A keyed lane for `entity` on `sim` (a shard simulator).
  static Lane keyed(Simulator& sim, std::uint64_t entity) {
    Lane lane;
    lane.sim_ = &sim;
    lane.key_base_ = entity << kSeqBits;
    lane.keyed_ = true;
    return lane;
  }

  /// An unkeyed lane: plain insertion-sequence scheduling on `sim`.
  static Lane plain(Simulator& sim) {
    Lane lane;
    lane.sim_ = &sim;
    return lane;
  }

  [[nodiscard]] bool bound() const { return sim_ != nullptr; }
  [[nodiscard]] bool is_keyed() const { return keyed_; }
  [[nodiscard]] Simulator& simulator() const { return *sim_; }
  [[nodiscard]] Time now() const { return sim_->now(); }

  /// Next tie-break key of this entity's stream (keyed lanes only) — for
  /// events that must leave the lane's own simulator (cross-shard hops
  /// carry their key through a mailbox into the destination queue).
  [[nodiscard]] std::uint64_t next_key() {
    assert(keyed_);
    return key_base_ | seq_++;
  }

  template <typename F>
  void schedule_at(Time t, F&& fn) {
    if (keyed_) {
      sim_->schedule_at_keyed(t, key_base_ | seq_++, std::forward<F>(fn));
    } else {
      sim_->schedule_at(t, std::forward<F>(fn));
    }
  }

  template <typename F>
  void schedule_in(Time delay, F&& fn) {
    schedule_at(sim_->now() + delay, std::forward<F>(fn));
  }

  /// schedule_in() for a fixed per-kind delay (a link hop): the event
  /// rides the queue's FIFO lane for `delay`. Consumes one key of this
  /// entity's stream (keyed) or the next insertion sequence (plain), like
  /// schedule_in(), so the pop order is the same.
  template <typename F>
  void schedule_fixed(Time delay, F&& fn) {
    if (keyed_) {
      sim_->schedule_fixed_keyed(delay, key_base_ | seq_++,
                                 std::forward<F>(fn));
    } else {
      sim_->schedule_fixed(delay, std::forward<F>(fn));
    }
  }

 private:
  Simulator* sim_ = nullptr;
  std::uint64_t key_base_ = 0;
  std::uint64_t seq_ = 0;
  bool keyed_ = false;
};

}  // namespace mars::sim
