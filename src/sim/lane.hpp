#pragma once
// Lane: a per-entity scheduling handle that makes event order a pure
// function of the entity, not of sharding.
//
// A queue that orders same-time events by global insertion sequence ties
// them on a number that depends on which other entities happen to share
// the queue, so it cannot survive repartitioning. A Lane instead keys
// every event it schedules with (entity id << 40 | per-entity sequence):
// an entity always emits the same key stream no matter which shard (or
// how many shards) it runs on, so the sharded simulator replays the exact
// same execution at every shard count (the determinism invariant pinned
// by tests/scenario_determinism_test.cpp). Every switch and every traffic
// flow schedules through its own Lane.

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
    return lane;
  }

  [[nodiscard]] Simulator& simulator() const { return *sim_; }
  [[nodiscard]] Time now() const { return sim_->now(); }

  /// Next tie-break key of this entity's stream — for events that must
  /// leave the lane's own simulator (cross-shard hops carry their key
  /// through a mailbox into the destination queue).
  [[nodiscard]] std::uint64_t next_key() { return key_base_ | seq_++; }

  template <typename F>
  void schedule_at(Time t, F&& fn) {
    sim_->schedule_at_keyed(t, next_key(), std::forward<F>(fn));
  }

  template <typename F>
  void schedule_in(Time delay, F&& fn) {
    schedule_at(sim_->now() + delay, std::forward<F>(fn));
  }

  /// schedule_in() for a fixed per-kind delay (a link hop): the event
  /// rides the queue's FIFO lane for `delay`. Consumes one key of this
  /// entity's stream, like schedule_in(), so the pop order is the same.
  template <typename F>
  void schedule_fixed(Time delay, F&& fn) {
    sim_->schedule_fixed_keyed(delay, next_key(), std::forward<F>(fn));
  }

 private:
  Simulator* sim_ = nullptr;
  std::uint64_t key_base_ = 0;
  std::uint64_t seq_ = 0;
};

}  // namespace mars::sim
