#pragma once
// Pending-event set for the discrete-event simulator.
//
// A 4-ary min-heap of (time, sequence) keys over a slot arena holding the
// handlers, plus up to kMaxLanes fixed-delay FIFO lanes beside it. The
// sequence number breaks ties deterministically in insertion order, which
// keeps simulations reproducible regardless of heap internals.
//
// Fixed-delay lanes. Most events a network schedules are link hops at
// now + propagation, and a topology has one or two propagation values.
// schedule_fixed_keyed() tags an event with its delay; the queue keeps one
// lane (a growable ring of heap entries) per distinct delay, up to
// kMaxLanes, and appends the entry to its delay's lane only when its
// (time, key) is at least the lane's tail key. Otherwise — and for a
// delay past the cap — the entry goes to the heap. Every lane is
// therefore sorted, its head is its minimum, and every pop takes the
// least of the heap top and the lane heads by the full key: exactly the
// order of a heap-only queue. Since now never decreases, an append falls
// back to the heap only on an equal-time key inversion between entities.
// A lane push is a ring append instead of a sift, and the heap stays
// about half as deep.
//
// Event ids are generation-stamped: the returned uint64 packs
// (generation << 32 | slot index), and a slot's generation bumps every
// time it is vacated (pop or cancel). cancel() is O(1) and hash-free: it
// validates the stamp, destroys the handler, and bumps the generation;
// the heap or lane entry becomes a tombstone that pop()/next_time()
// recognise by its stale stamp and discard when it reaches the front.
// Sift operations touch only the contiguous heap array — no per-move
// bookkeeping writes into the arena. Handlers are reclaimed as events
// execute or cancel, so long-running simulations (hours of virtual time,
// billions of events) stay at O(live events) memory with zero
// steady-state allocations.
//
// A stale id is never honoured: a reused slot carries a new generation,
// so cancel() on an already-run (or already-cancelled) event returns
// false even after its slot has been recycled. (Each slot would need to
// be reused 2^32 times between a schedule and its cancel to alias.)

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/inline_function.hpp"
#include "sim/time.hpp"
#include "util/fifo_ring.hpp"

namespace mars::sim {

class EventQueue {
 public:
  /// Distinct delays that get a FIFO lane; the first kMaxLanes delays
  /// passed to schedule_fixed_keyed() claim one each, later ones use the
  /// heap.
  static constexpr std::size_t kMaxLanes = 4;

  /// Schedule fn at absolute time t. Returns an id usable with cancel().
  /// The callable is constructed directly in its arena slot — a lambda
  /// that fits the inline buffer never touches the heap or relocates.
  template <typename F>
  std::uint64_t schedule(Time t, F&& fn) {
    const std::uint32_t idx = alloc_slot();
    slots_[idx].fn.assign(std::forward<F>(fn));
    return push_scheduled(t, idx);
  }

  /// Schedule a pre-built EventFn (move-assigned into its arena slot).
  /// Used when a handler was parked outside the queue — e.g. cross-shard
  /// control messages staged in a mailbox — and is now being scheduled.
  std::uint64_t schedule(Time t, EventFn&& fn) {
    const std::uint32_t idx = alloc_slot();
    slots_[idx].fn = std::move(fn);
    return push_scheduled(t, idx);
  }

  /// Schedule fn at time t with an explicit tie-break key in place of the
  /// internal insertion sequence. The heap key becomes (t, tiebreak), so
  /// the execution order of same-time events is a pure function of the
  /// caller-supplied keys — independent of the order the schedule calls
  /// happened to arrive in. The sharded simulator keys every shard-local
  /// event by (entity id, per-entity sequence), which is what makes a
  /// fixed-seed run bit-identical at every shard count.
  ///
  /// Caller contract: (t, tiebreak) pairs must be unique among live keyed
  /// events, and a queue should not mix keyed and unkeyed scheduling at
  /// the same timestamp (the internal sequence could collide with a key).
  template <typename F>
  std::uint64_t schedule_keyed(Time t, std::uint64_t tiebreak, F&& fn) {
    const std::uint32_t idx = alloc_slot();
    slots_[idx].fn.assign(std::forward<F>(fn));
    return push_keyed(t, tiebreak, idx);
  }

  std::uint64_t schedule_keyed(Time t, std::uint64_t tiebreak, EventFn&& fn) {
    const std::uint32_t idx = alloc_slot();
    slots_[idx].fn = std::move(fn);
    return push_keyed(t, tiebreak, idx);
  }

  /// Schedule fn at absolute time t == now + delay, where `delay` is a
  /// fixed per-kind delay (a link's propagation): the entry rides the FIFO
  /// lane for `delay` when that keeps the lane sorted, the heap otherwise.
  /// Pops in the same order as schedule_keyed(t, tiebreak, fn).
  template <typename F>
  std::uint64_t schedule_fixed_keyed(Time t, Time delay,
                                     std::uint64_t tiebreak, F&& fn) {
    const std::uint32_t idx = alloc_slot();
    slots_[idx].fn.assign(std::forward<F>(fn));
    return push_fixed(t, delay, tiebreak, idx);
  }

  /// Cancel a scheduled event in O(1). Returns false if it already ran,
  /// was already cancelled, or the id is stale (its slot was reused).
  bool cancel(std::uint64_t id);

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }
  /// Time of the earliest live event. Undefined when empty(). Discards
  /// cancelled tombstones that have reached the front of the heap or a
  /// lane.
  [[nodiscard]] Time next_time();

  /// Remove and return the earliest live event.
  std::pair<Time, EventFn> pop();

  /// Fused peek+pop for the run loop: if the earliest live event is at or
  /// before `until`, move it into (t_out, fn_out) and return true.
  bool pop_if_at_most(Time until, Time& t_out, EventFn& fn_out);

  /// Entries pushed onto the heap / appended to a fixed-delay lane since
  /// construction (tombstones included). Their sum is every schedule call.
  [[nodiscard]] std::uint64_t heap_pushes() const { return heap_pushes_; }
  [[nodiscard]] std::uint64_t lane_pushes() const { return lane_pushes_; }

 private:
  /// Heap entries carry their full ordering key plus the generation stamp
  /// they were scheduled under; an entry whose stamp no longer matches its
  /// slot is a tombstone.
  ///
  /// The (time, seq) lexicographic key is packed into one 128-bit integer
  /// so sift comparisons compile to a branchless cmp/sbb instead of a
  /// data-dependent two-field branch — event times are effectively random,
  /// so the branchy form mispredicts ~50% of the time in the min-child
  /// scan. Requires time >= 0 (the Simulator never goes negative).
  struct HeapEntry {
    unsigned __int128 key = 0;  ///< (time << 64) | seq
    std::uint32_t slot = 0;
    std::uint32_t generation = 0;

    [[nodiscard]] static unsigned __int128 make_key(Time t,
                                                    std::uint64_t seq) {
      return (static_cast<unsigned __int128>(static_cast<std::uint64_t>(t))
              << 64) |
             seq;
    }
    [[nodiscard]] Time time() const {
      return static_cast<Time>(static_cast<std::uint64_t>(key >> 64));
    }
  };

  struct Slot {
    EventFn fn;                    // 56 bytes (48 SBO + vtable pointer)
    std::uint32_t generation = 0;  // -> 64-byte slot, cache-line aligned
  };

  /// One fixed-delay lane: entries in ascending key order.
  struct FixedLane {
    Time delay = 0;
    util::FifoRing<HeapEntry> entries;
  };

  /// Source index of the heap in earliest_source()/front_of()/drop_front().
  static constexpr std::size_t kHeapSource = kMaxLanes;

  /// Strict ordering: earlier time first, insertion order at equal times.
  [[nodiscard]] static bool before(const HeapEntry& a, const HeapEntry& b) {
    return a.key < b.key;
  }

  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);
  /// Remove the root entry (live or tombstone) from the heap.
  void pop_root();
  /// Where the earliest entry (live or tombstone) sits: a lane index or
  /// kHeapSource. Requires at least one entry in the heap or a lane.
  [[nodiscard]] std::size_t earliest_source() const;
  [[nodiscard]] const HeapEntry& front_of(std::size_t source) const {
    return source == kHeapSource ? heap_.front()
                                 : lanes_[source].entries.front();
  }
  /// Remove the front entry (live or tombstone) of one source.
  void drop_front(std::size_t source) {
    if (source == kHeapSource) {
      pop_root();
    } else {
      lanes_[source].entries.drop_front_moved();
    }
  }
  /// Vacate a slot: destroy its handler, bump the generation stamp, and
  /// return it to the free list.
  void retire_slot(std::uint32_t idx) {
    Slot& slot = slots_[idx];
    slot.fn.reset();
    ++slot.generation;
    free_.push_back(idx);
    --live_;
  }

  /// Take a slot from the free list (or grow the arena).
  std::uint32_t alloc_slot() {
    if (free_.empty()) {
      const auto idx = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
      return idx;
    }
    const std::uint32_t idx = free_.back();
    free_.pop_back();
    return idx;
  }

  /// Heap insertion half of schedule(); returns the stamped event id.
  std::uint64_t push_scheduled(Time t, std::uint32_t idx) {
    return push_keyed(t, next_seq_++, idx);
  }

  /// Heap insertion with an explicit tie-break key.
  std::uint64_t push_keyed(Time t, std::uint64_t tiebreak,
                           std::uint32_t idx) {
    const std::uint32_t generation = slots_[idx].generation;
    heap_.push_back(HeapEntry{HeapEntry::make_key(t, tiebreak), idx,
                              generation});
    sift_up(heap_.size() - 1);
    ++heap_pushes_;
    ++live_;
    return (static_cast<std::uint64_t>(generation) << 32) | idx;
  }

  /// Append to the lane for `delay` if that keeps it sorted, else push
  /// onto the heap.
  std::uint64_t push_fixed(Time t, Time delay, std::uint64_t tiebreak,
                           std::uint32_t idx) {
    FixedLane* lane = lane_for(delay);
    const std::uint32_t generation = slots_[idx].generation;
    const HeapEntry entry{HeapEntry::make_key(t, tiebreak), idx, generation};
    if (lane == nullptr ||
        (!lane->entries.empty() && before(entry, lane->entries.back()))) {
      return push_keyed(t, tiebreak, idx);
    }
    lane->entries.push_back(entry);
    ++lane_pushes_;
    ++live_;
    return (static_cast<std::uint64_t>(generation) << 32) | idx;
  }

  /// The lane tagged `delay`, claiming a free one if the cap allows;
  /// nullptr when every lane belongs to another delay.
  FixedLane* lane_for(Time delay) {
    for (std::size_t i = 0; i < lane_count_; ++i) {
      if (lanes_[i].delay == delay) return &lanes_[i];
    }
    if (lane_count_ == kMaxLanes) return nullptr;
    lanes_[lane_count_].delay = delay;
    return &lanes_[lane_count_++];
  }

  std::vector<Slot> slots_;          ///< arena; grows to peak live events
  std::vector<HeapEntry> heap_;      ///< 4-ary min-heap; may hold tombstones
  std::array<FixedLane, kMaxLanes> lanes_;  ///< sorted; may hold tombstones
  std::size_t lane_count_ = 0;       ///< lanes claimed by a delay
  std::vector<std::uint32_t> free_;  ///< vacated slot indices
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;             ///< scheduled minus (run + cancelled)
  std::uint64_t heap_pushes_ = 0;
  std::uint64_t lane_pushes_ = 0;
};

}  // namespace mars::sim
