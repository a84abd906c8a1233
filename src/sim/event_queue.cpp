#include "sim/event_queue.hpp"

#include <cassert>

namespace mars::sim {

// 4-ary layout: children of pos are 4*pos+1 .. 4*pos+4, parent (pos-1)/4.
// The wider fan-out halves tree depth versus a binary heap, and sift
// compares stream through the contiguous heap array only.

void EventQueue::sift_up(std::size_t pos) {
  const HeapEntry moving = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 4;
    if (!before(moving, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    pos = parent;
  }
  heap_[pos] = moving;
}

void EventQueue::sift_down(std::size_t pos) {
  // Bottom-up variant: the displaced entry is almost always heap-bottom
  // material (pop_root moves the last leaf to the root), so percolate the
  // hole to a leaf along the min-child path without testing `moving` at
  // each level, then bubble `moving` back up the same path. This trades
  // the per-level "is moving smaller?" compare for a short upward walk
  // that usually terminates immediately.
  const std::size_t n = heap_.size();
  const HeapEntry moving = heap_[pos];
  std::size_t hole = pos;
  for (;;) {
    const std::size_t first_child = 4 * hole + 1;
    if (first_child >= n) break;
    std::size_t best;
    if (first_child + 3 < n) {
      // Full fan-out (the common case): branchless cmov tournament over
      // the four children. Keys are unique, so bracket order is moot.
      const std::size_t c0 = first_child;
      const std::size_t b01 = before(heap_[c0 + 1], heap_[c0]) ? c0 + 1 : c0;
      const std::size_t b23 =
          before(heap_[c0 + 3], heap_[c0 + 2]) ? c0 + 3 : c0 + 2;
      best = before(heap_[b23], heap_[b01]) ? b23 : b01;
    } else {
      const std::size_t last_child = n - 1;
      best = first_child;
      for (std::size_t c = first_child + 1; c <= last_child; ++c) {
        if (before(heap_[c], heap_[best])) best = c;
      }
    }
    heap_[hole] = heap_[best];
    hole = best;
  }
  while (hole > pos) {
    const std::size_t parent = (hole - 1) / 4;
    if (!before(moving, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = moving;
}

void EventQueue::pop_root() {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_.front() = last;
    sift_down(0);
  }
}

std::size_t EventQueue::earliest_source() const {
  // Keys are unique, so the least of the heap top and the lane heads is
  // the one entry a heap-only queue would pop next. An empty heap reads
  // as the largest key (live keys have time >= 0, so the top bit is 0).
  std::size_t best = kHeapSource;
  unsigned __int128 best_key =
      heap_.empty() ? ~static_cast<unsigned __int128>(0) : heap_.front().key;
  for (std::size_t i = 0; i < lane_count_; ++i) {
    const auto& entries = lanes_[i].entries;
    if (!entries.empty() && entries.front().key < best_key) {
      best_key = entries.front().key;
      best = i;
    }
  }
  return best;
}

bool EventQueue::cancel(std::uint64_t id) {
  const auto idx = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  if (idx >= slots_.size()) return false;
  Slot& slot = slots_[idx];
  if (slot.generation != generation) {
    return false;  // already ran, already cancelled, or stale id
  }
  // The heap or lane entry stays behind as a tombstone; pop()/next_time()
  // discard it when it reaches the front, recognised by the stale stamp.
  retire_slot(idx);
  return true;
}

Time EventQueue::next_time() {
  for (;;) {
    assert(live_ > 0);
    const std::size_t source = earliest_source();
    const HeapEntry& top = front_of(source);
    if (slots_[top.slot].generation == top.generation) return top.time();
    drop_front(source);
  }
}

std::pair<Time, EventFn> EventQueue::pop() {
  for (;;) {
    assert(live_ > 0);
    const std::size_t source = earliest_source();
    const HeapEntry top = front_of(source);
    drop_front(source);
    Slot& slot = slots_[top.slot];
    if (slot.generation != top.generation) continue;  // tombstone
    std::pair<Time, EventFn> out{top.time(), std::move(slot.fn)};
    retire_slot(top.slot);
    return out;
  }
}

bool EventQueue::pop_if_at_most(Time until, Time& t_out, EventFn& fn_out) {
  for (;;) {
    if (live_ == 0) return false;
    const std::size_t source = earliest_source();
    const HeapEntry top = front_of(source);
    Slot& slot = slots_[top.slot];
    if (slot.generation != top.generation) {  // tombstone
      drop_front(source);
      continue;
    }
    if (top.time() > until) return false;
    drop_front(source);
    t_out = top.time();
    fn_out = std::move(slot.fn);
    retire_slot(top.slot);
    return true;
  }
}

}  // namespace mars::sim
