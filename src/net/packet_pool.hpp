#pragma once
// Free-list pool holding every packet in the network.
//
// A packet occupies one pool slot from Network::inject until it leaves
// the network, and everything that moves it — the switch's port queue
// (a FifoRing of slot pointers), the link-hop event (whose closure
// captures the pointer and fits the inline event buffer) — carries only
// the slot pointer. A hop therefore copies no packet bytes and allocates
// nothing. Ownership rules:
//
//   * Network::inject acquires the slot; from then on exactly one holder
//     owns the pointer: the switch handling the packet, its port queue,
//     or the scheduled hop event.
//   * The packet is released to the pool of the switch where it leaves
//     the network: delivered at its sink, dropped (tail or fault), or
//     unroutable. A packet crossing a shard boundary is
//     copied into its mail and its source slot released at once; the
//     destination shard acquires a slot from its own pool when it drains
//     the mail. A pool is thus only ever touched by its own shard.
//   * Slots are never handed to application code (observers see a
//     Packet& for the duration of a callback); addresses are stable
//     (deque arena) for the lifetime of the pool.
//   * If the simulation ends with packets still queued or on a link,
//     their slots are simply destroyed with the pool — nothing leaks.

#include <cstddef>
#include <deque>
#include <vector>

#include "net/packet.hpp"

namespace mars::net {

class PacketPool {
 public:
  /// Park a copy of `pkt` in a slot. The returned pointer is stable until
  /// release().
  Packet* acquire(const Packet& pkt) {
    if (free_.empty()) {
      slots_.push_back(pkt);
      return &slots_.back();
    }
    Packet* slot = free_.back();
    free_.pop_back();
    *slot = pkt;
    return slot;
  }

  /// Return the slot of a packet leaving the network (or this shard).
  void release(Packet* slot) { free_.push_back(slot); }

  /// Arena size: the high-water mark of packets held at once.
  [[nodiscard]] std::size_t slot_count() const { return slots_.size(); }
  /// Packets held right now (queued, in service, or on a link).
  [[nodiscard]] std::size_t in_flight() const {
    return slots_.size() - free_.size();
  }

 private:
  std::deque<Packet> slots_;  ///< stable addresses; grows to peak in-flight
  std::vector<Packet*> free_;
};

}  // namespace mars::net
