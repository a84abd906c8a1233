#pragma once
// Growable circular FIFO.
//
// std::deque allocates and frees ~512-byte blocks as elements roll through,
// so a switch port queue in steady state still produces heap traffic on
// every few packets. FifoRing keeps a power-of-two array that only grows
// (doubling) and never shrinks: once warm, push/pop are pointer bumps with
// zero allocations. Distinct from util::RingBuffer, which is the paper's
// fixed-capacity *overwriting* Ring Table storage.

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace mars::util {

template <typename T>
class FifoRing {
 public:
  FifoRing() = default;

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  /// Current allocated capacity (doubles on demand, never shrinks).
  [[nodiscard]] std::size_t capacity() const { return data_.size(); }

  void push_back(T value) {
    if (count_ == data_.size()) grow();
    data_[(head_ + count_) & mask_] = std::move(value);
    ++count_;
  }

  [[nodiscard]] T& front() {
    assert(count_ > 0);
    return data_[head_];
  }
  [[nodiscard]] const T& front() const {
    assert(count_ > 0);
    return data_[head_];
  }

  /// Newest element.
  [[nodiscard]] const T& back() const {
    assert(count_ > 0);
    return data_[(head_ + count_ - 1) & mask_];
  }

  void pop_front() {
    assert(count_ > 0);
    data_[head_] = T{};  // release resources held by the departed element
    head_ = (head_ + 1) & mask_;
    --count_;
  }

  /// Drop the front element WITHOUT clearing its slot. Only valid when the
  /// caller has already moved the element's resources out (the moved-from
  /// shell owns nothing); skips the T{} construct+assign of pop_front on
  /// the per-packet service path.
  void drop_front_moved() {
    assert(count_ > 0);
    head_ = (head_ + 1) & mask_;
    --count_;
  }

  /// Element by logical index: 0 is the front (oldest).
  [[nodiscard]] const T& at(std::size_t i) const {
    assert(i < count_);
    return data_[(head_ + i) & mask_];
  }

  void clear() {
    for (std::size_t i = 0; i < count_; ++i) {
      data_[(head_ + i) & mask_] = T{};
    }
    head_ = 0;
    count_ = 0;
  }

 private:
  void grow() {
    const std::size_t new_cap = data_.empty() ? kInitialCapacity
                                              : data_.size() * 2;
    std::vector<T> next(new_cap);
    for (std::size_t i = 0; i < count_; ++i) {
      next[i] = std::move(data_[(head_ + i) & mask_]);
    }
    data_ = std::move(next);
    head_ = 0;
    mask_ = new_cap - 1;
  }

  static constexpr std::size_t kInitialCapacity = 8;

  std::vector<T> data_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::size_t mask_ = 0;
};

}  // namespace mars::util
