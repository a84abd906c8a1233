#pragma once
// A small fixed-size thread pool.
//
// Used by the experiment harness to fan out independent fault-injection
// trials (Table 1 runs hundreds of simulations) and by the vertical FSM
// miners to parallelize candidate joins. Tasks must not block on other
// tasks submitted to the same pool.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "parallel/barrier.hpp"

namespace mars::parallel {

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Enqueue a task; the returned future yields its result.
  ///
  /// Wake-up contract: each submit() calls cv_.notify_one() exactly once,
  /// after releasing the queue lock. One notify per task is sufficient
  /// because a worker that finishes a task re-checks the queue under the
  /// lock before sleeping again, so a notify can never be "lost" between
  /// a task being enqueued and a worker going idle; notifying outside the
  /// lock avoids waking a worker only to have it block on the mutex.
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> result = task->get_future();
    {
      std::lock_guard lock(mutex_);
      queue_.emplace_back([task]() mutable { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

  /// Run a barrier-synchronized epoch loop over `lanes` parallel lanes.
  ///
  /// Each epoch e: every lane runs `body(lane, e)` exactly once, then all
  /// parties meet at a spin barrier where `control(e)` runs exclusively
  /// (single-threaded, all lanes quiescent); the loop continues while it
  /// returns true. Unlike per-epoch submit() fan-out, the worker closures
  /// are submitted ONCE — the epoch loop itself runs inside them — so an
  /// epoch costs two barrier crossings and zero task allocations.
  ///
  /// min(size(), lanes - 1) workers plus the calling thread participate,
  /// so a pool of lanes - 1 workers runs `lanes` lanes on exactly `lanes`
  /// threads, and the caller works a lane instead of only waiting. Lane
  /// ownership is strided and FIXED across epochs (party p always runs
  /// lanes p, p+parties, ...; the caller is the last party, so with a
  /// thread per lane it owns the last lane), so per-lane state never
  /// migrates between threads mid-loop. Everything `control` writes is
  /// visible to every lane of the next epoch (barrier release/acquire),
  /// and everything the lanes wrote in epoch e is visible to `control(e)`.
  ///
  /// The pool must be otherwise idle: the participating workers are
  /// occupied until the loop ends, so tasks submitted concurrently (or a
  /// nested run_epochs on the same pool) would starve. With one lane or no
  /// workers the loop runs inline on the caller, with no barrier.
  template <typename Body, typename Control>
  void run_epochs(std::size_t lanes, Body&& body, Control&& control) {
    if (lanes == 0) return;
    const std::size_t helpers = std::min(size(), lanes - 1);
    if (helpers == 0) {
      for (std::uint64_t e = 0;; ++e) {
        for (std::size_t lane = 0; lane < lanes; ++lane) body(lane, e);
        if (!control(e)) return;
      }
    }
    const std::size_t parties = helpers + 1;  // workers + calling thread
    SpinBarrier barrier(parties);
    std::atomic<bool> running{true};
    auto party_loop = [&](std::size_t party) {
      for (std::uint64_t e = 0;; ++e) {
        for (std::size_t lane = party; lane < lanes; lane += parties) {
          body(lane, e);
        }
        barrier.arrive_and_wait(
            [&] { running.store(control(e), std::memory_order_relaxed); });
        // Ordered by the barrier's generation release/acquire: every party
        // sees the verdict control() just stored.
        if (!running.load(std::memory_order_relaxed)) return;
      }
    };
    std::vector<std::future<void>> parked;
    parked.reserve(helpers);
    for (std::size_t p = 0; p < helpers; ++p) {
      parked.push_back(submit([&party_loop, p] { party_loop(p); }));
    }
    party_loop(helpers);
    for (auto& f : parked) f.get();
  }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace mars::parallel
