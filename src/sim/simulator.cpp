#include "sim/simulator.hpp"

#include <cassert>

namespace mars::sim {

void Simulator::run(Time until) {
  run_events(until);
  if (now_ < until && until != std::numeric_limits<Time>::max()) {
    now_ = until;
  }
}

void Simulator::run_events(Time until) {
  // Fused peek+pop: one heap traversal per event instead of a next_time()
  // probe followed by a pop().
  Time t = 0;
  EventFn fn;
  while (queue_.pop_if_at_most(until, t, fn)) {
    assert(t >= now_);
    now_ = t;
    ++executed_;
    fn();
    fn.reset();
  }
}

}  // namespace mars::sim
