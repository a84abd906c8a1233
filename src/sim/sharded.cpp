#include "sim/sharded.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <tuple>
#include <utility>

namespace mars::sim {

namespace {
constexpr Time kInf = std::numeric_limits<Time>::max();
}  // namespace

ShardedSimulator::ShardedSimulator(parallel::ThreadPool* pool,
                                   ShardedConfig config)
    : config_(config), pool_(pool),
      shards_(static_cast<std::size_t>(std::max(config.shards, 1))) {
  assert(config_.lookahead >= 1 && "zero lookahead cannot make progress");
  assert(config_.control_latency >= config_.lookahead &&
         "control messages must not undercut the conservative window");
}

void ShardedSimulator::post_control(int shard, Time at, std::uint64_t key,
                                    EventFn fn) {
  shards_[static_cast<std::size_t>(shard)].outbox.push_back(
      ControlMail{at, key, std::move(fn)});
}

void ShardedSimulator::drain_control_outboxes() {
  control_staging_.clear();
  for (auto& s : shards_) {
    for (auto& mail : s.outbox) {
      control_staging_.push_back(std::move(mail));
    }
    s.outbox.clear();
  }
  if (control_staging_.empty()) return;
  // (at, key) pairs are unique — the key embeds the sender's entity id —
  // so this order is total and independent of shard layout and of the
  // outbox visit order above.
  std::sort(control_staging_.begin(), control_staging_.end(),
            [](const ControlMail& a, const ControlMail& b) {
              return std::tie(a.at, a.key) < std::tie(b.at, b.key);
            });
  for (auto& mail : control_staging_) {
    global_.schedule_at(mail.at, std::move(mail.fn));
  }
  control_staging_.clear();
}

void ShardedSimulator::run_window(std::size_t lane) {
  Shard& s = shards_[lane];
  if (mail_hooks_.drain) mail_hooks_.drain(static_cast<int>(lane));
  // Events strictly below window_ are independent across shards (nothing
  // scheduled at >= T_l can reach another shard before T_l + lookahead >=
  // window_).
  const std::uint64_t before = s.sim.events_executed();
  // The clock stays at the shard's last event: a global round moves it
  // on (plan_window), and an unbounded run ends every clock there.
  s.sim.run_events(window_ - 1);
  const std::uint64_t ran = s.sim.events_executed() - before;
  s.window_ran = ran;
  ++s.stats.windows;
  if (ran > 0) ++s.stats.busy_windows;
  s.stats.window_events += ran;
  s.stats.max_window_events = std::max(s.stats.max_window_events, ran);
  ++s.stats.window_event_hist[ShardStats::hist_bucket(ran)];
}

void ShardedSimulator::close_window() {
  std::uint64_t widest = 0;
  for (const auto& s : shards_) widest = std::max(widest, s.window_ran);
  sync_.critical_path_events += widest;
  mail_bound_ = mail_hooks_.seal ? mail_hooks_.seal() : std::nullopt;
  drain_control_outboxes();
}

bool ShardedSimulator::plan_window(Time until) {
  for (;;) {
    Time t_l = mail_bound_.value_or(kInf);
    for (auto& s : shards_) {
      if (const auto t = s.sim.next_event_time()) t_l = std::min(t_l, *t);
    }
    const Time t_g = global_.next_event_time().value_or(kInf);
    const Time next = std::min(t_l, t_g);
    if (next == kInf || next > until) return false;

    if (t_g <= t_l) {
      // Global events run BEFORE any shard event at the same time: a
      // threshold write or fault injection at virtual time T is visible
      // to exactly the shard events at t >= T, independent of sharding.
      // They run here, between windows, with every shard quiescent, so
      // they may touch shard state (schedule onto shard lanes, flip
      // switch fault knobs, inject packets) directly — with every shard
      // clock first moved to T, so what they schedule there starts at T.
      ++sync_.global_rounds;
      for (auto& s : shards_) s.sim.advance_to(t_g);
      global_.run(t_g);
      continue;
    }

    // Next parallel window: every shard executes events in [.., W).
    // Capped by the next global event (rule above), by end-of-run
    // (until + 1 so events at exactly `until` still execute, matching
    // Simulator::run), and by the conservative lookahead bound.
    Time w = until == kInf ? kInf : until + 1;
    bool stalled = false;
    bool capped_by_global = false;
    if (t_l + config_.lookahead < w) {
      w = t_l + config_.lookahead;
      stalled = true;
    }
    if (t_g < w) {
      w = t_g;
      stalled = false;
      capped_by_global = true;
    }
    window_ = w;
    ++sync_.windows;
    if (stalled) {
      ++sync_.lookahead_stalls;
    } else if (capped_by_global) {
      ++sync_.windows_capped_by_global;
    } else {
      ++sync_.windows_to_end;
    }
    return true;
  }
}

void ShardedSimulator::run(Time until) {
  if (plan_window(until)) {
    auto control = [this, until](std::uint64_t /*epoch*/) {
      close_window();
      return plan_window(until);
    };
    if (pool_ != nullptr) {
      pool_->run_epochs(
          shards_.size(),
          [this](std::size_t lane, std::uint64_t /*epoch*/) {
            run_window(lane);
          },
          control);
    } else {
      do {
        for (std::size_t lane = 0; lane < shards_.size(); ++lane) {
          run_window(lane);
        }
      } while (control(0));
    }
  }
  // Advance every clock to `until` exactly like Simulator::run does on an
  // empty queue (pending events, if any, are all beyond `until`); an
  // unbounded run leaves every clock at the last event anywhere.
  if (until == kInf) {
    until = global_.now();
    for (const auto& s : shards_) until = std::max(until, s.sim.now());
  }
  for (auto& s : shards_) s.sim.run(until);
  global_.run(until);
}

std::uint64_t ShardedSimulator::events_executed() const {
  std::uint64_t total = global_.events_executed();
  for (const auto& s : shards_) total += s.sim.events_executed();
  return total;
}

}  // namespace mars::sim
