#pragma once
// Reference miner for the FSM property tests: enumerate every candidate
// pattern occurring in the database and count supports by scanning.
// Exponentially slower than the real miners but obviously correct — the
// property tests cross-validate all seven algorithms against it. Always
// sequential; `params.threads` is ignored.

#include <set>
#include <string_view>

#include "fsm/miner.hpp"

namespace mars::test_support {

class BruteForce final : public fsm::Miner {
 public:
  [[nodiscard]] fsm::MineResult mine_with_stats(
      const fsm::SequenceDatabase& db, const fsm::MiningParams& params,
      parallel::ThreadPool* /*pool*/ = nullptr) const override {
    const fsm::MineTimer timer;
    fsm::MineResult res;
    if (db.empty() || params.max_length == 0) {
      res.stats.wall_seconds = timer.seconds();
      return res;
    }
    const std::uint64_t min_sup = params.effective_min_support(db.total());

    std::set<fsm::Sequence> candidates;
    std::size_t candidate_bytes = 0;
    for (const auto& e : db.entries()) {
      collect_candidates(e.items, params.max_length, params.contiguous,
                         candidates);
    }
    for (const auto& cand : candidates) {
      candidate_bytes += sizeof(fsm::Sequence) + cand.size() * sizeof(fsm::Item);
      std::uint64_t sup = 0;
      for (const auto& e : db.entries()) {
        if (fsm::contains_pattern(e.items, cand, params.contiguous)) {
          sup += e.count;
        }
      }
      if (sup >= min_sup) res.patterns.push_back(fsm::Pattern{cand, sup});
    }
    res.stats.patterns = res.patterns.size();
    res.stats.nodes_expanded = candidates.size();
    res.stats.peak_bytes = candidate_bytes;
    res.stats.wall_seconds = timer.seconds();
    return res;
  }
  [[nodiscard]] std::string_view name() const override {
    return "BruteForce";
  }

 private:
  // All distinct subsequences of `seq` up to `max_len` under the semantics.
  static void collect_candidates(const fsm::Sequence& seq,
                                 std::size_t max_len, bool contiguous,
                                 std::set<fsm::Sequence>& out) {
    if (contiguous) {
      for (std::size_t i = 0; i < seq.size(); ++i) {
        fsm::Sequence cand;
        for (std::size_t j = i; j < seq.size() && cand.size() < max_len;
             ++j) {
          cand.push_back(seq[j]);
          out.insert(cand);
        }
      }
      return;
    }
    // Gapped: DFS over index choices.
    fsm::Sequence cand;
    auto dfs = [&](auto&& self, std::size_t start) -> void {
      if (cand.size() >= max_len) return;
      for (std::size_t i = start; i < seq.size(); ++i) {
        cand.push_back(seq[i]);
        out.insert(cand);
        self(self, i + 1);
        cand.pop_back();
      }
    };
    dfs(dfs, 0);
  }
};

}  // namespace mars::test_support
