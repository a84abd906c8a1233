// fsm_explorer — play with the frequent-sequence miners on the paper's
// worked example (§4.4.2) and on synthetic path databases, comparing the
// seven algorithms' outputs, runtimes and memory.
//
//   $ fsm_explorer            # paper example + a fat-tree database sweep

#include <cstdio>

#include "fsm/miner.hpp"
#include "net/fat_tree.hpp"
#include "net/routing.hpp"
#include "rca/sbfl.hpp"
#include "util/rng.hpp"

namespace {

using namespace mars;

void explore_paper_example() {
  std::printf("== Paper §4.4.2 worked example ==\n");
  std::printf("database: 4 x <s3,s2,s4>, 2 x <s6,s2,s7>; min support 50%%, "
              "max length 2\n");
  fsm::SequenceDatabase db;
  db.add({3, 2, 4}, 4);
  db.add({6, 2, 7}, 2);
  fsm::MiningParams params;
  params.min_support_rel = 0.5;
  params.max_length = 2;
  params.contiguous = true;

  const auto miner = fsm::make_miner(fsm::MinerKind::kPrefixSpan);
  auto patterns = miner->mine(db, params);
  fsm::sort_patterns(patterns);
  std::printf("frequent patterns:");
  for (const auto& p : patterns) {
    std::printf(" %s", fsm::to_string(p).c_str());
  }
  std::printf("\n(expected: <s2>:6 <s3>:4 <s4>:4 <s2,s4>:4 <s3,s2>:4)\n\n");
}

void compare_miners() {
  std::printf("== Miner comparison on a K=8 fat-tree abnormal set ==\n");
  const auto ft = net::build_fat_tree({.k = 8});
  const net::RoutingTable routing(ft.topology);
  util::Rng rng(11);
  fsm::SequenceDatabase db;
  for (const auto& path : routing.enumerate_edge_paths()) {
    db.add(fsm::Sequence(path.begin(), path.end()), 1 + rng.below(8));
  }
  fsm::MiningParams params;
  params.min_support_rel = 0.05;
  params.max_length = 2;
  params.contiguous = true;

  std::printf("  %-11s | patterns | time (ms) | memory (KB) | nodes\n",
              "miner");
  for (const auto kind : fsm::all_miner_kinds()) {
    const auto miner = fsm::make_miner(kind);
    const auto result = miner->mine_with_stats(db, params);
    std::printf("  %-11s | %8zu | %9.2f | %11.1f | %zu\n",
                std::string(miner->name()).c_str(), result.stats.patterns,
                result.stats.wall_seconds * 1e3,
                static_cast<double>(result.stats.peak_bytes) / 1024.0,
                result.stats.nodes_expanded);
  }
  std::printf("\n");
}

void score_example() {
  std::printf("== SBFL scoring of the worked example ==\n");
  fsm::SequenceDatabase abnormal, normal;
  abnormal.add({3, 2, 4}, 4);
  abnormal.add({6, 2, 7}, 2);
  normal.add({3, 5, 4}, 10);  // healthy traffic avoids s2
  normal.add({6, 5, 7}, 10);

  fsm::MiningParams params;
  params.min_support_rel = 0.5;
  params.max_length = 2;
  const auto patterns =
      fsm::make_miner(fsm::MinerKind::kPrefixSpan)->mine(abnormal, params);
  const auto scored = rca::score_patterns(
      patterns, abnormal, normal, true, rca::SbflFormula::kRelativeRisk);
  for (const auto& sp : scored) {
    std::printf("  %-10s relative-risk=%.2f (pf=%llu ps=%llu nf=%llu "
                "ns=%llu)\n",
                fsm::to_string(sp.pattern).c_str(), sp.score,
                static_cast<unsigned long long>(sp.counts.n_pf),
                static_cast<unsigned long long>(sp.counts.n_ps),
                static_cast<unsigned long long>(sp.counts.n_nf),
                static_cast<unsigned long long>(sp.counts.n_ns));
  }
  std::printf("(s2 — the switch all failing paths share and no healthy "
              "path touches — tops the list)\n");
}

}  // namespace

int main() {
  explore_paper_example();
  compare_miners();
  score_example();
  return 0;
}
