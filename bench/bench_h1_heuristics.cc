// Section 5 heuristics (H1): solution quality and optimizer effort of the
// single-expression-tree restriction, the heuristic single marking, the
// greedy hill-climb, and the shielded search, against the exhaustive
// Algorithm OptimalViewSet — on ProblemDept and on chain joins of growing
// width.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "workload/chain.h"

namespace auxview {
namespace {

void RunComparison(const std::string& name, const Expr::Ptr& tree,
                   const Catalog& catalog,
                   const std::vector<TransactionType>& txns,
                   int max_tracks = 4096) {
  auto memo = BuildExpandedMemo(tree, catalog);
  if (!memo.ok()) return;
  ViewSelector selector(&*memo, &catalog);
  bench::PrintHeader("H1: strategies on " + name + " (" +
                         std::to_string(memo->LiveGroups().size()) +
                         " groups, " +
                         std::to_string(memo->LiveExprs().size()) + " ops)",
                     {"cost", "ratio", "viewsets", "tracks"});
  OptimizeOptions base;
  base.tracks.max_tracks = max_tracks;
  auto exhaustive = selector.Exhaustive(txns, base);
  if (!exhaustive.ok()) {
    std::printf("  exhaustive failed: %s\n",
                exhaustive.status().ToString().c_str());
    return;
  }
  auto report = [&](const char* label, const StatusOr<OptimizeResult>& r) {
    if (!r.ok()) {
      std::printf("  %-34s %s\n", label, r.status().ToString().c_str());
      return;
    }
    bench::PrintRow(label, {r->weighted_cost,
                            r->weighted_cost / exhaustive->weighted_cost,
                            static_cast<double>(r->viewsets_costed),
                            static_cast<double>(r->tracks_costed)});
  };
  report("exhaustive", exhaustive);
  report("shielding", selector.Shielding(txns, base));
  report("single-tree", selector.SingleTree(txns, base));
  report("heuristic-marking", selector.HeuristicMarking(txns, base));
  report("greedy", selector.Greedy(txns, base));
  OptimizeOptions approx = base;
  approx.tracks.greedy = true;
  report("greedy + approx tracks", selector.Greedy(txns, approx));
}

void PrintResults() {
  {
    EmpDeptWorkload workload{EmpDeptConfig{}};
    auto tree = workload.ProblemDeptTree();
    RunComparison("ProblemDept", *tree, workload.catalog(),
                  {workload.TxnModEmp(), workload.TxnModDept()});
  }
  for (int k : {3, 4, 5}) {
    ChainConfig config;
    config.num_relations = k;
    config.with_aggregate = true;
    ChainWorkload workload{config};
    auto tree = workload.ChainViewTree();
    if (!tree.ok()) continue;
    // chain-5's unbounded track space is huge; cap it so the "exhaustive"
    // reference stays bounded (documented in the output ratios).
    const int max_tracks = k >= 5 ? 64 : 4096;
    RunComparison("chain-" + std::to_string(k), *tree, workload.catalog(),
                  workload.AllTxns({4, 1, 1, 1, 1}), max_tracks);
  }

  // Enumeration wall time with/without the track-cost cache and with worker
  // threads, on the largest DAG the exhaustive reference fully explores.
  {
    ChainConfig config;
    config.num_relations = 4;
    config.with_aggregate = true;
    ChainWorkload workload{config};
    auto tree = workload.ChainViewTree();
    if (!tree.ok()) return;
    auto memo = BuildExpandedMemo(*tree, workload.catalog());
    if (!memo.ok()) return;
    OptimizeOptions base;
    base.tracks.max_tracks = 4096;
    bench::PrintOptimizerScaling(&*memo, &workload.catalog(),
                                 workload.AllTxns({4, 1, 1, 1, 1}), base,
                                 "H1 optimizer scaling: chain-4, 5 txns");
  }
}

void BM_StrategyOnChain4(benchmark::State& state) {
  static ChainWorkload workload{[] {
    ChainConfig c;
    c.num_relations = 4;
    c.with_aggregate = true;
    return c;
  }()};
  static Memo memo =
      std::move(BuildExpandedMemo(*workload.ChainViewTree(),
                                  workload.catalog())
                    .value());
  ViewSelector selector(&memo, &workload.catalog());
  const auto txns = workload.AllTxns();
  const int strategy = static_cast<int>(state.range(0));
  for (auto _ : state) {
    StatusOr<OptimizeResult> r = [&]() -> StatusOr<OptimizeResult> {
      switch (strategy) {
        case 0:
          return selector.Exhaustive(txns);
        case 1:
          return selector.Shielding(txns);
        case 2:
          return selector.SingleTree(txns);
        case 3:
          return selector.HeuristicMarking(txns);
        default:
          return selector.Greedy(txns);
      }
    }();
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_StrategyOnChain4)->DenseRange(0, 4)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace auxview

int main(int argc, char** argv) {
  return auxview::bench::BenchMain("h1_heuristics", argc, argv,
                                   [] { auxview::PrintResults(); });
}
