// Reproduces the paper's Figure 3 / Example 3.1 (ADeptsStatus): the
// expression tree that is optimal for evaluating the view as a query
// differs from the one worth materializing for maintenance. With updates
// only to ADepts, the optimizer must choose to materialize
// V1 = Join(Aggregate(Emp BY DName), Dept): an ADepts update then needs a
// single lookup into V1, and V1 itself never changes.

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace auxview {
namespace {

struct F3Setup {
  std::unique_ptr<EmpDeptWorkload> workload;
  std::unique_ptr<Memo> memo;
  std::unique_ptr<ViewSelector> selector;
};

F3Setup& Setup() {
  static F3Setup* setup = [] {
    auto* s = new F3Setup;
    EmpDeptConfig config;
    config.with_adepts = true;
    s->workload = std::make_unique<EmpDeptWorkload>(config);
    auto tree = s->workload->ADeptsStatusTree();
    auto memo = BuildExpandedMemo(*tree, s->workload->catalog());
    s->memo = std::make_unique<Memo>(std::move(memo).value());
    s->selector = std::make_unique<ViewSelector>(s->memo.get(),
                                                 &s->workload->catalog());
    return s;
  }();
  return *setup;
}

void PrintResult() {
  auto& s = Setup();
  std::printf(
      "\nF3: ADeptsStatus (Example 3.1) — updates only to ADepts\n");
  std::printf("  DAG: %zu equivalence nodes, %zu operation nodes\n",
              s.memo->LiveGroups().size(), s.memo->LiveExprs().size());

  OptimizeOptions options;
  options.keep_all = true;
  auto result = s.selector->Exhaustive({s.workload->TxnInsertADept()},
                                       options);
  if (!result.ok()) {
    std::printf("  optimize failed: %s\n", result.status().ToString().c_str());
    return;
  }
  std::printf("  chosen additional views: %s, weighted cost %.4g I/Os\n",
              ViewSetToString(result->views).c_str(), result->weighted_cost);
  for (GroupId g : result->views) {
    if (g == s.memo->root()) continue;
    auto tree = s.memo->ExtractOriginalTree(g);
    if (tree.ok()) {
      std::printf("  materialized V1 = N%d:\n%s", g,
                  (*tree)->TreeToString().c_str());
    }
  }
  // The cost of the no-additional-views strategy, for contrast.
  auto nothing = s.selector->CostViewSet({s.workload->TxnInsertADept()},
                                         {s.memo->root()});
  if (nothing.ok()) {
    std::printf(
        "  without additional views the same transaction costs %.4g I/Os "
        "(%.1fx more)\n",
        nothing->weighted_cost,
        nothing->weighted_cost / result->weighted_cost);
  }

  // Mixed-update sensitivity: as Emp/Dept updates gain weight, maintaining
  // V1 must be balanced against its benefit (the example's closing remark).
  bench::PrintHeader(
      "  ADepts-update share sweep: optimizer cost vs no-extra-views cost",
      {"optimal", "nothing", "#views"});
  for (double adepts_weight : {100.0, 10.0, 2.0, 1.0, 0.2}) {
    const std::vector<TransactionType> txns = {
        s.workload->TxnInsertADept(adepts_weight),
        s.workload->TxnModEmp(1), s.workload->TxnModDept(1)};
    auto best = s.selector->Exhaustive(txns);
    auto none = s.selector->CostViewSet(txns, {s.memo->root()});
    if (!best.ok() || !none.ok()) continue;
    bench::PrintRow("w(>ADepts) = " + std::to_string(adepts_weight),
                    {best->weighted_cost, none->weighted_cost,
                     static_cast<double>(best->views.size() - 1)});
  }

  // Cold enumeration wall time, sequential and with worker threads, on the
  // mixed-update workload (the widest track space this bench exercises).
  bench::PrintOptimizerScaling(
      s.memo.get(), &s.workload->catalog(),
      {s.workload->TxnInsertADept(2), s.workload->TxnModEmp(1),
       s.workload->TxnModDept(1)},
      OptimizeOptions{}, "  F3 optimizer scaling: ADeptsStatus, 3 txns");
}

void BM_ExhaustiveAdeptsStatus(benchmark::State& state) {
  auto& s = Setup();
  const std::vector<TransactionType> txns = {s.workload->TxnInsertADept()};
  for (auto _ : state) {
    auto result = s.selector->Exhaustive(txns);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_ExhaustiveAdeptsStatus);

}  // namespace
}  // namespace auxview

int main(int argc, char** argv) {
  return auxview::bench::BenchMain("f3_adepts", argc, argv,
                                   [] { auxview::PrintResult(); });
}
