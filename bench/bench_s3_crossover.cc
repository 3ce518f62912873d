// S3: transaction-weight sensitivity (the trade-off of Example 1.1).
// Sweeping the relative frequency of >Emp vs >Dept shows the per-view-set
// weighted cost lines; {N3} dominates everywhere on the paper's example
// ("Independent of the weighting ... strategy (b) wins"), and the
// per-transaction crossovers appear when employee updates are made cheap
// via a larger department fan-in (fewer, larger departments), where the
// extra maintenance of N3 stops paying for rare >Emp workloads... the
// sweep reports the optimizer's choice at each mix so the crossover, when
// it exists, is visible.

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace auxview {
namespace {

void SweepFor(const EmpDeptConfig& config, const std::string& label) {
  EmpDeptWorkload workload{config};
  auto tree = workload.ProblemDeptTree();
  if (!tree.ok()) return;
  auto memo = BuildExpandedMemo(*tree, workload.catalog());
  if (!memo.ok()) return;
  ViewSelector selector(&*memo, &workload.catalog());
  const bench::PaperGroups g = bench::FindPaperGroups(*memo);

  bench::PrintHeader("S3 sweep (" + label + "): weighted cost vs >Emp share",
                     {"{}", "{N3}", "{N4}", "{N3,N4}", "best"});
  for (double emp_share : {0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99}) {
    const std::vector<TransactionType> txns = {
        workload.TxnModEmp(emp_share), workload.TxnModDept(1 - emp_share)};
    std::vector<double> values;
    for (const ViewSet& extra : std::vector<ViewSet>{
             {}, {g.n3}, {g.n4}, {g.n3, g.n4}}) {
      ViewSet views = extra;
      views.insert(g.n1);
      auto cost = selector.CostViewSet(txns, views);
      values.push_back(cost.ok() ? cost->weighted_cost : -1);
    }
    auto best = selector.Exhaustive(txns);
    values.push_back(best.ok() ? best->weighted_cost : -1);
    char label_buf[48];
    std::snprintf(label_buf, sizeof(label_buf), "emp share %.2f%s",
                  emp_share,
                  best.ok() && best->views.count(g.n3) ? "  -> {N3}" : "");
    bench::PrintRow(label_buf, values);
  }
}

void PrintResult() {
  SweepFor(EmpDeptConfig{}, "paper sizes: 1000 depts x 10 emps");

  EmpDeptConfig big_depts;
  big_depts.num_depts = 100;
  big_depts.emps_per_dept = 100;
  SweepFor(big_depts, "100 depts x 100 emps");

  EmpDeptConfig small_depts;
  small_depts.num_depts = 10000;
  small_depts.emps_per_dept = 1;
  SweepFor(small_depts, "10000 depts x 1 emp");

  // Cold enumeration wall time, sequential and with worker threads, on the
  // paper-size ProblemDept at a balanced mix.
  {
    EmpDeptWorkload workload{EmpDeptConfig{}};
    auto tree = workload.ProblemDeptTree();
    if (!tree.ok()) return;
    auto memo = BuildExpandedMemo(*tree, workload.catalog());
    if (!memo.ok()) return;
    bench::PrintOptimizerScaling(
        &*memo, &workload.catalog(),
        {workload.TxnModEmp(0.5), workload.TxnModDept(0.5)},
        OptimizeOptions{},
        "S3 optimizer scaling: ProblemDept, 50/50 mix");
  }
}

void BM_WeightSweepOptimize(benchmark::State& state) {
  static bench::PaperSetup setup = bench::MakePaperSetup();
  const double share = static_cast<double>(state.range(0)) / 100.0;
  const std::vector<TransactionType> txns = {
      setup.workload->TxnModEmp(share),
      setup.workload->TxnModDept(1 - share)};
  for (auto _ : state) {
    auto result = setup.selector->Exhaustive(txns);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_WeightSweepOptimize)->Arg(10)->Arg(50)->Arg(90);

}  // namespace
}  // namespace auxview

int main(int argc, char** argv) {
  return auxview::bench::BenchMain("s3_crossover", argc, argv,
                                   [] { auxview::PrintResult(); });
}
