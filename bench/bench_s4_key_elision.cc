// S4 ablation: the key-based query elision (the paper's Q3d = 0, Section
// 3.6: "Since Dname is a key for the Dept relation, the result propagated
// up along E5 and N4 contains all the tuples in the group"). We compare
// per-transaction costs with the completeness analysis on and off, on the
// ProblemDept example and on aggregate-chain views where every join is a
// key join.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_util.h"
#include "workload/chain.h"

namespace auxview {
namespace {

void PrintResult() {
  {
    auto setup = bench::MakePaperSetup();
    bench::PrintHeader(
        "S4: key-based elision on ProblemDept (min track cost per txn)",
        {"with", "without", "saved"});
    for (const TransactionType& txn :
         {setup.workload->TxnModEmp(), setup.workload->TxnModDept()}) {
      for (const ViewSet& extra : std::vector<ViewSet>{
               {}, {setup.groups.n4}}) {
        ViewSet views = extra;
        views.insert(setup.groups.n1);
        setup.selector->delta().set_use_completeness(true);
        auto with = setup.selector->BestTrack(views, txn);
        setup.selector->delta().set_use_completeness(false);
        auto without = setup.selector->BestTrack(views, txn);
        setup.selector->delta().set_use_completeness(true);
        if (!with.ok() || !without.ok()) continue;
        bench::PrintRow(ViewSetToString(extra) + "  " + txn.name,
                        {with->cost.total(), without->cost.total(),
                         without->cost.total() - with->cost.total()});
      }
    }
    std::printf(
        "  (>Dept rows change: without the elision the aggregate re-reads "
        "its affected groups — the paper's Q3d stops being free.)\n");
  }

  // Chains of key joins: the deeper the chain, the more aggregates benefit.
  for (int k : {3, 4}) {
    ChainConfig config;
    config.num_relations = k;
    config.with_aggregate = true;
    ChainWorkload workload{config};
    auto tree = workload.ChainViewTree();
    if (!tree.ok()) continue;
    auto memo = BuildExpandedMemo(*tree, workload.catalog());
    if (!memo.ok()) continue;
    ViewSelector selector(&*memo, &workload.catalog());
    bench::PrintHeader(
        "S4: optimizer cost on aggregate-chain-" + std::to_string(k),
        {"with", "without", "ratio"});
    selector.delta().set_use_completeness(true);
    auto with = selector.Exhaustive(workload.AllTxns());
    selector.delta().set_use_completeness(false);
    auto without = selector.Exhaustive(workload.AllTxns());
    selector.delta().set_use_completeness(true);
    if (!with.ok() || !without.ok()) continue;
    bench::PrintRow("optimal weighted cost",
                    {with->weighted_cost, without->weighted_cost,
                     without->weighted_cost / with->weighted_cost});
  }
}

void BM_BestTrackElision(benchmark::State& state) {
  static bench::PaperSetup setup = bench::MakePaperSetup();
  setup.selector->delta().set_use_completeness(state.range(0) == 1);
  const ViewSet views = {setup.groups.n1, setup.groups.n4};
  const TransactionType txn = setup.workload->TxnModDept();
  for (auto _ : state) {
    auto plan = setup.selector->BestTrack(views, txn);
    benchmark::DoNotOptimize(plan.ok());
  }
  setup.selector->delta().set_use_completeness(true);
}
BENCHMARK(BM_BestTrackElision)->Arg(0)->Arg(1);

}  // namespace
}  // namespace auxview

int main(int argc, char** argv) {
  return auxview::bench::BenchMain("s4_key_elision", argc, argv,
                                   [] { auxview::PrintResult(); });
}
