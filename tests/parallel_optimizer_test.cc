// Parallel view-set enumeration: every thread count must produce the same
// OptimizeResult as the sequential walk, bit for bit (views, weighted cost,
// every plan's track, every query record, every delta). A long-lived
// selector must also follow catalog statistics changes. See
// docs/OPTIMIZER.md for the determinism argument these tests pin down.

#include <gtest/gtest.h>

#include "auxview.h"

namespace auxview {
namespace {

void ExpectSameTrackCost(const TrackCost& a, const TrackCost& b) {
  EXPECT_EQ(a.query_cost, b.query_cost);
  EXPECT_EQ(a.update_cost, b.update_cost);
  ASSERT_EQ(a.queries.size(), b.queries.size());
  for (size_t q = 0; q < a.queries.size(); ++q) {
    EXPECT_EQ(a.queries[q].expr_id, b.queries[q].expr_id);
    EXPECT_EQ(a.queries[q].on_group, b.queries[q].on_group);
    EXPECT_EQ(a.queries[q].attrs, b.queries[q].attrs);
    EXPECT_EQ(a.queries[q].probes, b.queries[q].probes);
    EXPECT_EQ(a.queries[q].cost, b.queries[q].cost);
    EXPECT_EQ(a.queries[q].shared, b.queries[q].shared);
    EXPECT_EQ(a.queries[q].label, b.queries[q].label);
  }
  ASSERT_EQ(a.deltas.size(), b.deltas.size());
  auto bit = b.deltas.begin();
  for (const auto& [g, d] : a.deltas) {
    EXPECT_EQ(g, bit->first);
    EXPECT_EQ(d.size, bit->second.size);
    EXPECT_EQ(d.kind, bit->second.kind);
    EXPECT_EQ(d.modified_attrs, bit->second.modified_attrs);
    ++bit;
  }
}

void ExpectSameResult(const OptimizeResult& a, const OptimizeResult& b) {
  EXPECT_EQ(a.views, b.views);
  EXPECT_EQ(a.weighted_cost, b.weighted_cost);  // bit-identical, not approx
  EXPECT_EQ(a.viewsets_costed, b.viewsets_costed);
  EXPECT_EQ(a.viewsets_pruned, b.viewsets_pruned);
  EXPECT_EQ(a.tracks_costed, b.tracks_costed);
  ASSERT_EQ(a.plans.size(), b.plans.size());
  for (size_t i = 0; i < a.plans.size(); ++i) {
    EXPECT_EQ(a.plans[i].txn_name, b.plans[i].txn_name);
    EXPECT_EQ(a.plans[i].weight, b.plans[i].weight);
    EXPECT_EQ(a.plans[i].track.choice, b.plans[i].track.choice);
    ExpectSameTrackCost(a.plans[i].cost, b.plans[i].cost);
  }
  ASSERT_EQ(a.all_costs.size(), b.all_costs.size());
  for (size_t i = 0; i < a.all_costs.size(); ++i) {
    EXPECT_EQ(a.all_costs[i].first, b.all_costs[i].first);
    EXPECT_EQ(a.all_costs[i].second, b.all_costs[i].second);
  }
}

TEST(ParallelOptimizerTest, ThreadCountsAgreeOnProblemDept) {
  EmpDeptWorkload workload{EmpDeptConfig{}};
  auto tree = workload.ProblemDeptTree();
  ASSERT_TRUE(tree.ok());
  auto memo = BuildExpandedMemo(*tree, workload.catalog());
  ASSERT_TRUE(memo.ok());
  const std::vector<TransactionType> txns = {workload.TxnModEmp(3),
                                             workload.TxnModDept(1)};
  // The reference: the default sequential walk.
  ViewSelector reference(&*memo, &workload.catalog());
  OptimizeOptions ref_options;
  ref_options.keep_all = true;
  auto expected = reference.Exhaustive(txns, ref_options);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  for (int threads : {1, 2, 8}) {
    ViewSelector selector(&*memo, &workload.catalog());
    OptimizeOptions options;
    options.threads = threads;
    options.keep_all = true;
    auto result = selector.Exhaustive(txns, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectSameResult(*expected, *result);
  }
}

TEST(ParallelOptimizerTest, ThreadCountsAgreeOnMultiViewWorkload) {
  EmpDeptWorkload workload{EmpDeptConfig{}};
  ExprBuilder b(&workload.catalog());
  Expr::Ptr view1 = b.Select(
      b.Aggregate(b.Join(b.Scan("Emp"), b.Scan("Dept"), {"DName"}),
                  {"DName", "Budget"},
                  {{AggFunc::kSum, Col("Salary"), "SumSal"}}),
      Scalar::Gt(Col("SumSal"), Col("Budget")));
  Expr::Ptr view2 = b.Aggregate(b.Scan("Emp"), {"DName"},
                                {{AggFunc::kSum, Col("Salary"), "SumSal"}});
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  Memo memo;
  GroupId root1 = *memo.AddTree(view1);
  GroupId root2 = *memo.AddTree(view2);
  ASSERT_TRUE(ExpandMemo(&memo, workload.catalog(), DefaultRuleSet()).ok());
  root1 = memo.Find(root1);
  root2 = memo.Find(root2);
  const std::vector<TransactionType> txns = {workload.TxnModEmp(),
                                             workload.TxnModDept()};

  ViewSelector reference(&memo, &workload.catalog());
  auto expected = reference.ExhaustiveMultiView({root1, root2}, txns);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  for (int threads : {2, 8}) {
    ViewSelector selector(&memo, &workload.catalog());
    OptimizeOptions options;
    options.threads = threads;
    auto result = selector.ExhaustiveMultiView({root1, root2}, txns, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectSameResult(*expected, *result);
  }
}

TEST(ParallelOptimizerTest, ShieldingAndHeuristicsAgreeAcrossThreads) {
  // Shielding and the heuristics funnel through ExhaustiveOver (with
  // filters and restricted candidate sets); they must be thread-count
  // independent too.
  ChainConfig config;
  config.num_relations = 4;
  config.with_aggregate = true;
  ChainWorkload workload{config};
  auto tree = workload.ChainViewTree();
  ASSERT_TRUE(tree.ok());
  auto memo = BuildExpandedMemo(*tree, workload.catalog());
  ASSERT_TRUE(memo.ok());
  const auto txns = workload.AllTxns({4, 1, 1, 1, 1});

  ViewSelector reference(&*memo, &workload.catalog());
  auto expected_shield = reference.Shielding(txns);
  ASSERT_TRUE(expected_shield.ok());
  auto expected_greedy = reference.Greedy(txns);
  ASSERT_TRUE(expected_greedy.ok());

  for (int threads : {2, 8}) {
    ViewSelector selector(&*memo, &workload.catalog());
    OptimizeOptions options;
    options.threads = threads;
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto shield = selector.Shielding(txns, options);
    ASSERT_TRUE(shield.ok());
    ExpectSameResult(*expected_shield, *shield);
    auto greedy = selector.Greedy(txns, options);
    ASSERT_TRUE(greedy.ok());
    ExpectSameResult(*expected_greedy, *greedy);
  }
}

TEST(ParallelOptimizerTest, RepeatedExhaustiveIsIdentical) {
  // A second Exhaustive on the same selector runs on warm analyses and
  // must reproduce the first result exactly.
  EmpDeptWorkload workload{EmpDeptConfig{}};
  auto tree = workload.ProblemDeptTree();
  ASSERT_TRUE(tree.ok());
  auto memo = BuildExpandedMemo(*tree, workload.catalog());
  ASSERT_TRUE(memo.ok());
  const std::vector<TransactionType> txns = {workload.TxnModEmp(),
                                             workload.TxnModDept()};
  ViewSelector selector(&*memo, &workload.catalog());
  auto cold = selector.Exhaustive(txns);
  ASSERT_TRUE(cold.ok());
  auto warm = selector.Exhaustive(txns);
  ASSERT_TRUE(warm.ok());
  ExpectSameResult(*cold, *warm);
}

TEST(ParallelOptimizerTest, SetStatsRefreshesAnalyses) {
  // The memoized statistics follow Catalog::stats_epoch(): after SetStats,
  // a warm selector must re-cost and agree with a fresh one.
  EmpDeptWorkload workload{EmpDeptConfig{}};
  Catalog catalog = workload.catalog();  // private mutable copy
  auto tree = workload.ProblemDeptTree();
  ASSERT_TRUE(tree.ok());
  auto memo = BuildExpandedMemo(*tree, catalog);
  ASSERT_TRUE(memo.ok());
  const std::vector<TransactionType> txns = {workload.TxnModEmp(),
                                             workload.TxnModDept()};
  ViewSelector warm(&*memo, &catalog);
  auto before = warm.Exhaustive(txns);
  ASSERT_TRUE(before.ok());
  // The root-only view set pays per-department recomputation queries, so
  // its cost moves with the fan-in stats (the optimum's index probes may
  // not) — cost it now and again after the stats change.
  auto before_root = warm.CostViewSet(txns, {memo->root()});
  ASSERT_TRUE(before_root.ok());

  // Blow up the per-department fan-in (10 -> 100000 emps/dept): the delta
  // sizes and probe costs of every Emp-containing group change with it.
  RelationStats stats = catalog.FindTable("Emp")->stats;
  stats.row_count *= 100;
  stats.distinct["DName"] = 10;
  const uint64_t epoch = catalog.stats_epoch();
  ASSERT_TRUE(catalog.SetStats("Emp", stats).ok());
  EXPECT_GT(catalog.stats_epoch(), epoch);

  auto after = warm.Exhaustive(txns);
  ASSERT_TRUE(after.ok());
  // Stale derived stats would reproduce the old costs; the epoch bump
  // forces recomputation, matching a selector that never saw the old stats.
  ViewSelector fresh(&*memo, &catalog);
  auto expected = fresh.Exhaustive(txns);
  ASSERT_TRUE(expected.ok());
  ExpectSameResult(*expected, *after);
  auto after_root = warm.CostViewSet(txns, {memo->root()});
  auto fresh_root = fresh.CostViewSet(txns, {memo->root()});
  ASSERT_TRUE(after_root.ok());
  ASSERT_TRUE(fresh_root.ok());
  EXPECT_NE(before_root->weighted_cost, after_root->weighted_cost);
  EXPECT_EQ(fresh_root->weighted_cost, after_root->weighted_cost);
}

TEST(ParallelOptimizerTest, SetStatsRefreshesHeuristicTreeChoice) {
  // SingleTree and HeuristicMarking pick their expression tree from the
  // memoized statistics before anything is costed. After SetStats a warm
  // selector must pick the tree a fresh selector picks. Each heuristic gets
  // its own warm selector, so neither rides on a refresh the other one
  // triggered.
  ChainConfig config;
  config.num_relations = 3;
  config.with_aggregate = true;
  ChainWorkload workload{config};
  Catalog catalog = workload.catalog();  // private mutable copy
  auto tree = workload.ChainViewTree();
  ASSERT_TRUE(tree.ok());
  auto memo = BuildExpandedMemo(*tree, catalog);
  ASSERT_TRUE(memo.ok());
  const auto txns = workload.AllTxns({4, 1, 1});
  ViewSelector warm_single(&*memo, &catalog);
  ViewSelector warm_marking(&*memo, &catalog);
  ASSERT_TRUE(warm_single.SingleTree(txns).ok());
  ASSERT_TRUE(warm_marking.HeuristicMarking(txns).ok());

  // Shrink the middle relation 30x: the cheapest evaluation tree for the
  // chain changes with it.
  const std::string middle = workload.RelationName(1);
  RelationStats stats = catalog.FindTable(middle)->stats;
  stats.row_count /= 30;
  ASSERT_TRUE(catalog.SetStats(middle, stats).ok());

  ViewSelector fresh(&*memo, &catalog);
  auto single = warm_single.SingleTree(txns);
  auto expected_single = fresh.SingleTree(txns);
  ASSERT_TRUE(single.ok());
  ASSERT_TRUE(expected_single.ok());
  {
    SCOPED_TRACE("SingleTree");
    ExpectSameResult(*expected_single, *single);
  }
  auto marking = warm_marking.HeuristicMarking(txns);
  auto expected_marking = fresh.HeuristicMarking(txns);
  ASSERT_TRUE(marking.ok());
  ASSERT_TRUE(expected_marking.ok());
  SCOPED_TRACE("HeuristicMarking");
  ExpectSameResult(*expected_marking, *marking);
}

TEST(ParallelOptimizerTest, ZeroThreadsMeansHardwareConcurrency) {
  // threads = 0 resolves to a machine-dependent worker count; the result
  // must still be identical to the sequential walk.
  EmpDeptWorkload workload{EmpDeptConfig{}};
  auto tree = workload.ProblemDeptTree();
  ASSERT_TRUE(tree.ok());
  auto memo = BuildExpandedMemo(*tree, workload.catalog());
  ASSERT_TRUE(memo.ok());
  const std::vector<TransactionType> txns = {workload.TxnModEmp(),
                                             workload.TxnModDept()};
  ViewSelector reference(&*memo, &workload.catalog());
  auto expected = reference.Exhaustive(txns);
  ASSERT_TRUE(expected.ok());
  ViewSelector selector(&*memo, &workload.catalog());
  OptimizeOptions options;
  options.threads = 0;
  auto result = selector.Exhaustive(txns, options);
  ASSERT_TRUE(result.ok());
  ExpectSameResult(*expected, *result);
}

TEST(ParallelOptimizerTest, MaxCandidatesClampStopsShiftOverflow) {
  // max_candidates beyond 63 is clamped (1ull << 64 is undefined); the
  // FailedPrecondition path and normal operation both survive huge values.
  EmpDeptWorkload workload{EmpDeptConfig{}};
  auto tree = workload.ProblemDeptTree();
  ASSERT_TRUE(tree.ok());
  auto memo = BuildExpandedMemo(*tree, workload.catalog());
  ASSERT_TRUE(memo.ok());
  ViewSelector selector(&*memo, &workload.catalog());
  OptimizeOptions options;
  options.max_candidates = 1 << 30;
  auto result = selector.Exhaustive({workload.TxnModEmp()}, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->viewsets_costed, 0);
}

}  // namespace
}  // namespace auxview
