#include "delta/analysis.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "algebra/builder.h"
#include "delta/locality.h"
#include "maintain/view_manager.h"
#include "memo/expand.h"
#include "obs/metrics.h"
#include "optimizer/optimizer.h"
#include "workload/chain.h"
#include "workload/emp_dept.h"
#include "workload/fig5.h"
#include "workload/star.h"
#include "workload/txn_stream.h"

namespace auxview {
namespace {

class DeltaAnalysisTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload_ = std::make_unique<EmpDeptWorkload>(EmpDeptConfig{});
    auto tree = workload_->ProblemDeptTree();
    ASSERT_TRUE(tree.ok());
    auto memo = BuildExpandedMemo(*tree, workload_->catalog());
    ASSERT_TRUE(memo.ok());
    memo_ = std::make_unique<Memo>(std::move(memo).value());
    stats_ = std::make_unique<StatsAnalysis>(memo_.get(),
                                             &workload_->catalog());
    analysis_ = std::make_unique<DeltaAnalysis>(
        memo_.get(), &workload_->catalog(), stats_.get());
    for (GroupId g : memo_->LiveGroups()) {
      const MemoGroup& grp = memo_->group(g);
      if (grp.is_leaf && grp.table == "Emp") emp_ = g;
      if (grp.is_leaf && grp.table == "Dept") dept_ = g;
      for (int eid : grp.exprs) {
        const MemoExpr& e = memo_->expr(eid);
        if (e.dead) continue;
        if (e.kind() == OpKind::kJoin) {
          bool leaf_join = true;
          for (GroupId in : e.inputs) {
            if (!memo_->group(memo_->Find(in)).is_leaf) leaf_join = false;
          }
          if (leaf_join && join_op_ < 0) {
            join_op_ = eid;
            n4_ = g;
          }
        }
        if (e.kind() == OpKind::kAggregate && e.op->group_by().size() == 2 &&
            memo_->Find(e.inputs[0]) != g) {
          agg2_op_ = eid;
        }
        if (e.kind() == OpKind::kAggregate &&
            e.op->group_by() == std::vector<std::string>{"DName"}) {
          agg1_op_ = eid;
          n3_ = g;
        }
      }
    }
    ASSERT_GE(join_op_, 0);
    ASSERT_GE(agg1_op_, 0);
    ASSERT_GE(agg2_op_, 0);
  }

  DeltaInfo EmpDelta() {
    return analysis_->LeafDelta(*workload_->catalog().FindTable("Emp"),
                                workload_->TxnModEmp().updates[0]);
  }
  DeltaInfo DeptDelta() {
    return analysis_->LeafDelta(*workload_->catalog().FindTable("Dept"),
                                workload_->TxnModDept().updates[0]);
  }

  std::unique_ptr<EmpDeptWorkload> workload_;
  std::unique_ptr<Memo> memo_;
  std::unique_ptr<StatsAnalysis> stats_;
  std::unique_ptr<DeltaAnalysis> analysis_;
  GroupId emp_ = -1, dept_ = -1, n3_ = -1, n4_ = -1;
  int join_op_ = -1, agg1_op_ = -1, agg2_op_ = -1;
};

TEST_F(DeltaAnalysisTest, AffectedGroups) {
  const auto affected_emp = analysis_->AffectedGroups(workload_->TxnModEmp());
  EXPECT_TRUE(affected_emp.count(emp_));
  EXPECT_FALSE(affected_emp.count(dept_));
  EXPECT_TRUE(affected_emp.count(n3_));
  EXPECT_TRUE(affected_emp.count(n4_));
  EXPECT_TRUE(affected_emp.count(memo_->root()));

  const auto affected_dept =
      analysis_->AffectedGroups(workload_->TxnModDept());
  EXPECT_FALSE(affected_dept.count(n3_));  // SumOfSals ignores Dept
  EXPECT_TRUE(affected_dept.count(n4_));
}

TEST_F(DeltaAnalysisTest, LeafDeltaCompleteForPrimaryKey) {
  DeltaInfo d = DeptDelta();
  EXPECT_DOUBLE_EQ(d.size, 1);
  EXPECT_EQ(d.kind, UpdateKind::kModify);
  EXPECT_TRUE(d.CompleteWithin({"DName"}));
  EXPECT_EQ(d.modified_attrs, std::set<std::string>{"Budget"});
}

TEST_F(DeltaAnalysisTest, JoinFanoutAndCompleteness) {
  // Delta Dept joined with Emp: 10 rows, complete on DName.
  const MemoExpr& join = memo_->expr(join_op_);
  std::vector<DeltaInfo> children(2);
  const bool emp_is_left = memo_->Find(join.inputs[0]) == emp_;
  children[emp_is_left ? 1 : 0] = DeptDelta();
  DeltaInfo out = analysis_->Propagate(join, children);
  EXPECT_DOUBLE_EQ(out.size, 10);
  EXPECT_TRUE(out.CompleteWithin({"DName"}));
  EXPECT_TRUE(out.CompleteWithin({"DName", "Budget"}));

  // Delta Emp joined with Dept: 1 row, complete only on EName.
  std::vector<DeltaInfo> children2(2);
  children2[emp_is_left ? 0 : 1] = EmpDelta();
  DeltaInfo out2 = analysis_->Propagate(join, children2);
  EXPECT_DOUBLE_EQ(out2.size, 1);
  EXPECT_FALSE(out2.CompleteWithin({"DName"}));
  EXPECT_TRUE(out2.CompleteWithin({"EName"}));
}

TEST_F(DeltaAnalysisTest, AggregateDeltaCountsGroups) {
  const MemoExpr& join = memo_->expr(join_op_);
  const MemoExpr& agg = memo_->expr(agg2_op_);
  std::vector<DeltaInfo> children(2);
  const bool emp_is_left = memo_->Find(join.inputs[0]) == emp_;
  children[emp_is_left ? 1 : 0] = DeptDelta();
  DeltaInfo join_delta = analysis_->Propagate(join, children);
  DeltaInfo agg_delta = analysis_->Propagate(agg, {join_delta});
  EXPECT_DOUBLE_EQ(agg_delta.size, 1);  // one affected department group
  EXPECT_EQ(agg_delta.kind, UpdateKind::kModify);
}

TEST_F(DeltaAnalysisTest, Q3dElision) {
  // >Dept through the join: the delta is group-complete, no query needed
  // whether or not N2 is materialized.
  const MemoExpr& join = memo_->expr(join_op_);
  const MemoExpr& agg = memo_->expr(agg2_op_);
  std::vector<DeltaInfo> children(2);
  const bool emp_is_left = memo_->Find(join.inputs[0]) == emp_;
  children[emp_is_left ? 1 : 0] = DeptDelta();
  DeltaInfo join_delta = analysis_->Propagate(join, children);
  EXPECT_FALSE(analysis_->AggregateNeedsQuery(agg, join_delta, false));
  EXPECT_FALSE(analysis_->AggregateNeedsQuery(agg, join_delta, true));
}

TEST_F(DeltaAnalysisTest, Q4eElisionOnlyWhenMaterialized) {
  // >Emp at Aggregate(Emp BY DName): query unless the view is materialized
  // (SUM is self-maintainable under a Salary modify).
  const MemoExpr& agg = memo_->expr(agg1_op_);
  DeltaInfo emp_delta = EmpDelta();
  EXPECT_TRUE(analysis_->AggregateNeedsQuery(agg, emp_delta, false));
  EXPECT_FALSE(analysis_->AggregateNeedsQuery(agg, emp_delta, true));
}

TEST_F(DeltaAnalysisTest, GroupByAttributeModifyForcesQuery) {
  // Moving an employee between departments empties groups potentially:
  // self-maintenance must not apply (no COUNT column in the view).
  const MemoExpr& agg = memo_->expr(agg1_op_);
  DeltaInfo move = analysis_->LeafDelta(
      *workload_->catalog().FindTable("Emp"),
      SingleModifyTxn("move", "Emp", {"DName"}).updates[0]);
  EXPECT_TRUE(analysis_->AggregateNeedsQuery(agg, move, true));
}

TEST_F(DeltaAnalysisTest, DeleteWithoutCountForcesQuery) {
  const MemoExpr& agg = memo_->expr(agg1_op_);
  DeltaInfo del;
  del.size = 1;
  del.kind = UpdateKind::kDelete;
  del.AddComplete({"EName"});
  EXPECT_TRUE(analysis_->AggregateNeedsQuery(agg, del, true));
}

TEST_F(DeltaAnalysisTest, JoinAttrModifyBreaksCountPreservation) {
  // Regression (found by fuzzing): modifying a join attribute re-points the
  // join, so a group downstream can lose all its rows; SUM-only
  // self-maintenance must not be used.
  const MemoExpr& join = memo_->expr(join_op_);
  const bool emp_is_left = memo_->Find(join.inputs[0]) == emp_;
  DeltaInfo fk_move = analysis_->LeafDelta(
      *workload_->catalog().FindTable("Emp"),
      SingleModifyTxn("rehome", "Emp", {"DName"}).updates[0]);
  EXPECT_TRUE(fk_move.count_preserving);
  std::vector<DeltaInfo> children(2);
  children[emp_is_left ? 0 : 1] = fk_move;
  DeltaInfo out = analysis_->Propagate(join, children);
  EXPECT_FALSE(out.count_preserving);

  // A value-only modify stays count-preserving through the join.
  std::vector<DeltaInfo> children2(2);
  children2[emp_is_left ? 0 : 1] = EmpDelta();
  DeltaInfo out2 = analysis_->Propagate(join, children2);
  EXPECT_TRUE(out2.count_preserving);
}

TEST_F(DeltaAnalysisTest, NonCountPreservingModifyForcesAggregateQuery) {
  const MemoExpr& agg = memo_->expr(agg2_op_);
  DeltaInfo delta;
  delta.size = 1;
  delta.kind = UpdateKind::kModify;
  delta.count_preserving = false;
  EXPECT_TRUE(analysis_->AggregateNeedsQuery(agg, delta, true));
  delta.count_preserving = true;
  EXPECT_FALSE(analysis_->AggregateNeedsQuery(agg, delta, true));
}

TEST_F(DeltaAnalysisTest, SelectOnModifiedColumnBreaksPreservation) {
  EmpDeptWorkload w{EmpDeptConfig{}};
  ExprBuilder b(&w.catalog());
  auto sel = b.Select(b.Scan("Emp"),
                      Scalar::Gt(Col("Salary"), Lit(int64_t{50000})));
  Memo memo;
  ASSERT_TRUE(memo.AddTree(sel).ok());
  StatsAnalysis stats(&memo, &w.catalog());
  DeltaAnalysis analysis(&memo, &w.catalog(), &stats);
  const MemoExpr& e = memo.expr(memo.LiveExprs()[0]);
  DeltaInfo in;
  in.size = 1;
  in.kind = UpdateKind::kModify;
  in.modified_attrs = {"Salary"};  // the raise can flip the predicate
  DeltaInfo out = analysis.Propagate(e, {in});
  EXPECT_FALSE(out.count_preserving);
  in.modified_attrs = {"DName"};  // irrelevant to the predicate
  DeltaInfo out2 = analysis.Propagate(e, {in});
  EXPECT_TRUE(out2.count_preserving);
}

TEST_F(DeltaAnalysisTest, SelectKeepsDeltaAlive) {
  // Selection with a selective predicate must not zero out the delta (the
  // node is still affected).
  EmpDeptWorkload w{EmpDeptConfig{}};
  ExprBuilder b(&w.catalog());
  auto sel = b.Select(b.Scan("Emp"),
                      Scalar::Eq(Col("DName"), Lit("d0001")));
  Memo memo;
  ASSERT_TRUE(memo.AddTree(sel).ok());
  StatsAnalysis stats(&memo, &w.catalog());
  DeltaAnalysis analysis(&memo, &w.catalog(), &stats);
  DeltaInfo in;
  in.size = 1;
  in.kind = UpdateKind::kModify;
  const MemoExpr& e = memo.expr(memo.LiveExprs()[0]);
  DeltaInfo out = analysis.Propagate(e, {in});
  EXPECT_GT(out.size, 0);
}

// ---------------------------------------------------------------------------
// Self-maintainability (delta/locality.h): the classifier's verdict and the
// DeltaEngine's runtime guard that re-proves it on every transaction.

/// One workload packaged behind a uniform interface.
struct CasePack {
  std::string name;
  std::shared_ptr<void> owner;
  const Catalog* catalog = nullptr;
  Expr::Ptr tree;
  std::function<Status(Database*)> populate;
  std::vector<TransactionType> txns;
};

CasePack MakeEmpDept() {
  EmpDeptConfig config;
  config.num_depts = 8;
  config.emps_per_dept = 3;
  config.violation_fraction = 0.2;
  auto w = std::make_shared<EmpDeptWorkload>(config);
  auto tree = w->ProblemDeptTree();
  EXPECT_TRUE(tree.ok());
  return {"emp_dept", w,          &w->catalog(),
          *tree,      [w](Database* db) { return w->Populate(db); },
          {w->TxnModEmp(), w->TxnModDept()}};
}

CasePack MakeFig5() {
  Fig5Config config;
  config.num_items = 20;
  config.orders_per_item = 3;
  config.r_rows_per_item = 2;
  auto w = std::make_shared<Fig5Workload>(config);
  auto tree = w->ViewTree();
  EXPECT_TRUE(tree.ok());
  return {"fig5", w,          &w->catalog(),
          *tree,  [w](Database* db) { return w->Populate(db); },
          {w->TxnModS(), w->TxnModT(), w->TxnModR()}};
}

CasePack MakeStar() {
  StarConfig config;
  config.num_dims = 2;
  config.fact_rows = 60;
  config.dim_rows = 8;
  config.attr_values = 4;
  auto w = std::make_shared<StarWorkload>(config);
  auto tree = w->RollupTree();
  EXPECT_TRUE(tree.ok());
  return {"star", w,          &w->catalog(),
          *tree,  [w](Database* db) { return w->Populate(db); },
          {w->TxnModMeasure(), w->TxnModDimAttr(1), w->TxnInsertFact()}};
}

CasePack MakeChain() {
  ChainConfig config;
  config.num_relations = 3;
  config.rows_per_relation = 40;
  config.fanout = 2;
  config.with_aggregate = true;
  auto w = std::make_shared<ChainWorkload>(config);
  auto tree = w->ChainViewTree();
  EXPECT_TRUE(tree.ok());
  return {"chain", w,          &w->catalog(),
          *tree,   [w](Database* db) { return w->Populate(db); },
          w->AllTxns()};
}

/// Every non-leaf group of `memo`, plus the root.
ViewSet AllViews(const Memo& memo) {
  ViewSet views = {memo.root()};
  for (GroupId g : memo.NonLeafGroups()) views.insert(g);
  return views;
}

// The classifier's verdicts, pinned per workload with every non-leaf group
// materialized: how many declared transaction types' best tracks touch no
// base relation.
TEST(SelfMaintainabilityTest, WorkloadVerdictsMatchTheLattice) {
  struct Expectation {
    std::function<CasePack()> make;
    int self_maintainable;  // of pack.txns
  };
  const std::vector<Expectation> cases = {
      // Both ProblemDept tracks join a delta against a base relation.
      {MakeEmpDept, 0},
      // >R maintains through materialized views only; >S and >T fetch
      // their join partners from base relations.
      {MakeFig5, 1},
      // Every rollup track probes a fact or dimension relation.
      {MakeStar, 0},
      // Every chain update probes a neighbouring base relation.
      {MakeChain, 0},
  };
  for (const Expectation& expect : cases) {
    const CasePack pack = expect.make();
    SCOPED_TRACE(pack.name);
    auto memo = BuildExpandedMemo(pack.tree, *pack.catalog);
    ASSERT_TRUE(memo.ok()) << memo.status().ToString();
    const ViewSet views = AllViews(*memo);
    ViewSelector selector(&*memo, pack.catalog);
    StatsAnalysis stats(&*memo, pack.catalog);
    DeltaAnalysis delta(&*memo, pack.catalog, &stats);
    LocalityClassifier classifier(&*memo, pack.catalog, &delta);
    int self_maintainable = 0;
    for (const TransactionType& type : pack.txns) {
      auto plan = selector.BestTrack(views, type);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      auto verdict = classifier.SelfMaintainable(plan->track, views, type);
      ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
      if (*verdict) ++self_maintainable;
    }
    EXPECT_EQ(self_maintainable, expect.self_maintainable);
  }
}

// A self-maintainable verdict arms a runtime CHECK against base fetches.
// Tracks that classify self-maintainable commit under the armed guard and
// leave every base relation's page-read counter untouched; the other
// tracks do read base relations, so the counters are live.
TEST(SelfMaintainabilityTest, SelfMaintainableTracksCommitUnderTheGuard) {
  const CasePack pack = MakeFig5();
  auto memo = BuildExpandedMemo(pack.tree, *pack.catalog);
  ASSERT_TRUE(memo.ok()) << memo.status().ToString();
  const ViewSet views = AllViews(*memo);

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Counter* guarded = reg.GetCounter("maintain.self_maintainable_txns");
  std::vector<obs::Counter*> base_reads;
  for (const std::string& table : pack.catalog->TableNames()) {
    base_reads.push_back(
        reg.GetCounter("storage.rel." + table + ".page_reads"));
  }
  auto total_base_reads = [&] {
    int64_t total = 0;
    for (const obs::Counter* c : base_reads) total += c->value();
    return total;
  };

  Database db;
  ASSERT_TRUE(pack.populate(&db).ok());
  ViewManager mgr(&*memo, pack.catalog, &db);
  ASSERT_TRUE(mgr.Materialize(views).ok());
  ViewSelector selector(&*memo, pack.catalog);
  TxnGenerator gen(20260808);
  constexpr int kSteps = 12;
  int guarded_txns = 0;
  int64_t unguarded_base_reads = 0;
  for (int step = 0; step < kSteps; ++step) {
    const TransactionType& type =
        pack.txns[static_cast<size_t>(step) % pack.txns.size()];
    SCOPED_TRACE("step " + std::to_string(step) + " " + type.name);
    auto plan = selector.BestTrack(views, type);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    auto txn = gen.Generate(type, db);
    ASSERT_TRUE(txn.ok()) << txn.status().ToString();
    const int64_t guarded_before = guarded->value();
    const int64_t reads_before = total_base_reads();
    ASSERT_TRUE(mgr.ApplyTransaction(*txn, type, plan->track).ok());
    const int64_t reads = total_base_reads() - reads_before;
    if (guarded->value() - guarded_before == 1) {
      ++guarded_txns;
      EXPECT_EQ(reads, 0) << "self-maintainable track read a base relation";
    } else {
      EXPECT_EQ(guarded->value(), guarded_before);
      unguarded_base_reads += reads;
    }
  }
  // >R is the one self-maintainable type (WorkloadVerdictsMatchTheLattice).
  EXPECT_EQ(guarded_txns, kSteps / 3);
  EXPECT_GT(unguarded_base_reads, 0);
  Status consistent = mgr.CheckConsistency();
  EXPECT_TRUE(consistent.ok()) << consistent.ToString();
}

}  // namespace
}  // namespace auxview
