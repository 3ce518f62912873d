#ifndef AUXVIEW_OPTIMIZER_OPTIMIZER_H_
#define AUXVIEW_OPTIMIZER_OPTIMIZER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "cost/query_cost.h"
#include "delta/analysis.h"
#include "optimizer/track.h"
#include "optimizer/track_cost.h"
#include "optimizer/view_set.h"

namespace auxview {

/// Options controlling view-set optimization.
struct OptimizeOptions {
  TrackEnumOptions tracks;
  TrackCostOptions cost;
  QueryCostOptions query;
  /// Hard cap on the number of candidate groups for exhaustive subset
  /// enumeration (2^n view sets). Clamped to 63 internally: the mask walk
  /// shifts `1ull << candidates`, which is undefined at 64.
  int max_candidates = 22;
  /// Worker threads for exhaustive enumeration. 1 = the sequential walk;
  /// 0 = one per hardware thread; N > 1 shards the view-set mask space
  /// across N workers with thread-local costers. The result is bit-identical
  /// for every value (per-mask costings are independent and the merge
  /// tie-breaks on the lowest mask); only wall time changes. A caller-
  /// supplied ExhaustiveOver filter must be safe to call concurrently.
  int threads = 1;
  /// Record the cost of every view set considered (benches).
  bool keep_all = false;
};

/// The chosen update track and its cost for one transaction type.
struct TxnPlan {
  std::string txn_name;
  double weight = 1;
  UpdateTrack track;
  TrackCost cost;
};

/// Result of view-set optimization.
struct OptimizeResult {
  ViewSet views;               // includes the (local) root
  double weighted_cost = 0;    // sum_i C(V,T_i) f_i / sum_i f_i
  std::vector<TxnPlan> plans;  // per transaction, for the winning view set
  int64_t viewsets_costed = 0;
  int64_t viewsets_pruned = 0;  // skipped by shielding
  /// Tracks costed (independent of threading).
  int64_t tracks_costed = 0;
  /// Per-view-set weighted costs when keep_all was set.
  std::vector<std::pair<ViewSet, double>> all_costs;
};

/// The view-selection optimizer: given an expanded expression DAG for a
/// materialized view and a set of weighted transaction types, decides which
/// additional equivalence nodes to materialize (Algorithm OptimalViewSet,
/// Figure 4), with the Section 4 shielding optimization and the Section 5
/// heuristics as alternative strategies.
class ViewSelector {
 public:
  ViewSelector(const Memo* memo, const Catalog* catalog,
               IoCostModel model = IoCostModel());

  /// Exhaustive Algorithm OptimalViewSet over all non-leaf equivalence nodes
  /// (minus the root, which is always materialized).
  StatusOr<OptimizeResult> Exhaustive(const std::vector<TransactionType>& txns,
                                      const OptimizeOptions& options = {});

  /// Section 6 extension: optimal additional views for maintaining a SET of
  /// materialized views (a multi-root expression DAG — add every view's
  /// tree to the memo first). All roots are always materialized and their
  /// update costs are counted.
  StatusOr<OptimizeResult> ExhaustiveMultiView(
      const std::vector<GroupId>& roots,
      const std::vector<TransactionType>& txns,
      const OptimizeOptions& options = {});

  /// Exhaustive search restricted to `candidates`, with `roots` always
  /// marked (building block for shielding and the heuristics). An optional
  /// filter skips view sets without costing them.
  StatusOr<OptimizeResult> ExhaustiveOver(
      const std::vector<TransactionType>& txns, const OptimizeOptions& options,
      std::set<GroupId> roots, std::set<GroupId> candidates,
      const std::function<bool(const ViewSet&)>& filter = nullptr);

  /// Shielding-principle optimization (Section 4.2): sub-DAGs below
  /// articulation equivalence nodes are optimized locally once, and the
  /// global enumeration prunes every view set whose interior selection below
  /// a marked articulation node differs from the local optimum.
  StatusOr<OptimizeResult> Shielding(const std::vector<TransactionType>& txns,
                                     const OptimizeOptions& options = {});

  /// Section 5, "Using a Single Expression Tree": restrict the search to the
  /// groups and operation nodes of one expression tree (chosen greedily as
  /// the cheapest evaluation plan).
  StatusOr<OptimizeResult> SingleTree(const std::vector<TransactionType>& txns,
                                      const OptimizeOptions& options = {});

  /// Section 5, "Choosing a Single View Set": on the single tree, mark every
  /// parent of a join or grouping/aggregation operator; keep the marking only
  /// if it beats materializing nothing.
  StatusOr<OptimizeResult> HeuristicMarking(
      const std::vector<TransactionType>& txns,
      const OptimizeOptions& options = {});

  /// Section 5, "Using Approximate Costing": greedy hill-climbing — starting
  /// from the empty additional set, repeatedly add the candidate whose
  /// addition reduces the weighted cost most, with greedy (single-choice)
  /// track selection.
  StatusOr<OptimizeResult> Greedy(const std::vector<TransactionType>& txns,
                                  const OptimizeOptions& options = {});

  /// Weighted cost of one specific view set (and the per-transaction plans).
  StatusOr<OptimizeResult> CostViewSet(
      const std::vector<TransactionType>& txns, const ViewSet& views,
      const OptimizeOptions& options = {});

  /// Best track and cost for one (view set, transaction).
  StatusOr<TxnPlan> BestTrack(const ViewSet& views, const TransactionType& txn,
                              const OptimizeOptions& options = {});

  const Memo& memo() const { return *memo_; }
  StatsAnalysis& stats() { return stats_; }
  FdAnalysis& fds() { return fds_; }
  DeltaAnalysis& delta() { return delta_; }

 private:
  /// Clears the memoized statistics/FD analyses when Catalog::stats_epoch()
  /// has advanced since they were last used, so a long-lived selector picks
  /// up SetStats/AddTable instead of serving stale derived stats. Called
  /// single-threaded at every entry point that reads the analyses
  /// (BestTrack, ExhaustiveOver, and the tree choice of SingleTree and
  /// HeuristicMarking) before any worker threads exist.
  void RefreshAnalyses();

  const Memo* memo_;
  const Catalog* catalog_;
  IoCostModel model_;
  StatsAnalysis stats_;
  FdAnalysis fds_;
  DeltaAnalysis delta_;
  /// Epoch the analyses' memoized values were derived from.
  uint64_t analyses_epoch_;
};

}  // namespace auxview

#endif  // AUXVIEW_OPTIMIZER_OPTIMIZER_H_
