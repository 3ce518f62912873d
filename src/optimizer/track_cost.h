#ifndef AUXVIEW_OPTIMIZER_TRACK_COST_H_
#define AUXVIEW_OPTIMIZER_TRACK_COST_H_

#include <map>
#include <string>
#include <vector>

#include "cost/query_cost.h"
#include "delta/analysis.h"
#include "optimizer/track.h"
#include "optimizer/view_set.h"

namespace auxview {

/// Options for track costing.
struct TrackCostOptions {
  /// Multi-query optimization (Section 3.4): identical queries generated
  /// along one update track are charged once. Disable for the S1 ablation.
  bool share_queries = true;
  /// The paper's worked example excludes the cost of updating the top-level
  /// view ("We do not count the cost of updating ... the top-level view
  /// ProblemDept"); keep false to match, true for the general algorithm.
  bool include_root_update_cost = false;
  /// Number of hash indexes assumed on each materialized view.
  int indexes_per_view = 1;
};

/// One query generated along an update track (Example 3.2's Q2Ld, Q2Re, ...).
struct QueryRecord {
  int expr_id = -1;        // operation node posing the query
  GroupId on_group = -1;   // equivalence node the query is posed on
  std::vector<std::string> attrs;
  double probes = 0;
  double cost = 0;
  bool shared = false;     // deduplicated by multi-query optimization
  std::string label;

  std::string ToString() const;
};

/// The cost of propagating one transaction along one update track.
struct TrackCost {
  double query_cost = 0;
  double update_cost = 0;
  std::vector<QueryRecord> queries;
  std::map<GroupId, DeltaInfo> deltas;

  double total() const { return query_cost + update_cost; }
};

/// Computes the cost of an update track for a view set and transaction
/// (Section 3.4): the queries posed at each operation node on the track
/// (answered using the materialized views) plus the cost of applying the
/// deltas to each materialized view.
class TrackCoster {
 public:
  TrackCoster(const Memo* memo, const Catalog* catalog, StatsAnalysis* stats,
              FdAnalysis* fds, DeltaAnalysis* delta, const QueryCoster* query,
              TrackCostOptions options = {})
      : memo_(memo),
        catalog_(catalog),
        stats_(stats),
        fds_(fds),
        delta_(delta),
        query_(query),
        options_(options) {}

  StatusOr<TrackCost> Cost(const UpdateTrack& track, const ViewSet& marked,
                           const TransactionType& txn) const;

  const TrackCostOptions& options() const { return options_; }

 private:
  const Memo* memo_;
  const Catalog* catalog_;
  StatsAnalysis* stats_;
  FdAnalysis* fds_;
  DeltaAnalysis* delta_;
  const QueryCoster* query_;
  TrackCostOptions options_;
};

}  // namespace auxview

#endif  // AUXVIEW_OPTIMIZER_TRACK_COST_H_
