#ifndef AUXVIEW_DELTA_LOCALITY_H_
#define AUXVIEW_DELTA_LOCALITY_H_

#include "catalog/catalog.h"
#include "delta/analysis.h"
#include "delta/transaction.h"
#include "memo/memo.h"
#include "optimizer/track.h"
#include "optimizer/view_set.h"

namespace auxview {

/// Static self-maintainability classifier for update tracks (PAPERS.md,
/// "Efficiency Analysis of Materialized views in DataWarehouse Using
/// self-maintenance"). A track is self-maintainable for a transaction type
/// when propagating it touches no base relation: every value it reads comes
/// from the transaction's delta or from already-materialized aux views.
///
/// Mirrors the exact complete/self-maintenance/query branch decisions and
/// fetch push-downs the DeltaEngine takes at runtime (same DeltaAnalysis
/// machinery), so the verdict is sound: where the runtime picks the cheapest
/// push-down plan by live statistics, the classifier requires every live
/// candidate to stay off base relations. The DeltaEngine re-proves a
/// positive verdict on every transaction — a self-maintainable track that
/// issues a base-relation fetch is a CHECK failure.
class LocalityClassifier {
 public:
  LocalityClassifier(const Memo* memo, const Catalog* catalog,
                     DeltaAnalysis* delta)
      : memo_(memo), catalog_(catalog), delta_(delta) {}

  StatusOr<bool> SelfMaintainable(const UpdateTrack& track,
                                  const ViewSet& marked,
                                  const TransactionType& type) const;

 private:
  struct ClassifyState;

  StatusOr<DeltaInfo> StaticDeltaOf(GroupId g, ClassifyState& state) const;
  /// Whether answering a fetch on group `g` — the runtime push-down of
  /// delta_engine.cc's FetchUncached, taken over every live candidate
  /// operation node — can read a base relation. Every push-down fetches
  /// all inputs of its operation node, so the answer does not depend on
  /// the probe attributes.
  bool FetchReachesBase(GroupId g, ClassifyState& state) const;

  const Memo* memo_;
  const Catalog* catalog_;
  DeltaAnalysis* delta_;
};

}  // namespace auxview

#endif  // AUXVIEW_DELTA_LOCALITY_H_
