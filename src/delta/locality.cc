#include "delta/locality.h"

#include <map>
#include <set>
#include <string>
#include <vector>

#include "algebra/expr.h"

namespace auxview {

namespace {

std::set<std::string> ToSet(const std::vector<std::string>& attrs) {
  return std::set<std::string>(attrs.begin(), attrs.end());
}

}  // namespace

struct LocalityClassifier::ClassifyState {
  const UpdateTrack* track = nullptr;
  ViewSet marked;  // canonicalized group ids
  const TransactionType* type = nullptr;
  std::set<GroupId> affected;
  std::map<GroupId, DeltaInfo> static_deltas;
  /// Memoized FetchReachesBase answers.
  std::map<GroupId, bool> reaches_base;
};

StatusOr<DeltaInfo> LocalityClassifier::StaticDeltaOf(
    GroupId g, ClassifyState& state) const {
  // Mirrors DeltaEngine::StaticDeltaOf so AggregateNeedsQuery sees the same
  // DeltaInfo the runtime's branch decision sees.
  g = memo_->Find(g);
  auto it = state.static_deltas.find(g);
  if (it != state.static_deltas.end()) return it->second;
  const MemoGroup& grp = memo_->group(g);
  DeltaInfo info;
  if (grp.is_leaf) {
    const UpdateSpec* spec = state.type->SpecFor(grp.table);
    if (spec != nullptr) {
      const TableDef* def = catalog_->FindTable(grp.table);
      if (def == nullptr) {
        return Status::NotFound("relation missing from catalog: " + grp.table);
      }
      info = delta_->LeafDelta(*def, *spec);
    }
  } else if (state.affected.count(g) > 0) {
    auto choice_it = state.track->choice.find(g);
    if (choice_it == state.track->choice.end()) {
      return Status::Internal("affected group off-track: N" +
                              std::to_string(g));
    }
    const MemoExpr& e = memo_->expr(choice_it->second);
    std::vector<DeltaInfo> child_deltas;
    for (GroupId in : e.inputs) {
      AUXVIEW_ASSIGN_OR_RETURN(DeltaInfo child, StaticDeltaOf(in, state));
      child_deltas.push_back(std::move(child));
    }
    info = delta_->Propagate(e, child_deltas);
  }
  state.static_deltas[g] = info;
  return info;
}

bool LocalityClassifier::FetchReachesBase(GroupId g,
                                          ClassifyState& state) const {
  g = memo_->Find(g);
  auto hit = state.reaches_base.find(g);
  if (hit != state.reaches_base.end()) return hit->second;
  const MemoGroup& grp = memo_->group(g);
  // A base relation is read directly; a materialized aux view answers by
  // its own probe and never reaches below itself.
  bool reaches = grp.is_leaf;
  if (!grp.is_leaf && state.marked.count(g) == 0) {
    // Unmaterialized view: the runtime answers through the cheapest live
    // candidate's push-down, a choice that depends on live statistics —
    // any candidate reaching a base relation taints the group. Memoize
    // before descending: the memo DAG is acyclic, and the pre-inserted
    // value only serves re-queries of this group.
    state.reaches_base[g] = false;
    for (int eid : grp.exprs) {
      const MemoExpr& e = memo_->expr(eid);
      if (e.dead) continue;
      for (GroupId in : e.inputs) {
        if (FetchReachesBase(in, state)) reaches = true;
      }
    }
  }
  state.reaches_base[g] = reaches;
  return reaches;
}

StatusOr<bool> LocalityClassifier::SelfMaintainable(
    const UpdateTrack& track, const ViewSet& marked,
    const TransactionType& type) const {
  ClassifyState state;
  state.track = &track;
  state.type = &type;
  for (GroupId g : marked) state.marked.insert(memo_->Find(g));
  state.affected = delta_->AffectedGroups(type);

  // Every fetch the runtime propagation can issue, walked off the chosen
  // operation nodes exactly as DeltaEngine's delta kernels issue them.
  bool self_maintainable = true;
  for (const auto& [raw_g, eid] : track.choice) {
    const GroupId g = memo_->Find(raw_g);
    if (state.affected.count(g) == 0 || memo_->group(g).is_leaf) continue;
    const MemoExpr& e = memo_->expr(eid);
    std::vector<GroupId> fetched;
    switch (e.kind()) {
      case OpKind::kScan:
        return Status::Internal("scan operation node off a leaf group");
      case OpKind::kSelect:
      case OpKind::kProject:
        break;  // pure delta rewrites, no fetch
      case OpKind::kJoin: {
        // Each affected side's delta fetches its partners from the other.
        const GroupId left = memo_->Find(e.inputs[0]);
        const GroupId right = memo_->Find(e.inputs[1]);
        if (state.affected.count(left) > 0) fetched.push_back(right);
        if (state.affected.count(right) > 0) fetched.push_back(left);
        break;
      }
      case OpKind::kAggregate: {
        const GroupId input = memo_->Find(e.inputs[0]);
        AUXVIEW_ASSIGN_OR_RETURN(DeltaInfo child_static,
                                 StaticDeltaOf(input, state));
        const bool materialized = state.marked.count(g) > 0;
        const bool complete =
            child_static.CompleteWithin(ToSet(e.op->group_by()));
        const bool needs_query =
            delta_->AggregateNeedsQuery(e, child_static, materialized);
        // A group-complete delta needs no fetch, and self-maintenance reads
        // only the view's own rows; the query path fetches the input.
        if (!complete && (needs_query || !materialized)) {
          fetched.push_back(input);
        }
        break;
      }
      case OpKind::kDupElim:
        fetched.push_back(memo_->Find(e.inputs[0]));
        break;
    }
    for (GroupId f : fetched) {
      if (FetchReachesBase(f, state)) self_maintainable = false;
    }
  }
  return self_maintainable;
}

}  // namespace auxview
