#include "optimizer/track_cost.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <set>

#include "common/string_util.h"

namespace auxview {

std::string QueryRecord::ToString() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "probes=%.4g cost=%.4g", probes, cost);
  return label + " on N" + std::to_string(on_group) + " [" +
         Join(attrs, ",") + "] " + buf + (shared ? " (shared)" : "");
}

StatusOr<TrackCost> TrackCoster::Cost(const UpdateTrack& track,
                                      const ViewSet& marked,
                                      const TransactionType& txn) const {
  TrackCost out;
  if (track.choice.empty()) return out;

  // Canonical marked set.
  std::set<GroupId> marked_canon;
  for (GroupId g : marked) marked_canon.insert(memo_->Find(g));

  const std::set<GroupId> affected = delta_->AffectedGroups(txn);

  // 1. Deltas, bottom-up over the assignment (memoized recursion).
  std::map<GroupId, DeltaInfo> deltas;
  std::function<StatusOr<DeltaInfo>(GroupId)> delta_of =
      [&](GroupId g) -> StatusOr<DeltaInfo> {
    g = memo_->Find(g);
    auto it = deltas.find(g);
    if (it != deltas.end()) return it->second;
    const MemoGroup& grp = memo_->group(g);
    DeltaInfo info;
    if (grp.is_leaf) {
      const UpdateSpec* spec = txn.SpecFor(grp.table);
      if (spec != nullptr) {
        const TableDef* def = catalog_->FindTable(grp.table);
        if (def == nullptr) {
          return Status::NotFound("updated relation missing from catalog: " +
                                  grp.table);
        }
        info = delta_->LeafDelta(*def, *spec);
      }
    } else if (affected.count(g) > 0) {
      auto choice_it = track.choice.find(g);
      if (choice_it == track.choice.end()) {
        return Status::Internal("affected group N" + std::to_string(g) +
                                " has no operation node on the track");
      }
      const MemoExpr& e = memo_->expr(choice_it->second);
      std::vector<DeltaInfo> child_deltas;
      for (GroupId in : e.inputs) {
        AUXVIEW_ASSIGN_OR_RETURN(DeltaInfo child, delta_of(in));
        child_deltas.push_back(std::move(child));
      }
      info = delta_->Propagate(e, child_deltas);
    }
    deltas[g] = info;
    return info;
  };
  for (const auto& [g, eid] : track.choice) {
    (void)eid;
    AUXVIEW_RETURN_IF_ERROR(delta_of(g).status());
  }

  // 2. Queries posed along the track.
  std::set<std::string> seen_queries;
  auto pose_query = [&](int expr_id, GroupId on, std::vector<std::string> attrs,
                        double probes, const std::string& label) {
    if (probes <= 0) return;
    on = memo_->Find(on);
    QueryRecord rec;
    rec.expr_id = expr_id;
    rec.on_group = on;
    rec.attrs = attrs;
    rec.probes = probes;
    rec.label = label;
    char probes_key[32];
    std::snprintf(probes_key, sizeof(probes_key), "%.6g", probes);
    const std::string key = "N" + std::to_string(on) + "|" +
                            Join(attrs, ",") + "|" + probes_key;
    if (options_.share_queries && !seen_queries.insert(key).second) {
      rec.shared = true;
      rec.cost = 0;
    } else {
      rec.cost = query_->LookupCost(on, attrs, probes, marked_canon);
    }
    out.query_cost += rec.cost;
    out.queries.push_back(std::move(rec));
  };

  for (const auto& [g, eid] : track.choice) {
    const MemoExpr& e = memo_->expr(eid);
    switch (e.kind()) {
      case OpKind::kScan:
      case OpKind::kSelect:
      case OpKind::kProject:
        break;
      case OpKind::kJoin: {
        const GroupId left = memo_->Find(e.inputs[0]);
        const GroupId right = memo_->Find(e.inputs[1]);
        const bool l_aff = affected.count(left) > 0;
        const bool r_aff = affected.count(right) > 0;
        const std::vector<std::string>& s = e.op->join_attrs();
        if (l_aff) {
          // Delta arrives from the left: query the right input.
          pose_query(eid, right, s, deltas.at(left).size,
                     "Q@E" + std::to_string(eid) + "R");
        }
        if (r_aff) {
          pose_query(eid, left, s, deltas.at(right).size,
                     "Q@E" + std::to_string(eid) + "L");
        }
        break;
      }
      case OpKind::kAggregate: {
        const GroupId input = memo_->Find(e.inputs[0]);
        const DeltaInfo& child_delta = deltas.at(input);
        const bool materialized = marked_canon.count(g) > 0;
        if (delta_->AggregateNeedsQuery(e, child_delta, materialized)) {
          // Fetch the affected groups' full contents from the input.
          pose_query(eid, input, e.op->group_by(), deltas.at(g).size,
                     "Q@E" + std::to_string(eid));
        }
        break;
      }
      case OpKind::kDupElim: {
        // Computing insert/delete transitions of a duplicate-eliminated view
        // requires the input's current multiplicity for every delta row.
        const GroupId input = memo_->Find(e.inputs[0]);
        const DeltaInfo& child_delta = deltas.at(input);
        std::vector<std::string> all_attrs;
        for (const Column& c : memo_->group(g).schema.columns()) {
          all_attrs.push_back(c.name);
        }
        pose_query(eid, input, all_attrs, child_delta.size,
                   "Q@E" + std::to_string(eid));
        break;
      }
    }
  }

  // 3. Update-application cost for each marked affected group.
  const GroupId root = memo_->root();
  for (GroupId g : marked_canon) {
    if (memo_->group(g).is_leaf) continue;
    if (affected.count(g) == 0) continue;
    if (g == root && !options_.include_root_update_cost) continue;
    auto it = deltas.find(g);
    if (it == deltas.end()) continue;
    const DeltaInfo& d = it->second;
    out.update_cost += query_->model().ApplyDelta(
        d.kind, d.size, options_.indexes_per_view,
        /*indexed_attrs_change=*/false);
  }

  out.deltas = std::move(deltas);
  return out;
}

}  // namespace auxview
