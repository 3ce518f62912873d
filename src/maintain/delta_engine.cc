#include "maintain/delta_engine.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/failpoint.h"
#include "common/string_util.h"
#include "exec/kernels/kernels.h"
#include "exec/kernels/row_batch.h"
#include "obs/metrics.h"

namespace auxview {

namespace {

std::set<std::string> ToSet(const std::vector<std::string>& v) {
  return std::set<std::string>(v.begin(), v.end());
}

std::vector<std::string> SchemaAttrList(const Schema& schema) {
  std::vector<std::string> out;
  for (const Column& c : schema.columns()) out.push_back(c.name);
  return out;
}

/// Projects `row` (laid out per `schema`) onto `attrs`.
Row ProjectRow(const Row& row, const Schema& schema,
               const std::vector<std::string>& attrs) {
  Row key;
  key.reserve(attrs.size());
  for (const std::string& a : attrs) {
    const int i = schema.IndexOf(a);
    AUXVIEW_CHECK(i >= 0);
    key.push_back(row[i]);
  }
  return key;
}

/// Filters `rel` to rows whose `attrs` projection equals `key`.
Relation FilterByKey(const Relation& rel, const std::vector<std::string>& attrs,
                     const Row& key) {
  if (attrs.empty()) return rel;
  Relation out(rel.schema());
  RowEq eq;
  for (const auto& [row, count] : rel.rows()) {
    if (eq(ProjectRow(row, rel.schema(), attrs), key)) out.Add(row, count);
  }
  return out;
}

/// Runs a unary operator kernel over a coalesced relation: batch in, batch
/// out, coalesce back. Survives only at fetch/materialization boundaries
/// (FetchUncached push-down, the aggregate query path) — track-internal
/// deltas stay RowBatch end to end.
StatusOr<Relation> ApplyUnaryKernel(const Expr& op, const Relation& in) {
  AUXVIEW_ASSIGN_OR_RETURN(RowBatch out,
                           kernels::ApplyUnary(op, RowBatch::FromRelation(in)));
  return out.ToRelation();
}

/// Joins two coalesced relations through the shared hash-join kernel: one
/// hash build over the right side, one probe per left row.
StatusOr<Relation> ApplyJoinKernel(const Expr& op, const Relation& left,
                                   const Relation& right) {
  AUXVIEW_ASSIGN_OR_RETURN(
      RowBatch out, kernels::HashJoin(op, RowBatch::FromRelation(left),
                                      RowBatch::FromRelation(right)));
  return out.ToRelation();
}

/// Live entry count of the (per-engine) fetch cache. Process-cumulative
/// last-writer-wins when several engines exist, like the other global
/// mirrors.
obs::Gauge* FetchCacheGauge() {
  static obs::Gauge* gauge =
      obs::MetricsRegistry::Global().GetGauge("maintain.fetch_cache_size");
  return gauge;
}

/// Entries merged away at batch coalesce points (leaf seeds and per-node
/// attach): in_entries - out_entries summed over every Coalesced() call.
obs::Counter* CoalesceRowsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("maintain.coalesce_rows");
  return c;
}

/// Transactions whose track classified self-maintainable (and therefore ran
/// under the base-fetch guard).
obs::Counter* SelfMaintainableTxnsCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "maintain.self_maintainable_txns");
  return c;
}

/// RAII arm/disarm of DeltaEngine::forbid_base_fetch_.
class ScopedForbidBaseFetch {
 public:
  ScopedForbidBaseFetch(bool* flag, bool engage)
      : flag_(engage ? flag : nullptr) {
    if (flag_ != nullptr) *flag_ = true;
  }
  ~ScopedForbidBaseFetch() {
    if (flag_ != nullptr) *flag_ = false;
  }
  ScopedForbidBaseFetch(const ScopedForbidBaseFetch&) = delete;
  ScopedForbidBaseFetch& operator=(const ScopedForbidBaseFetch&) = delete;

 private:
  bool* flag_;
};

}  // namespace

std::string MaterializedViewName(GroupId g) {
  return "__mv_N" + std::to_string(g);
}

void DeltaEngine::ClearFetchCache() {
  fetch_cache_.clear();
  FetchCacheGauge()->Set(0);
}

DeltaEngine::DeltaEngine(const Memo* memo, const Catalog* catalog,
                         Database* db)
    : memo_(memo),
      catalog_(catalog),
      db_(db),
      stats_(memo, catalog),
      fds_(memo, catalog),
      delta_(memo, catalog, &stats_),
      coster_(memo, catalog, &stats_, &fds_, IoCostModel()) {}

StatusOr<bool> DeltaEngine::SelfMaintainable(const TransactionType& type,
                                             const UpdateTrack& track,
                                             const ViewSet& marked) {
  std::string key = type.name + "#";
  for (const auto& [g, eid] : track.choice) {
    key += std::to_string(g) + ":" + std::to_string(eid) + ",";
  }
  key += "#";
  for (GroupId g : marked) key += std::to_string(g) + ",";
  auto it = self_maintainable_cache_.find(key);
  if (it == self_maintainable_cache_.end()) {
    LocalityClassifier classifier(memo_, catalog_, &delta_);
    AUXVIEW_ASSIGN_OR_RETURN(bool verdict,
                             classifier.SelfMaintainable(track, marked, type));
    it = self_maintainable_cache_.emplace(key, verdict).first;
  }
  return it->second;
}

StatusOr<Relation> DeltaEngine::AlignRelation(const Relation& rel,
                                              const Schema& schema) {
  if (rel.schema() == schema) return rel;
  std::vector<int> mapping;
  for (const Column& c : schema.columns()) {
    const int i = rel.schema().IndexOf(c.name);
    if (i < 0) {
      return Status::Internal("cannot align relation: missing column " +
                              c.name);
    }
    mapping.push_back(i);
  }
  Relation out(schema);
  for (const auto& [row, count] : rel.rows()) {
    Row aligned;
    aligned.reserve(mapping.size());
    for (int i : mapping) aligned.push_back(row[i]);
    out.Add(aligned, count);
  }
  return out;
}

StatusOr<RowBatch> DeltaEngine::AlignBatch(const RowBatch& batch,
                                           const Schema& schema) {
  if (batch.schema() == schema) return batch;
  std::vector<int> mapping;
  for (const Column& c : schema.columns()) {
    const int i = batch.schema().IndexOf(c.name);
    if (i < 0) {
      return Status::Internal("cannot align batch: missing column " + c.name);
    }
    mapping.push_back(i);
  }
  RowBatch out(schema);
  out.Reserve(batch.num_rows());
  Row aligned;
  for (int64_t r = 0; r < batch.num_rows(); ++r) {
    const RowRef row = batch.row(r);
    aligned.clear();
    aligned.reserve(mapping.size());
    for (int i : mapping) aligned.push_back(row[i]);
    out.Append(aligned, batch.count(r));
  }
  return out;
}

StatusOr<RowBatch> DeltaEngine::LeafDeltaBatch(const MemoGroup& grp,
                                               const TableUpdate& update) const {
  RowBatch out(grp.schema);
  for (const auto& [row, count] : update.inserts) out.Append(row, count);
  for (const auto& [row, count] : update.deletes) out.Append(row, -count);
  for (const auto& [old_row, new_row] : update.modifies) {
    const Table* table = db_->FindTable(grp.table);
    const int64_t mult = table != nullptr ? table->CountOf(old_row) : 1;
    out.Append(old_row, -std::max<int64_t>(mult, 1));
    out.Append(new_row, std::max<int64_t>(mult, 1));
  }
  RowBatch coalesced = out.Coalesced();
  CoalesceRowsCounter()->Add(out.num_rows() - coalesced.num_rows());
  return coalesced;
}

const RowBatch& DeltaEngine::DeltaBatchOf(GroupId g, ApplyContext& ctx) const {
  auto it = ctx.deltas.find(memo_->Find(g));
  AUXVIEW_CHECK_MSG(it != ctx.deltas.end(),
                    "delta dependency missing: wave scheduling bug");
  return it->second;
}

StatusOr<std::map<GroupId, Relation>> DeltaEngine::ComputeDeltas(
    const ConcreteTxn& txn, const TransactionType& type,
    const UpdateTrack& track, const ViewSet& marked) {
  static obs::Counter* calls =
      obs::MetricsRegistry::Global().GetCounter("maintain.compute_deltas");
  static obs::Counter* deltas_out = obs::MetricsRegistry::Global().GetCounter(
      "maintain.deltas_computed");
  static obs::Histogram* timing = obs::MetricsRegistry::Global().GetHistogram(
      "maintain.compute_deltas_us");
  calls->Add(1);
  obs::ScopedTimer timer(timing);
  AUXVIEW_FAILPOINT("maintain.compute_deltas");
  // Fresh caches (the database mutates between transactions).
  stats_.Clear();
  ClearFetchCache();
  ApplyContext ctx;
  ctx.txn = &txn;
  ctx.type = &type;
  ctx.track = &track;
  ViewSet marked_canon;
  for (GroupId g : marked) marked_canon.insert(memo_->Find(g));
  ctx.marked = &marked_canon;
  ctx.affected = delta_.AffectedGroups(type);

  // ---- Phase A: plan the track DAG. Walks exactly the closure the former
  // lazy recursion visited (join children only when affected; every other
  // input unconditionally) and seeds leaf and unaffected-group deltas.
  std::set<GroupId> visited;
  std::vector<GroupId> node_order;  // post-order: inputs before consumers
  std::map<GroupId, std::vector<GroupId>> deps;  // affected non-leaf inputs
  std::function<Status(GroupId)> visit = [&](GroupId g) -> Status {
    g = memo_->Find(g);
    if (!visited.insert(g).second) return Status::Ok();
    const MemoGroup& grp = memo_->group(g);
    if (grp.is_leaf) {
      RowBatch seed(grp.schema);
      const TableUpdate* update = ctx.txn->FindUpdate(grp.table);
      if (update != nullptr) {
        AUXVIEW_ASSIGN_OR_RETURN(seed, LeafDeltaBatch(grp, *update));
      }
      ctx.deltas.emplace(g, std::move(seed));
      return Status::Ok();
    }
    if (ctx.affected.count(g) == 0) {
      ctx.deltas.emplace(g, RowBatch(grp.schema));
      return Status::Ok();
    }
    auto choice_it = ctx.track->choice.find(g);
    if (choice_it == ctx.track->choice.end()) {
      return Status::Internal("affected group off-track: N" +
                              std::to_string(g));
    }
    const MemoExpr& e = memo_->expr(choice_it->second);
    std::vector<GroupId> children;
    switch (e.kind()) {
      case OpKind::kScan:
        return Status::Internal("scan operation node off a leaf group");
      case OpKind::kSelect:
      case OpKind::kProject:
      case OpKind::kAggregate:
      case OpKind::kDupElim:
        children.push_back(memo_->Find(e.inputs[0]));
        break;
      case OpKind::kJoin: {
        const GroupId left = memo_->Find(e.inputs[0]);
        const GroupId right = memo_->Find(e.inputs[1]);
        if (ctx.affected.count(left) > 0) children.push_back(left);
        if (ctx.affected.count(right) > 0) children.push_back(right);
        break;
      }
    }
    std::vector<GroupId> my_deps;
    for (GroupId c : children) {
      AUXVIEW_RETURN_IF_ERROR(visit(c));
      if (!memo_->group(c).is_leaf && ctx.affected.count(c) > 0) {
        my_deps.push_back(c);
      }
    }
    deps[g] = std::move(my_deps);
    node_order.push_back(g);
    return Status::Ok();
  };
  for (const auto& [g, eid] : track.choice) {
    (void)eid;
    AUXVIEW_RETURN_IF_ERROR(visit(g));
  }

  // Wave assignment: a node runs one wave after its latest-finishing input,
  // and nodes run wave by wave, by ascending group id within a wave — a pure
  // function of the track, so fetch order, fetch-cache counters and
  // failpoint hit order are too.
  std::map<GroupId, size_t> wave_of;
  std::vector<std::pair<size_t, GroupId>> schedule;
  for (GroupId g : node_order) {
    size_t w = 0;
    for (GroupId d : deps[g]) w = std::max(w, wave_of[d] + 1);
    wave_of[g] = w;
    schedule.emplace_back(w, g);
  }
  std::sort(schedule.begin(), schedule.end());

  // Every transaction re-proves the self-maintainability verdict: while a
  // self-maintainable track computes, any base-relation fetch is a CHECK
  // failure.
  AUXVIEW_ASSIGN_OR_RETURN(const bool self_maintainable,
                           SelfMaintainable(type, track, marked_canon));
  if (self_maintainable) SelfMaintainableTxnsCounter()->Add(1);
  ScopedForbidBaseFetch forbid_guard(&forbid_base_fetch_, self_maintainable);

  // ---- Phase B: compute the nodes in schedule order. A node reads only
  // deltas seeded in Phase A or computed in an earlier wave.
  for (const auto& [wave, g] : schedule) {
    (void)wave;
    AUXVIEW_RETURN_IF_ERROR(ComputeNode(g, ctx));
  }

  deltas_out->Add(static_cast<int64_t>(ctx.deltas.size()));
  // The attach point: coalesced batches become the Relations the commit
  // path applies (batch-native until here).
  std::map<GroupId, Relation> result;
  for (const auto& [g, batch] : ctx.deltas) {
    result.emplace(g, batch.ToRelation());
  }
  return result;
}

Status DeltaEngine::ComputeNode(GroupId g, ApplyContext& ctx) {
  const MemoGroup& grp = memo_->group(g);
  auto choice_it = ctx.track->choice.find(g);
  AUXVIEW_CHECK(choice_it != ctx.track->choice.end());
  const MemoExpr& e = memo_->expr(choice_it->second);
  StatusOr<RowBatch> natural = [&]() -> StatusOr<RowBatch> {
    switch (e.kind()) {
      case OpKind::kScan:
        return Status::Internal("scan operation node off a leaf group");
      case OpKind::kSelect:
      case OpKind::kProject:
        return kernels::ApplyUnary(*e.op, DeltaBatchOf(e.inputs[0], ctx));
      case OpKind::kJoin:
        return JoinDelta(e, ctx);
      case OpKind::kAggregate:
        return AggregateDelta(e, ctx);
      case OpKind::kDupElim:
        return DupElimDelta(e, ctx);
    }
    return Status::Internal("unhandled op kind");
  }();
  AUXVIEW_RETURN_IF_ERROR(natural.status());
  AUXVIEW_ASSIGN_OR_RETURN(RowBatch aligned, AlignBatch(*natural, grp.schema));
  RowBatch coalesced = aligned.Coalesced();
  CoalesceRowsCounter()->Add(aligned.num_rows() - coalesced.num_rows());
  ctx.deltas.emplace(g, std::move(coalesced));
  return Status::Ok();
}

StatusOr<DeltaInfo> DeltaEngine::StaticDeltaOf(GroupId g, ApplyContext& ctx) {
  g = memo_->Find(g);
  auto it = ctx.static_deltas.find(g);
  if (it != ctx.static_deltas.end()) return it->second;
  const MemoGroup& grp = memo_->group(g);
  DeltaInfo info;
  if (grp.is_leaf) {
    const UpdateSpec* spec = ctx.type->SpecFor(grp.table);
    if (spec != nullptr) {
      const TableDef* def = catalog_->FindTable(grp.table);
      if (def == nullptr) {
        return Status::NotFound("relation missing from catalog: " + grp.table);
      }
      info = delta_.LeafDelta(*def, *spec);
    }
  } else if (ctx.affected.count(g) > 0) {
    auto choice_it = ctx.track->choice.find(g);
    if (choice_it == ctx.track->choice.end()) {
      return Status::Internal("affected group off-track: N" +
                              std::to_string(g));
    }
    const MemoExpr& e = memo_->expr(choice_it->second);
    std::vector<DeltaInfo> child_deltas;
    for (GroupId in : e.inputs) {
      AUXVIEW_ASSIGN_OR_RETURN(DeltaInfo child, StaticDeltaOf(in, ctx));
      child_deltas.push_back(std::move(child));
    }
    info = delta_.Propagate(e, child_deltas);
  }
  ctx.static_deltas[g] = info;
  return info;
}

StatusOr<RowBatch> DeltaEngine::JoinDelta(const MemoExpr& e,
                                          ApplyContext& ctx) {
  const GroupId left = memo_->Find(e.inputs[0]);
  const GroupId right = memo_->Find(e.inputs[1]);
  const bool l_aff = ctx.affected.count(left) > 0;
  const bool r_aff = ctx.affected.count(right) > 0;
  const std::vector<std::string>& s = e.op->join_attrs();

  RowBatch out(e.natural_schema);

  // Distinct join keys of a delta, fetched as one batch: a single probe-plan
  // resolution (or push-down plan choice) serves every key, then the delta
  // joins its whole partner set through one hash build. Partner rows of
  // distinct keys are disjoint, so the partner batch is coalesced by
  // construction and appended in probe-key order (deterministic).
  auto fetch_partners = [&](const RowBatch& delta,
                            GroupId other) -> StatusOr<RowBatch> {
    std::set<std::string> seen;
    std::vector<Row> probe_keys;
    for (int64_t i = 0; i < delta.num_rows(); ++i) {
      Row key = ProjectRow(delta.RowAt(i), delta.schema(), s);
      if (!seen.insert(RowToString(key)).second) continue;
      probe_keys.push_back(std::move(key));
    }
    AUXVIEW_ASSIGN_OR_RETURN(
        std::vector<Relation> matches,
        FetchMatchingBatch(other, s, probe_keys, *ctx.marked));
    RowBatch partners(memo_->group(other).schema);
    for (const Relation& m : matches) {
      for (const auto& [row, count] : m.rows()) partners.Append(row, count);
    }
    return partners;
  };

  if (l_aff) {
    const RowBatch& dl = DeltaBatchOf(left, ctx);
    AUXVIEW_ASSIGN_OR_RETURN(RowBatch partners, fetch_partners(dl, right));
    AUXVIEW_ASSIGN_OR_RETURN(RowBatch term,
                             kernels::HashJoin(*e.op, dl, partners));
    out.AppendBatch(term);
  }
  if (r_aff) {
    const RowBatch& dr = DeltaBatchOf(right, ctx);
    AUXVIEW_ASSIGN_OR_RETURN(RowBatch partners, fetch_partners(dr, left));
    AUXVIEW_ASSIGN_OR_RETURN(RowBatch term,
                             kernels::HashJoin(*e.op, partners, dr));
    out.AppendBatch(term);
  }
  if (l_aff && r_aff) {
    AUXVIEW_ASSIGN_OR_RETURN(
        RowBatch term, kernels::HashJoin(*e.op, DeltaBatchOf(left, ctx),
                                         DeltaBatchOf(right, ctx)));
    out.AppendBatch(term);
  }
  return out;
}

StatusOr<RowBatch> DeltaEngine::AggregateDelta(const MemoExpr& e,
                                               ApplyContext& ctx) {
  const GroupId g = memo_->Find(e.group);
  const GroupId input = memo_->Find(e.inputs[0]);
  const RowBatch& dc = DeltaBatchOf(input, ctx);
  const std::vector<std::string>& group_by = e.op->group_by();
  AUXVIEW_ASSIGN_OR_RETURN(DeltaInfo child_static, StaticDeltaOf(input, ctx));
  const bool materialized = ctx.marked->count(g) > 0;
  const bool complete = child_static.CompleteWithin(ToSet(group_by));
  const bool needs_query =
      delta_.AggregateNeedsQuery(e, child_static, materialized);

  // Partition the child delta by group key (std::map: deterministic order
  // independent of the batch's entry order). Each group's sub-batch keeps
  // the delta's entry order.
  const Schema& child_schema = dc.schema();
  std::map<std::string, std::pair<Row, RowBatch>> per_key;
  for (int64_t i = 0; i < dc.num_rows(); ++i) {
    const Row row = dc.RowAt(i);
    Row key = ProjectRow(row, child_schema, group_by);
    const std::string key_str = RowToString(key);
    auto [it, inserted] =
        per_key.try_emplace(key_str, key, RowBatch(child_schema));
    it->second.second.Append(row, dc.count(i));
  }

  RowBatch out_natural(e.natural_schema);
  RowBatch out_canonical(memo_->group(g).schema);

  const Schema& view_schema = memo_->group(g).schema;
  const Table* view_table =
      materialized ? db_->FindTable(MaterializedViewName(g)) : nullptr;

  // The complete/self-maintenance/query choice below is key-independent, so
  // every group key takes the same branch — prefetch whatever that branch
  // reads with one batched probe over all keys (in per_key order).
  std::vector<Row> group_keys;
  group_keys.reserve(per_key.size());
  for (const auto& [key_str, entry] : per_key) {
    (void)key_str;
    group_keys.push_back(entry.first);
  }
  std::vector<Relation> old_contents;              // query path
  std::vector<std::vector<CountedRow>> view_rows;  // self-maintenance path
  if (!group_keys.empty() && !complete) {
    if (!needs_query && materialized) {
      if (view_table == nullptr) {
        return Status::Internal("materialized view table missing for N" +
                                std::to_string(g));
      }
      // These reads are part of the update cost, so they are not charged.
      view_rows = view_table->LookupBatchUncharged(group_by, group_keys);
    } else {
      AUXVIEW_ASSIGN_OR_RETURN(
          old_contents,
          FetchMatchingBatch(input, group_by, group_keys, *ctx.marked));
    }
  }

  size_t key_idx = 0;
  for (auto& [key_str, entry] : per_key) {
    (void)key_str;
    const Row& key = entry.first;
    const RowBatch& sub = entry.second;
    if (complete) {
      // The delta covers the whole group: aggregate old and new content
      // directly from the sign-split sub-batch (entry order preserved).
      RowBatch old_content(child_schema);
      RowBatch new_content(child_schema);
      for (int64_t i = 0; i < sub.num_rows(); ++i) {
        const int64_t count = sub.count(i);
        if (count < 0) old_content.Append(sub.row(i), -count);
        if (count > 0) new_content.Append(sub.row(i), count);
      }
      AUXVIEW_ASSIGN_OR_RETURN(RowBatch old_rows,
                               kernels::GroupedAggregate(*e.op, old_content));
      AUXVIEW_ASSIGN_OR_RETURN(RowBatch new_rows,
                               kernels::GroupedAggregate(*e.op, new_content));
      for (int64_t i = 0; i < old_rows.num_rows(); ++i) {
        out_natural.Append(old_rows.row(i), -old_rows.count(i));
      }
      out_natural.AppendBatch(new_rows);
    } else if (!needs_query && materialized) {
      // Self-maintenance: the old group row came from the batched
      // (uncharged) view probe above; derive the new row algebraically.
      Row old_row;
      bool have_old = false;
      {
        const std::vector<CountedRow>& found = view_rows[key_idx];
        if (found.size() > 1) {
          return Status::Internal("duplicate group row in materialized view");
        }
        if (!found.empty()) {
          old_row = found[0].row;
          have_old = true;
        }
      }
      Row new_row(view_schema.num_columns());
      for (size_t i = 0; i < group_by.size(); ++i) {
        const int col = view_schema.IndexOf(group_by[i]);
        AUXVIEW_CHECK(col >= 0);
        new_row[col] = key[i];
      }
      int64_t new_total_count = -1;
      bool group_becomes_empty = false;
      for (const AggSpec& agg : e.op->aggs()) {
        const int col = view_schema.IndexOf(agg.output_name);
        AUXVIEW_CHECK(col >= 0);
        const Value old_val = have_old ? old_row[col] : Value::Null();
        switch (agg.func) {
          case AggFunc::kSum: {
            double delta_sum = 0;
            bool all_int = old_val.is_null() ||
                           old_val.type() == ValueType::kInt64;
            bool any = false;
            for (int64_t i = 0; i < sub.num_rows(); ++i) {
              const Row row = sub.RowAt(i);
              AUXVIEW_ASSIGN_OR_RETURN(Value v,
                                       agg.arg->Eval(row, child_schema));
              if (v.is_null()) continue;
              delta_sum += v.AsDouble() * static_cast<double>(sub.count(i));
              if (v.type() != ValueType::kInt64) all_int = false;
              any = true;
            }
            double base = old_val.is_null() ? 0 : old_val.AsDouble();
            if (!any && old_val.is_null()) {
              new_row[col] = Value::Null();
            } else if (all_int) {
              new_row[col] =
                  Value::Int64(static_cast<int64_t>(base + delta_sum));
            } else {
              new_row[col] = Value::Double(base + delta_sum);
            }
            break;
          }
          case AggFunc::kCount: {
            int64_t delta_count = 0;
            for (int64_t i = 0; i < sub.num_rows(); ++i) {
              if (agg.arg != nullptr) {
                const Row row = sub.RowAt(i);
                AUXVIEW_ASSIGN_OR_RETURN(Value v,
                                         agg.arg->Eval(row, child_schema));
                if (v.is_null()) continue;
              }
              delta_count += sub.count(i);
            }
            const int64_t base = old_val.is_null() ? 0 : old_val.int64();
            const int64_t next = base + delta_count;
            new_row[col] = Value::Int64(next);
            if (agg.arg == nullptr) {
              new_total_count = next;
              if (next <= 0) group_becomes_empty = true;
            }
            break;
          }
          case AggFunc::kMin:
          case AggFunc::kMax: {
            // Statically guaranteed: insert-only deltas.
            Value best = old_val;
            for (int64_t i = 0; i < sub.num_rows(); ++i) {
              if (sub.count(i) <= 0) {
                return Status::Internal(
                    "non-insert delta reached MIN/MAX self-maintenance");
              }
              const Row row = sub.RowAt(i);
              AUXVIEW_ASSIGN_OR_RETURN(Value v,
                                       agg.arg->Eval(row, child_schema));
              if (v.is_null()) continue;
              if (best.is_null() ||
                  (agg.func == AggFunc::kMin ? v.Compare(best) < 0
                                             : v.Compare(best) > 0)) {
                best = v;
              }
            }
            new_row[col] = best;
            break;
          }
          case AggFunc::kAvg:
            return Status::Internal(
                "AVG is not self-maintainable; query path expected");
        }
      }
      (void)new_total_count;
      if (have_old) out_canonical.Append(old_row, -1);
      if (!group_becomes_empty) out_canonical.Append(new_row, 1);
    } else {
      // Query path: the group's current contents came from the batched
      // prefetch above (a fetch boundary, so Relation interop is expected
      // here).
      const Relation& old_content = old_contents[key_idx];
      Relation new_content = old_content;
      sub.AccumulateInto(&new_content);
      AUXVIEW_ASSIGN_OR_RETURN(Relation old_rows,
                               ApplyUnaryKernel(*e.op, old_content));
      AUXVIEW_ASSIGN_OR_RETURN(Relation new_rows,
                               ApplyUnaryKernel(*e.op, new_content));
      for (const auto& [row, count] : old_rows.rows()) {
        out_natural.Append(row, -count);
      }
      for (const auto& [row, count] : new_rows.rows()) {
        out_natural.Append(row, count);
      }
    }
    ++key_idx;
  }

  AUXVIEW_ASSIGN_OR_RETURN(RowBatch aligned,
                           AlignBatch(out_natural, out_canonical.schema()));
  out_canonical.AppendBatch(aligned);
  return out_canonical;
}

StatusOr<RowBatch> DeltaEngine::DupElimDelta(const MemoExpr& e,
                                             ApplyContext& ctx) {
  const GroupId input = memo_->Find(e.inputs[0]);
  const RowBatch& dc = DeltaBatchOf(input, ctx);
  RowBatch out(e.natural_schema);
  const std::vector<std::string> attrs = SchemaAttrList(dc.schema());
  // One batched probe for every delta row's prior multiplicity (the node
  // batch is coalesced, so its entries are distinct rows).
  std::vector<Row> probe_rows;
  probe_rows.reserve(static_cast<size_t>(dc.num_rows()));
  for (int64_t i = 0; i < dc.num_rows(); ++i) probe_rows.push_back(dc.RowAt(i));
  AUXVIEW_ASSIGN_OR_RETURN(
      std::vector<Relation> existing_per_row,
      FetchMatchingBatch(input, attrs, probe_rows, *ctx.marked));
  for (size_t i = 0; i < probe_rows.size(); ++i) {
    const Row& row = probe_rows[i];
    const int64_t count = dc.count(static_cast<int64_t>(i));
    const int64_t old_mult = existing_per_row[i].CountOf(row);
    const int64_t new_mult = old_mult + count;
    if (new_mult < 0) {
      return Status::FailedPrecondition(
          "delta drives a multiplicity negative in DupElim");
    }
    if (old_mult > 0 && new_mult == 0) out.Append(row, -1);
    if (old_mult == 0 && new_mult > 0) out.Append(row, 1);
  }
  return out;
}

StatusOr<Relation> DeltaEngine::FetchMatching(
    GroupId g, const std::vector<std::string>& attrs, const Row& key,
    const ViewSet& marked) {
  AUXVIEW_ASSIGN_OR_RETURN(std::vector<Relation> out,
                           FetchMatchingBatch(g, attrs, {key}, marked));
  return std::move(out[0]);
}

StatusOr<std::vector<Relation>> DeltaEngine::FetchMatchingBatch(
    GroupId g, const std::vector<std::string>& attrs,
    const std::vector<Row>& keys, const ViewSet& marked) {
  static obs::Counter* cache_hits =
      obs::MetricsRegistry::Global().GetCounter("maintain.fetch_cache_hits");
  static obs::Counter* cache_misses =
      obs::MetricsRegistry::Global().GetCounter("maintain.fetch_cache_misses");
  g = memo_->Find(g);
  const std::string prefix =
      "N" + std::to_string(g) + "|" + Join(attrs, ",") + "|";
  // Distinct uncached keys, in first-appearance order: a key already cached
  // or repeated earlier in this batch counts as a hit, so the cache
  // counters match the equivalent per-key sequence exactly.
  std::vector<std::string> cache_keys;
  cache_keys.reserve(keys.size());
  std::set<std::string> miss_set;
  std::vector<Row> miss_keys;
  std::vector<std::string> miss_cache_keys;
  for (const Row& key : keys) {
    std::string ck = prefix + RowToString(key);
    if (fetch_cache_.count(ck) > 0 || !miss_set.insert(ck).second) {
      cache_hits->Add(1);
    } else {
      cache_misses->Add(1);
      AUXVIEW_FAILPOINT("maintain.fetch");
      miss_keys.push_back(key);
      miss_cache_keys.push_back(ck);
    }
    cache_keys.push_back(std::move(ck));
  }
  if (!miss_keys.empty()) {
    AUXVIEW_ASSIGN_OR_RETURN(std::vector<Relation> fetched,
                             FetchUncached(g, attrs, miss_keys, marked));
    AUXVIEW_CHECK(fetched.size() == miss_keys.size());
    for (size_t i = 0; i < fetched.size(); ++i) {
      fetch_cache_[miss_cache_keys[i]] = std::move(fetched[i]);
    }
    FetchCacheGauge()->Set(static_cast<int64_t>(fetch_cache_.size()));
  }
  std::vector<Relation> results;
  results.reserve(keys.size());
  for (const std::string& ck : cache_keys) {
    results.push_back(fetch_cache_.at(ck));
  }
  return results;
}

StatusOr<std::vector<Relation>> DeltaEngine::FetchUncached(
    GroupId g, const std::vector<std::string>& attrs,
    const std::vector<Row>& keys, const ViewSet& marked) {
  const MemoGroup& grp = memo_->group(g);
  std::vector<Relation> out;
  out.reserve(keys.size());

  // Base relation or materialized view: direct (charged) probes — the probe
  // plan resolves once and every key goes through Table::LookupBatch.
  const Table* table = nullptr;
  if (grp.is_leaf) {
    // The classifier's strongest verdict, proven at runtime: a track labeled
    // self-maintainable must never reach a base relation.
    AUXVIEW_CHECK_MSG(!forbid_base_fetch_,
                      "self-maintainable track fetched a base relation");
    table = db_->FindTable(grp.table);
    if (table == nullptr) {
      return Status::NotFound("missing base table: " + grp.table);
    }
  } else if (marked.count(g) > 0) {
    table = db_->FindTable(MaterializedViewName(g));
    if (table == nullptr) {
      return Status::Internal("missing materialized view table for N" +
                              std::to_string(g));
    }
  }
  if (table != nullptr) {
    if (attrs.empty()) {
      // Fetch-everything keys are all the empty row; distinct keys mean at
      // most one scan.
      for (size_t i = 0; i < keys.size(); ++i) {
        Relation rel(table->schema());
        for (const CountedRow& cr : table->ScanAll()) rel.Add(cr.row, cr.count);
        AUXVIEW_ASSIGN_OR_RETURN(Relation aligned,
                                 AlignRelation(rel, grp.schema));
        out.push_back(std::move(aligned));
      }
      return out;
    }
    for (const std::vector<CountedRow>& found :
         table->LookupBatch(attrs, keys)) {
      Relation rel(table->schema());
      for (const CountedRow& cr : found) rel.Add(cr.row, cr.count);
      AUXVIEW_ASSIGN_OR_RETURN(Relation aligned,
                               AlignRelation(rel, grp.schema));
      out.push_back(std::move(aligned));
    }
    return out;
  }

  // Unmaterialized: follow the cheapest plan (same choice as the estimator).
  // The plan cost depends on the probe attrs, never the key value, so one
  // choice serves the whole batch.
  int best_eid = -1;
  {
    std::set<GroupId> marked_set(marked.begin(), marked.end());
    double best_cost = std::numeric_limits<double>::infinity();
    for (int eid : grp.exprs) {
      const MemoExpr& cand = memo_->expr(eid);
      if (cand.dead) continue;
      const double cost = coster_.PlanLookupCost(cand, attrs, 1, marked_set);
      if (cost < best_cost) {
        best_cost = cost;
        best_eid = eid;
      }
    }
  }
  if (best_eid < 0) {
    return Status::Internal("no plan to answer a lookup on N" +
                            std::to_string(g));
  }
  const MemoExpr& e = memo_->expr(best_eid);

  StatusOr<std::vector<Relation>> naturals =
      [&]() -> StatusOr<std::vector<Relation>> {
    std::vector<Relation> nat;
    nat.reserve(keys.size());
    switch (e.kind()) {
      case OpKind::kScan:
        return Status::Internal("scan op in non-leaf group");
      case OpKind::kSelect: {
        AUXVIEW_ASSIGN_OR_RETURN(
            std::vector<Relation> ins,
            FetchMatchingBatch(e.inputs[0], attrs, keys, marked));
        for (const Relation& in : ins) {
          AUXVIEW_ASSIGN_OR_RETURN(Relation r, ApplyUnaryKernel(*e.op, in));
          nat.push_back(std::move(r));
        }
        return nat;
      }
      case OpKind::kProject: {
        std::set<std::string> passthrough;
        for (const ProjectItem& item : e.op->projections()) {
          if (item.expr->op() == ScalarOp::kColumn &&
              item.expr->column_name() == item.name) {
            passthrough.insert(item.name);
          }
        }
        const bool pushable = std::all_of(
            attrs.begin(), attrs.end(),
            [&](const std::string& a) { return passthrough.count(a) > 0; });
        AUXVIEW_ASSIGN_OR_RETURN(
            std::vector<Relation> ins,
            pushable ? FetchMatchingBatch(e.inputs[0], attrs, keys, marked)
                     : FetchMatchingBatch(e.inputs[0], {},
                                          std::vector<Row>(keys.size(), Row{}),
                                          marked));
        for (const Relation& in : ins) {
          AUXVIEW_ASSIGN_OR_RETURN(Relation r, ApplyUnaryKernel(*e.op, in));
          nat.push_back(std::move(r));
        }
        return nat;
      }
      case OpKind::kJoin: {
        const GroupId left = memo_->Find(e.inputs[0]);
        const GroupId right = memo_->Find(e.inputs[1]);
        const std::vector<std::string>& s = e.op->join_attrs();
        // Pick a side that contains every probe attribute.
        int side = -1;
        for (int candidate = 0; candidate < 2 && !attrs.empty(); ++candidate) {
          const GroupId x = candidate == 0 ? left : right;
          const Schema& xs = memo_->group(x).schema;
          if (std::all_of(attrs.begin(), attrs.end(),
                          [&](const std::string& a) {
                            return xs.Contains(a);
                          })) {
            side = candidate;
            break;
          }
        }
        if (attrs.empty() || side < 0) {
          const std::vector<Row> empties(keys.size(), Row{});
          AUXVIEW_ASSIGN_OR_RETURN(
              std::vector<Relation> full_l,
              FetchMatchingBatch(left, {}, empties, marked));
          AUXVIEW_ASSIGN_OR_RETURN(
              std::vector<Relation> full_r,
              FetchMatchingBatch(right, {}, empties, marked));
          for (size_t i = 0; i < keys.size(); ++i) {
            AUXVIEW_ASSIGN_OR_RETURN(
                Relation r, ApplyJoinKernel(*e.op, full_l[i], full_r[i]));
            nat.push_back(std::move(r));
          }
          return nat;
        }
        const GroupId x = side == 0 ? left : right;
        const GroupId y = side == 0 ? right : left;
        AUXVIEW_ASSIGN_OR_RETURN(std::vector<Relation> subs,
                                 FetchMatchingBatch(x, attrs, keys, marked));
        // Per parent key, dedup its semijoin keys (a single sub never
        // re-fetches a partner key), then fetch every parent's partners in
        // one batch — cross-parent repeats become cache hits.
        std::vector<Row> all_skeys;
        std::vector<size_t> begin_of(keys.size() + 1, 0);
        for (size_t i = 0; i < subs.size(); ++i) {
          begin_of[i] = all_skeys.size();
          std::set<std::string> seen;
          for (const auto& [row, count] : subs[i].rows()) {
            (void)count;
            Row skey = ProjectRow(row, subs[i].schema(), s);
            if (!seen.insert(RowToString(skey)).second) continue;
            all_skeys.push_back(std::move(skey));
          }
        }
        begin_of[subs.size()] = all_skeys.size();
        AUXVIEW_ASSIGN_OR_RETURN(std::vector<Relation> partner_rels,
                                 FetchMatchingBatch(y, s, all_skeys, marked));
        for (size_t i = 0; i < subs.size(); ++i) {
          Relation partners(memo_->group(y).schema);
          for (size_t j = begin_of[i]; j < begin_of[i + 1]; ++j) {
            partners.AddAll(partner_rels[j]);
          }
          AUXVIEW_ASSIGN_OR_RETURN(
              Relation r,
              side == 0 ? ApplyJoinKernel(*e.op, subs[i], partners)
                        : ApplyJoinKernel(*e.op, partners, subs[i]));
          nat.push_back(std::move(r));
        }
        return nat;
      }
      case OpKind::kAggregate: {
        const std::set<std::string> gb = ToSet(e.op->group_by());
        const bool pushable =
            !attrs.empty() &&
            std::all_of(attrs.begin(), attrs.end(),
                        [&](const std::string& a) { return gb.count(a) > 0; });
        AUXVIEW_ASSIGN_OR_RETURN(
            std::vector<Relation> ins,
            pushable ? FetchMatchingBatch(e.inputs[0], attrs, keys, marked)
                     : FetchMatchingBatch(e.inputs[0], {},
                                          std::vector<Row>(keys.size(), Row{}),
                                          marked));
        for (const Relation& in : ins) {
          AUXVIEW_ASSIGN_OR_RETURN(Relation r, ApplyUnaryKernel(*e.op, in));
          nat.push_back(std::move(r));
        }
        return nat;
      }
      case OpKind::kDupElim: {
        AUXVIEW_ASSIGN_OR_RETURN(
            std::vector<Relation> ins,
            FetchMatchingBatch(e.inputs[0], attrs, keys, marked));
        for (const Relation& in : ins) {
          AUXVIEW_ASSIGN_OR_RETURN(Relation r, ApplyUnaryKernel(*e.op, in));
          nat.push_back(std::move(r));
        }
        return nat;
      }
    }
    return Status::Internal("unhandled op kind");
  }();
  AUXVIEW_RETURN_IF_ERROR(naturals.status());
  for (size_t i = 0; i < keys.size(); ++i) {
    AUXVIEW_ASSIGN_OR_RETURN(Relation aligned,
                             AlignRelation((*naturals)[i], grp.schema));
    out.push_back(FilterByKey(aligned, attrs, keys[i]));
  }
  return out;
}

Status ApplyDeltaToTable(Table* table, const Relation& delta,
                         const std::vector<std::string>& pair_attrs) {
  AUXVIEW_ASSIGN_OR_RETURN(Relation aligned, [&]() -> StatusOr<Relation> {
    if (delta.schema() == table->schema()) return delta;
    // Align by name.
    std::vector<int> mapping;
    for (const Column& c : table->schema().columns()) {
      const int i = delta.schema().IndexOf(c.name);
      if (i < 0) {
        return Status::Internal("delta misses view column " + c.name);
      }
      mapping.push_back(i);
    }
    Relation out(table->schema());
    for (const auto& [row, count] : delta.rows()) {
      Row aligned_row;
      for (int i : mapping) aligned_row.push_back(row[i]);
      out.Add(aligned_row, count);
    }
    return out;
  }());

  // Bucket by pairing key.
  std::vector<int> key_cols;
  for (const std::string& a : pair_attrs) {
    const int i = table->schema().IndexOf(a);
    if (i >= 0) key_cols.push_back(i);
  }
  // Iterate in sorted row order: Relation hashes rows, and the -n/+n
  // pairing below is first-match, so bucketing from raw iteration order
  // would make the chosen modify pairs — and their charges — depend on the
  // order in which the delta's rows were added, not just on its contents.
  std::map<std::string, std::vector<std::pair<Row, int64_t>>> buckets;
  for (const auto& [row, count] : aligned.SortedRows()) {
    Row key;
    for (int c : key_cols) key.push_back(row[c]);
    buckets[RowToString(key)].emplace_back(row, count);
  }
  for (auto& [key, entries] : buckets) {
    (void)key;
    // Pair each -n with a +n into in-place modifications (batched: the
    // paper charges one index page for a whole same-key batch); whatever
    // cannot be paired falls back to plain inserts/deletes.
    std::vector<std::pair<Row, int64_t>> negs;
    std::vector<std::pair<Row, int64_t>> poss;
    for (auto& entry : entries) {
      (entry.second < 0 ? negs : poss).push_back(entry);
    }
    std::vector<std::pair<Row, Row>> pairs;
    std::vector<std::pair<Row, int64_t>> leftovers;
    std::vector<bool> pos_used(poss.size(), false);
    for (auto& neg : negs) {
      bool paired = false;
      if (table->CountOf(neg.first) == -neg.second) {
        for (size_t i = 0; i < poss.size(); ++i) {
          if (pos_used[i] || poss[i].second != -neg.second) continue;
          pairs.emplace_back(neg.first, poss[i].first);
          pos_used[i] = true;
          paired = true;
          break;
        }
      }
      if (!paired) leftovers.push_back(neg);
    }
    for (size_t i = 0; i < poss.size(); ++i) {
      if (!pos_used[i]) leftovers.push_back(poss[i]);
    }
    if (!pairs.empty()) {
      AUXVIEW_RETURN_IF_ERROR(table->ModifyBatch(pairs));
    }
    for (const auto& [row, count] : leftovers) {
      AUXVIEW_RETURN_IF_ERROR(table->Apply(row, count));
    }
  }
  return Status::Ok();
}

}  // namespace auxview
