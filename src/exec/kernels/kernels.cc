#include "exec/kernels/kernels.h"

#include <utility>

#include "common/check.h"
#include "obs/metrics.h"

namespace auxview {
namespace kernels {

namespace {

/// Per-kernel metrics, resolved once per kernel name:
/// exec.kernel.<name>.batches — invocations;
/// exec.kernel.<name>.rows    — output entries produced;
/// exec.kernel.<name>.us      — per-invocation wall time.
struct KernelMetrics {
  obs::Counter* batches;
  obs::Counter* rows;
  obs::Histogram* us;

  static KernelMetrics Resolve(const char* name) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    const std::string prefix = std::string("exec.kernel.") + name;
    return KernelMetrics{reg.GetCounter(prefix + ".batches"),
                         reg.GetCounter(prefix + ".rows"),
                         reg.GetHistogram(prefix + ".us")};
  }
};

/// RAII recorder: counts the invocation and times the kernel body (the
/// timer stops when the scope closes). Output rows are recorded explicitly
/// at each kernel's success return — the return value is moved out of the
/// local batch before destructors run, so a destructor cannot read it —
/// which means an errored invocation records no rows.
class KernelScope {
 public:
  explicit KernelScope(const KernelMetrics& metrics) : timer_(metrics.us) {
    metrics.batches->Add(1);
  }

  KernelScope(const KernelScope&) = delete;
  KernelScope& operator=(const KernelScope&) = delete;

 private:
  obs::ScopedTimer timer_;
};

/// Running aggregate state for one group.
struct GroupState {
  int64_t count = 0;           // total multiplicity of contributing rows
  std::vector<double> sums;    // per-agg running sum (SUM/AVG)
  std::vector<bool> all_int;   // SUM stays integral?
  std::vector<Value> minmax;   // per-agg current MIN/MAX
  std::vector<int64_t> nonnull_count;  // per-agg count of non-null args
};

}  // namespace

StatusOr<RowBatch> Filter(const Expr& expr, const RowBatch& input) {
  static const KernelMetrics metrics = KernelMetrics::Resolve("filter");
  KernelScope scope(metrics);
  RowBatch out(expr.output_schema());
  const Schema& schema = input.schema();
  for (int64_t i = 0; i < input.num_rows(); ++i) {
    const Row row = input.RowAt(i);
    AUXVIEW_ASSIGN_OR_RETURN(Value v, expr.predicate()->Eval(row, schema));
    if (!v.is_null() && v.boolean()) out.Append(input.row(i), input.count(i));
  }
  metrics.rows->Add(out.num_rows());
  return out;
}

StatusOr<RowBatch> Project(const Expr& expr, const RowBatch& input) {
  static const KernelMetrics metrics = KernelMetrics::Resolve("project");
  KernelScope scope(metrics);
  RowBatch out(expr.output_schema());
  out.Reserve(input.num_rows());
  const Schema& schema = input.schema();
  Row projected;
  for (int64_t i = 0; i < input.num_rows(); ++i) {
    const Row row = input.RowAt(i);
    projected.clear();
    projected.reserve(expr.projections().size());
    for (const ProjectItem& item : expr.projections()) {
      AUXVIEW_ASSIGN_OR_RETURN(Value v, item.expr->Eval(row, schema));
      projected.push_back(std::move(v));
    }
    out.Append(projected, input.count(i));
  }
  metrics.rows->Add(out.num_rows());
  return out;
}

StatusOr<RowBatch> HashJoin(const Expr& expr, const RowBatch& left,
                            const RowBatch& right) {
  static const KernelMetrics metrics = KernelMetrics::Resolve("hash_join");
  KernelScope scope(metrics);
  RowBatch out(expr.output_schema());
  const std::vector<int> l_key_cols =
      ResolveColumns(left.schema(), expr.join_attrs());
  const std::vector<int> r_key_cols =
      ResolveColumns(right.schema(), expr.join_attrs());
  // Columns of the right side that survive (non-join attrs).
  std::vector<int> r_out_cols;
  for (int c = 0; c < right.schema().num_columns(); ++c) {
    bool is_join = false;
    for (int k : r_key_cols) {
      if (k == c) {
        is_join = true;
        break;
      }
    }
    if (!is_join) r_out_cols.push_back(c);
  }
  // One hash build over the right batch, one probe per left entry.
  const HashIndex index(&right, r_key_cols);
  Row key;
  for (int64_t i = 0; i < left.num_rows(); ++i) {
    const RowRef lrow = left.row(i);
    key.clear();
    key.reserve(l_key_cols.size());
    for (int c : l_key_cols) key.push_back(lrow[c]);
    const std::vector<int64_t>* matches = index.Probe(key);
    if (matches == nullptr) continue;
    for (int64_t j : *matches) {
      out.AppendConcat(lrow, right.row(j), r_out_cols,
                       left.count(i) * right.count(j));
    }
  }
  metrics.rows->Add(out.num_rows());
  return out;
}

StatusOr<RowBatch> GroupedAggregate(const Expr& expr, const RowBatch& input) {
  static const KernelMetrics metrics = KernelMetrics::Resolve("aggregate");
  KernelScope scope(metrics);
  RowBatch out(expr.output_schema());
  const Schema& schema = input.schema();
  const std::vector<int> group_cols = ResolveColumns(schema, expr.group_by());
  const size_t num_aggs = expr.aggs().size();
  std::unordered_map<Row, GroupState, RowHash, RowEq> groups;
  for (int64_t i = 0; i < input.num_rows(); ++i) {
    const int64_t count = input.count(i);
    if (count < 0) {
      return Status::FailedPrecondition(
          "Aggregate over a relation with negative multiplicities");
    }
    const Row row = input.RowAt(i);
    Row key;
    key.reserve(group_cols.size());
    for (int c : group_cols) key.push_back(row[c]);
    GroupState& gs = groups[std::move(key)];
    if (gs.sums.empty()) {
      gs.sums.assign(num_aggs, 0.0);
      gs.all_int.assign(num_aggs, true);
      gs.minmax.assign(num_aggs, Value::Null());
      gs.nonnull_count.assign(num_aggs, 0);
    }
    gs.count += count;
    for (size_t a = 0; a < num_aggs; ++a) {
      const AggSpec& agg = expr.aggs()[a];
      Value v = Value::Null();
      if (agg.arg != nullptr) {
        AUXVIEW_ASSIGN_OR_RETURN(v, agg.arg->Eval(row, schema));
      }
      switch (agg.func) {
        case AggFunc::kCount:
          if (agg.arg == nullptr || !v.is_null()) gs.nonnull_count[a] += count;
          break;
        case AggFunc::kSum:
        case AggFunc::kAvg:
          if (!v.is_null()) {
            gs.sums[a] += v.AsDouble() * static_cast<double>(count);
            gs.nonnull_count[a] += count;
            if (v.type() != ValueType::kInt64) gs.all_int[a] = false;
          }
          break;
        case AggFunc::kMin:
          if (!v.is_null() &&
              (gs.minmax[a].is_null() || v.Compare(gs.minmax[a]) < 0)) {
            gs.minmax[a] = v;
          }
          break;
        case AggFunc::kMax:
          if (!v.is_null() &&
              (gs.minmax[a].is_null() || v.Compare(gs.minmax[a]) > 0)) {
            gs.minmax[a] = v;
          }
          break;
      }
    }
  }
  for (const auto& [key, gs] : groups) {
    Row row = key;
    for (size_t a = 0; a < num_aggs; ++a) {
      const AggSpec& agg = expr.aggs()[a];
      switch (agg.func) {
        case AggFunc::kCount:
          row.push_back(Value::Int64(gs.nonnull_count[a]));
          break;
        case AggFunc::kSum:
          if (gs.nonnull_count[a] == 0) {
            row.push_back(Value::Null());
          } else if (gs.all_int[a]) {
            row.push_back(Value::Int64(static_cast<int64_t>(gs.sums[a])));
          } else {
            row.push_back(Value::Double(gs.sums[a]));
          }
          break;
        case AggFunc::kAvg:
          if (gs.nonnull_count[a] == 0) {
            row.push_back(Value::Null());
          } else {
            row.push_back(Value::Double(
                gs.sums[a] / static_cast<double>(gs.nonnull_count[a])));
          }
          break;
        case AggFunc::kMin:
        case AggFunc::kMax:
          row.push_back(gs.minmax[a]);
          break;
      }
    }
    out.Append(row, 1);
  }
  metrics.rows->Add(out.num_rows());
  return out;
}

StatusOr<RowBatch> DupElim(const Expr& expr, const RowBatch& input) {
  static const KernelMetrics metrics = KernelMetrics::Resolve("dup_elim");
  KernelScope scope(metrics);
  RowBatch out(expr.output_schema());
  // Coalesce first: a batch may carry the same row in several entries
  // (including +n/-n pairs that cancel), and dup-elim is defined on the
  // coalesced bag.
  std::unordered_map<Row, int64_t, RowHash, RowEq> totals;
  std::vector<const Row*> order;  // first-appearance order, for determinism
  for (int64_t i = 0; i < input.num_rows(); ++i) {
    auto [it, inserted] = totals.try_emplace(input.RowAt(i), 0);
    it->second += input.count(i);
    if (inserted) order.push_back(&it->first);
  }
  for (const Row* row : order) {
    const int64_t total = totals.at(*row);
    if (total < 0) {
      return Status::FailedPrecondition(
          "DupElim over a relation with negative multiplicities");
    }
    if (total > 0) out.Append(*row, 1);
  }
  metrics.rows->Add(out.num_rows());
  return out;
}

std::vector<int> ResolveColumns(const Schema& schema,
                                const std::vector<std::string>& attrs) {
  std::vector<int> cols;
  cols.reserve(attrs.size());
  for (const std::string& a : attrs) {
    const int i = schema.IndexOf(a);
    AUXVIEW_CHECK_MSG(i >= 0, ("kernel attr missing from schema: " + a).c_str());
    cols.push_back(i);
  }
  return cols;
}

HashIndex::HashIndex(const RowBatch* batch, std::vector<int> key_cols)
    : batch_(batch), key_cols_(std::move(key_cols)) {
  map_.reserve(static_cast<size_t>(batch_->num_rows()));
  for (int64_t i = 0; i < batch_->num_rows(); ++i) {
    const RowRef row = batch_->row(i);
    Row key;
    key.reserve(key_cols_.size());
    for (int c : key_cols_) key.push_back(row[c]);
    map_[std::move(key)].push_back(i);
  }
}

const std::vector<int64_t>* HashIndex::Probe(const Row& key) const {
  auto it = map_.find(key);
  return it == map_.end() ? nullptr : &it->second;
}

StatusOr<RowBatch> ApplyUnary(const Expr& expr, const RowBatch& input) {
  switch (expr.kind()) {
    case OpKind::kSelect:
      return Filter(expr, input);
    case OpKind::kProject:
      return Project(expr, input);
    case OpKind::kAggregate:
      return GroupedAggregate(expr, input);
    case OpKind::kDupElim:
      return DupElim(expr, input);
    case OpKind::kScan:
    case OpKind::kJoin:
      break;
  }
  return Status::Internal("ApplyUnary on a non-unary operator");
}

}  // namespace kernels
}  // namespace auxview
