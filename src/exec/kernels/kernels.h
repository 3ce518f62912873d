#ifndef AUXVIEW_EXEC_KERNELS_KERNELS_H_
#define AUXVIEW_EXEC_KERNELS_KERNELS_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "algebra/expr.h"
#include "common/status.h"
#include "exec/kernels/row_batch.h"

namespace auxview {
namespace kernels {

/// The shared batch-at-a-time operator kernels.
///
/// Every relational operator the engine evaluates — whether for ad-hoc view
/// computation (Executor), for delta propagation, or for push-down lookup
/// plans (DeltaEngine) — runs through exactly one implementation here. A
/// kernel consumes whole RowBatches and produces a RowBatch; semantics are
/// the paper's bag algebra with signed multiplicities (deltas are batches
/// with negative counts).
///
/// Each kernel maintains `exec.kernel.<name>.{batches,rows,us}` metrics
/// (invocations, output-row entries, per-invocation wall time); see
/// docs/EXECUTION.md and docs/OBSERVABILITY.md.

/// A hash index over one batch: key = the projection of a row onto
/// `key_cols`, value = the indexes of the batch entries with that key, in
/// batch order. Build once, probe many times — the join/semijoin kernels and
/// the batched partner fetch all share this utility.
class HashIndex {
 public:
  HashIndex(const RowBatch* batch, std::vector<int> key_cols);

  /// Entry indexes whose key projection equals `key` (nullptr when none).
  const std::vector<int64_t>* Probe(const Row& key) const;

  int64_t distinct_keys() const { return static_cast<int64_t>(map_.size()); }

 private:
  const RowBatch* batch_;
  std::vector<int> key_cols_;
  std::unordered_map<Row, std::vector<int64_t>, RowHash, RowEq> map_;
};

/// Select: keeps entries whose predicate evaluates to (non-NULL) true.
StatusOr<RowBatch> Filter(const Expr& expr, const RowBatch& input);

/// Generalized projection: evaluates every ProjectItem per entry.
StatusOr<RowBatch> Project(const Expr& expr, const RowBatch& input);

/// Natural-style equi-join on expr.join_attrs(): builds a HashIndex on the
/// right batch, probes with every left entry, output multiplicity is the
/// product. Output schema = left columns then the right's non-join columns
/// (expr.output_schema()).
StatusOr<RowBatch> HashJoin(const Expr& expr, const RowBatch& left,
                            const RowBatch& right);

/// Grouped aggregation (SUM/COUNT/MIN/MAX/AVG over groups of
/// expr.group_by()). Entries accumulate in batch order, so floating-point
/// results are deterministic for a given input order. Rejects negative
/// multiplicities (delta aggregation splits signs before calling this).
StatusOr<RowBatch> GroupedAggregate(const Expr& expr, const RowBatch& input);

/// Duplicate elimination: coalesces entries by row, emits each row whose
/// total multiplicity is positive once; rejects negative totals.
StatusOr<RowBatch> DupElim(const Expr& expr, const RowBatch& input);

/// Applies a unary operator kind (Select/Project/Aggregate/DupElim) of
/// `expr` to `input` — the dispatch both consumers share.
StatusOr<RowBatch> ApplyUnary(const Expr& expr, const RowBatch& input);

/// Resolves `attrs` to column indexes in `schema`; every name must bind.
std::vector<int> ResolveColumns(const Schema& schema,
                                const std::vector<std::string>& attrs);

}  // namespace kernels
}  // namespace auxview

#endif  // AUXVIEW_EXEC_KERNELS_KERNELS_H_
