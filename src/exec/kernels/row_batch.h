#ifndef AUXVIEW_EXEC_KERNELS_ROW_BATCH_H_
#define AUXVIEW_EXEC_KERNELS_ROW_BATCH_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "catalog/schema.h"
#include "common/check.h"
#include "common/value.h"
#include "exec/relation.h"

namespace auxview {

/// A lightweight view of one row inside a RowBatch's value arena. Valid only
/// while the owning batch is alive and not appended to.
struct RowRef {
  const Value* data = nullptr;
  int size = 0;

  const Value& operator[](int i) const { return data[i]; }
};

/// An ordered batch of rows sharing one schema, each with a signed
/// multiplicity. This is the unit of work of the shared operator-kernel
/// layer (exec/kernels/kernels.h): both ad-hoc evaluation (Executor) and
/// delta propagation (DeltaEngine) move whole batches through the same
/// kernels.
///
/// Unlike Relation — a coalesced bag keyed by row — a batch is a flat
/// sequence: the same row may appear in several entries and kernels process
/// entries in order (which keeps floating-point accumulation order, and thus
/// bit-identity with the previous row-at-a-time code, deterministic for a
/// given input order). Values live in one contiguous arena (`values_`, row i
/// at offset i * width), so iterating a batch touches memory sequentially
/// instead of chasing one heap vector per row.
///
/// Zero-multiplicity entries are dropped on append, mirroring Relation::Add.
class RowBatch {
 public:
  RowBatch() = default;
  explicit RowBatch(Schema schema)
      : schema_(std::move(schema)), width_(schema_.num_columns()) {}

  const Schema& schema() const { return schema_; }
  /// Columns per row (fixed by the schema).
  int width() const { return width_; }

  int64_t num_rows() const { return static_cast<int64_t>(counts_.size()); }
  bool empty() const { return counts_.empty(); }
  /// Sum of multiplicities (may be negative for delta batches).
  int64_t total_count() const {
    int64_t total = 0;
    for (int64_t c : counts_) total += c;
    return total;
  }

  RowRef row(int64_t i) const {
    return RowRef{values_.data() + i * width_, width_};
  }
  int64_t count(int64_t i) const { return counts_[i]; }

  /// Materializes row `i` as an owning Row (for Relation interop and index
  /// probes keyed by Row).
  Row RowAt(int64_t i) const {
    const Value* base = values_.data() + i * width_;
    return Row(base, base + width_);
  }

  void Reserve(int64_t rows) {
    values_.reserve(static_cast<size_t>(rows) * width_);
    counts_.reserve(static_cast<size_t>(rows));
  }

  /// Appends `count` copies of `row`; zero counts are dropped.
  void Append(const Row& row, int64_t count) {
    if (count == 0) return;
    values_.insert(values_.end(), row.begin(), row.end());
    counts_.push_back(count);
  }

  void Append(RowRef row, int64_t count) {
    if (count == 0) return;
    values_.insert(values_.end(), row.data, row.data + row.size);
    counts_.push_back(count);
  }

  /// Appends a row assembled from `left` followed by the `right_cols`
  /// columns of `right` (the hash-join output shape) without an
  /// intermediate Row allocation.
  void AppendConcat(RowRef left, RowRef right, const std::vector<int>& right_cols,
                    int64_t count) {
    if (count == 0) return;
    values_.insert(values_.end(), left.data, left.data + left.size);
    for (int c : right_cols) values_.push_back(right[c]);
    counts_.push_back(count);
  }

  /// Appends every entry of `other`, in order. Schemas must have the same
  /// width (batch-native delta propagation concatenates aligned batches).
  void AppendBatch(const RowBatch& other) {
    AUXVIEW_CHECK_MSG(other.width_ == width_,
                      "AppendBatch across mismatched widths");
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
    counts_.insert(counts_.end(), other.counts_.begin(), other.counts_.end());
  }

  /// Coalesced copy: one entry per distinct row with multiplicities summed
  /// (zero totals dropped — Relation semantics), in first-appearance order.
  /// Unlike ToRelation, the result stays a batch and the entry order is a
  /// deterministic function of this batch's entry order, which keeps
  /// batch-native delta tracks deterministic.
  RowBatch Coalesced() const {
    std::unordered_map<Row, int64_t, RowHash, RowEq> totals;
    std::vector<const Row*> order;  // first-appearance order
    totals.reserve(static_cast<size_t>(num_rows()));
    order.reserve(static_cast<size_t>(num_rows()));
    for (int64_t i = 0; i < num_rows(); ++i) {
      auto [it, inserted] = totals.try_emplace(RowAt(i), 0);
      it->second += counts_[i];
      if (inserted) order.push_back(&it->first);
    }
    RowBatch out(schema_);
    out.Reserve(static_cast<int64_t>(order.size()));
    for (const Row* row : order) out.Append(*row, totals.at(*row));
    return out;
  }

  /// Batch from a coalesced Relation; entry order follows the relation's
  /// (unordered-map) iteration order, exactly as the row-at-a-time code
  /// consumed it.
  static RowBatch FromRelation(const Relation& rel) {
    RowBatch out(rel.schema());
    out.Reserve(rel.distinct_rows());
    for (const auto& [row, count] : rel.rows()) out.Append(row, count);
    return out;
  }

  /// Coalesces into a Relation (summing multiplicities; zero rows vanish).
  Relation ToRelation() const {
    Relation out(schema_);
    AccumulateInto(&out);
    return out;
  }

  void AccumulateInto(Relation* rel) const {
    for (int64_t i = 0; i < num_rows(); ++i) rel->Add(RowAt(i), counts_[i]);
  }

 private:
  Schema schema_;
  int width_ = 0;
  /// Row-major value arena: num_rows() * width_ values.
  std::vector<Value> values_;
  std::vector<int64_t> counts_;
};

}  // namespace auxview

#endif  // AUXVIEW_EXEC_KERNELS_ROW_BATCH_H_
