#ifndef AUXVIEW_STORAGE_TABLE_H_
#define AUXVIEW_STORAGE_TABLE_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "common/value.h"
#include "storage/page_counter.h"

namespace auxview {

class UndoLog;

/// A (row, multiplicity) pair — relations have bag semantics.
struct CountedRow {
  Row row;
  int64_t count = 0;
};

/// An in-memory stored relation with bag semantics and hash indexes.
///
/// The table charges a PageCounter per the paper's I/O model: a key lookup
/// through a hash index costs one index-page read plus one relation-page read
/// per tuple instance returned; a full scan costs one relation-page read per
/// tuple instance; updates cost one index-page read per index (plus a write
/// when the indexed attributes change) and one relation-page read/write per
/// tuple touched.
class Table {
 public:
  /// `counter` must outlive the table; may not be null. A non-empty
  /// `metric_scope` labels this table's per-relation counters as
  /// `storage.rel.<scope>.<name>.*` — the per-database scoping a process
  /// hosting several databases needs (docs/OBSERVABILITY.md).
  Table(TableDef def, PageCounter* counter,
        const std::string& metric_scope = "");

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  /// An independent deep copy — rows, multiplicities and every hash index —
  /// charged to `counter` (typically a permanently disabled one: snapshot
  /// versions serve uncharged reads). The clone carries no undo log and
  /// shares nothing with the original, so it is safe to read from other
  /// threads while the original keeps mutating.
  std::unique_ptr<Table> Clone(PageCounter* counter) const;

  const TableDef& def() const { return def_; }
  const Schema& schema() const { return def_.schema; }
  const std::string& name() const { return def_.name; }

  /// Number of distinct rows.
  int64_t distinct_rows() const { return static_cast<int64_t>(rows_.size()); }
  /// Total multiplicity.
  int64_t row_count() const { return total_count_; }
  bool empty() const { return row_count() == 0; }

  /// Adds `count` copies of `row` (count may be negative: bag subtraction;
  /// a row whose multiplicity reaches zero disappears). Multiplicities must
  /// not go negative. Charges update I/O.
  Status Apply(const Row& row, int64_t count);

  /// Insert `count` copies (count > 0).
  Status Insert(const Row& row, int64_t count = 1) { return Apply(row, count); }
  /// Delete `count` copies (count > 0).
  Status Delete(const Row& row, int64_t count = 1) {
    return Apply(row, -count);
  }

  /// In-place modification of all copies of `old_row` to `new_row`.
  /// Charges the paper's modify cost (read + write per tuple, index page
  /// read per index; index write only if indexed attrs changed).
  Status Modify(const Row& old_row, const Row& new_row);

  /// Batch of in-place modifications sharing index pages: one index-page
  /// read per index for the whole batch (the paper's N4/>Dept case: ten
  /// tuples of one department modify behind a single index page), one
  /// relation-page read + write per tuple. An index-page write is charged
  /// per index whose key projection changes for any pair.
  Status ModifyBatch(const std::vector<std::pair<Row, Row>>& pairs);

  /// Multiplicity of `row` (0 when absent). Does not charge I/O (the caller
  /// charges lookups through Lookup/ScanAll).
  int64_t CountOf(const Row& row) const;

  /// All rows matching `key` on `attrs` (attribute names). Uses a hash index
  /// when one exists on exactly these attributes, else falls back to a full
  /// scan; charges I/O accordingly.
  std::vector<CountedRow> Lookup(const std::vector<std::string>& attrs,
                                 const Row& key) const;

  /// Batched Lookup: one result vector per key, in key order. Resolves the
  /// probe plan (index choice, key reordering, residual filter) once for the
  /// whole batch and then probes per key — the delta engine's semijoin-style
  /// partner fetches land here. Charges exactly what the equivalent per-key
  /// Lookup calls would: one index-page read per key plus one relation-page
  /// read per tuple instance inspected (the paper's cost model is per
  /// logical probe, so batching saves CPU, never modeled I/O).
  std::vector<std::vector<CountedRow>> LookupBatch(
      const std::vector<std::string>& attrs,
      const std::vector<Row>& keys) const;

  /// LookupBatch without any cost-model charging (neither the shared
  /// PageCounter nor this relation's storage.rel.* mirrors) — the delta
  /// engine's reads that belong to a view's update cost.
  std::vector<std::vector<CountedRow>> LookupBatchUncharged(
      const std::vector<std::string>& attrs,
      const std::vector<Row>& keys) const;

  /// True if a hash index exists on exactly `attrs`.
  bool HasIndexOn(const std::vector<std::string>& attrs) const;

  /// All rows (charges one page read per tuple instance).
  std::vector<CountedRow> ScanAll() const;

  /// All rows without charging I/O (test oracles, materialization snapshots).
  std::vector<CountedRow> SnapshotUncharged() const;

  /// Recomputed exact statistics (row count, per-column distinct counts).
  RelationStats ComputeStats() const;

  /// Deterministic dump of the full physical state — rows with
  /// multiplicities plus every hash index's buckets — for byte-identity
  /// checks in the fault-injection harness.
  std::string Fingerprint() const;

  /// Attaches an undo log: every successful mutation records its net effect
  /// so an aborting transaction can be rolled back exactly. nullptr
  /// detaches. Normally managed by ScopedUndo.
  void set_undo_log(UndoLog* log) { undo_log_ = log; }

  PageCounter* counter() const { return counter_; }

 private:
  struct IndexState {
    std::vector<std::string> attrs;
    std::vector<int> col_idxs;
    // Key projection -> distinct full rows with that key.
    std::unordered_map<Row, std::vector<Row>, RowHash, RowEq> map;
  };

  // Charge helpers: the shared PageCounter plus this relation's own
  // storage.rel.<name>.page_{reads,writes} metrics. Gated on the counter's
  // enabled flag so per-relation metrics match the charged cost model
  // (materialization and test oracles stay invisible).
  void ChargeIndexRead(int64_t n) const {
    counter_->AddIndexRead(n);
    if (counter_->enabled()) rel_page_reads_->Add(n);
  }
  void ChargeIndexWrite(int64_t n) const {
    counter_->AddIndexWrite(n);
    if (counter_->enabled()) rel_page_writes_->Add(n);
  }
  void ChargeTupleRead(int64_t n) const {
    counter_->AddTupleRead(n);
    if (counter_->enabled()) rel_page_reads_->Add(n);
  }
  void ChargeTupleWrite(int64_t n) const {
    counter_->AddTupleWrite(n);
    if (counter_->enabled()) rel_page_writes_->Add(n);
  }

  Row ProjectKey(const IndexState& idx, const Row& row) const;
  void IndexInsert(const Row& row);
  void IndexErase(const Row& row);
  const IndexState* FindIndex(const std::vector<std::string>& attrs) const;

  /// A probe plan resolved once per (attrs) set and reused across a batch of
  /// keys: the chosen index (nullptr = full scan), how to reorder a probe
  /// key into index order, and which residual columns to filter after the
  /// fetch.
  struct ResolvedProbe {
    const IndexState* index = nullptr;
    /// index attr i takes probe-key position key_positions[i].
    std::vector<int> key_positions;
    /// Post-fetch filter: row[residual_cols[i]] == key[residual_key_pos[i]].
    std::vector<int> residual_cols;
    std::vector<int> residual_key_pos;
    /// Full-scan fallback: schema column per probe attr.
    std::vector<int> scan_cols;
  };
  ResolvedProbe ResolveProbe(const std::vector<std::string>& attrs) const;
  /// One probe through a resolved plan; `charged` applies the Lookup cost
  /// model (false skips both the PageCounter and the storage.rel.* mirrors,
  /// exactly like probing under ScopedCountingDisabled).
  std::vector<CountedRow> ProbeOnce(const ResolvedProbe& probe, const Row& key,
                                    bool charged = true) const;

  TableDef def_;
  std::string metric_scope_;
  PageCounter* counter_;
  UndoLog* undo_log_ = nullptr;
  obs::Counter* rel_page_reads_;   // storage.rel.<name>.page_reads
  obs::Counter* rel_page_writes_;  // storage.rel.<name>.page_writes
  std::unordered_map<Row, int64_t, RowHash, RowEq> rows_;
  int64_t total_count_ = 0;
  std::vector<IndexState> indexes_;
};

}  // namespace auxview

#endif  // AUXVIEW_STORAGE_TABLE_H_
