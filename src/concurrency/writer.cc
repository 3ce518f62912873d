#include "concurrency/writer.h"

#include <utility>

#include "obs/metrics.h"

namespace auxview {

namespace {

obs::Counter* RetriesCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("concurrency.retries");
  return c;
}

}  // namespace

WriterTxn::WriterTxn(ConcurrencyController* controller)
    : controller_(controller), snapshot_(controller->Pin()) {}

const Table* WriterTxn::ResolveTable(const std::string& name) const {
  return delta_.OverlayTable(name, *snapshot_);
}

StatusOr<const Table*> WriterTxn::Overlay(const std::string& relation) const {
  const Table* table = delta_.OverlayTable(relation, *snapshot_);
  if (table == nullptr) {
    return Status::NotFound("no such table: " + relation);
  }
  return table;
}

StatusOr<std::vector<CountedRow>> WriterTxn::Scan(const std::string& relation) {
  AUXVIEW_ASSIGN_OR_RETURN(const Table* table, Overlay(relation));
  delta_.footprint().AddScanRead(relation);
  return table->SnapshotUncharged();
}

StatusOr<std::vector<CountedRow>> WriterTxn::LookupEq(
    const std::string& relation, const std::vector<std::string>& attrs,
    const Row& key) {
  AUXVIEW_ASSIGN_OR_RETURN(const Table* table, Overlay(relation));
  if (attrs.size() != key.size()) {
    return Status::InvalidArgument("LookupEq attrs/key arity mismatch");
  }
  std::vector<std::pair<int, Value>> equalities;
  for (size_t i = 0; i < attrs.size(); ++i) {
    const int col = table->schema().IndexOf(attrs[i]);
    if (col < 0) {
      return Status::InvalidArgument("unknown column: " + attrs[i]);
    }
    equalities.emplace_back(col, key[i]);
  }
  delta_.footprint().AddKeyRead(relation, std::move(equalities));
  return table->Lookup(attrs, key);
}

StatusOr<const Table*> WriterTxn::Base(const std::string& relation) const {
  const Table* table = snapshot_->ResolveTable(relation);
  if (table == nullptr) {
    return Status::NotFound("no such table: " + relation);
  }
  return table;
}

Status WriterTxn::Insert(const std::string& relation, const Row& row,
                         int64_t count) {
  if (count <= 0) return Status::InvalidArgument("insert count must be > 0");
  AUXVIEW_ASSIGN_OR_RETURN(const Table* base, Base(relation));
  if (static_cast<int>(row.size()) != base->schema().num_columns()) {
    return Status::InvalidArgument("insert arity mismatch for " + relation);
  }
  delta_.StageInsert(relation, row, count);
  return Status::Ok();
}

Status WriterTxn::Delete(const std::string& relation, const Row& row,
                         int64_t count) {
  if (count <= 0) return Status::InvalidArgument("delete count must be > 0");
  AUXVIEW_ASSIGN_OR_RETURN(const Table* base, Base(relation));
  if (base->CountOf(row) + delta_.DeltaOf(relation, row) < count) {
    return Status::InvalidArgument("delete of " + RowToString(row) + " from " +
                                   relation +
                                   " exceeds its visible multiplicity");
  }
  delta_.StageDelete(relation, row, count);
  return Status::Ok();
}

Status WriterTxn::Modify(const std::string& relation, const Row& old_row,
                         const Row& new_row, int64_t count) {
  if (count <= 0) return Status::InvalidArgument("modify count must be > 0");
  AUXVIEW_ASSIGN_OR_RETURN(const Table* base, Base(relation));
  if (base->CountOf(old_row) + delta_.DeltaOf(relation, old_row) < count) {
    return Status::InvalidArgument("modify of " + RowToString(old_row) +
                                   " in " + relation +
                                   " exceeds its visible multiplicity");
  }
  if (static_cast<int>(new_row.size()) != base->schema().num_columns()) {
    return Status::InvalidArgument("modify arity mismatch for " + relation);
  }
  delta_.StageModify(relation, old_row, new_row, count);
  return Status::Ok();
}

StatusOr<CommitOutcome> WriterTxn::Commit() {
  AUXVIEW_ASSIGN_OR_RETURN(CommitOutcome outcome,
                           controller_->Commit(delta_, snapshot_.epoch()));
  if (outcome.committed()) {
    delta_.Clear();
    snapshot_ = controller_->Pin();
  }
  return outcome;
}

void WriterTxn::Abort() {
  delta_.Clear();
  snapshot_ = controller_->Pin();
}

void WriterTxn::Restart() {
  RetriesCounter()->Add(1);
  Abort();
}

}  // namespace auxview
