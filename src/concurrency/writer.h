#ifndef AUXVIEW_CONCURRENCY_WRITER_H_
#define AUXVIEW_CONCURRENCY_WRITER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "concurrency/controller.h"
#include "concurrency/delta_set.h"
#include "concurrency/snapshot.h"

namespace auxview {

/// One writer's transaction handle: a pinned snapshot plus a private
/// DeltaSet. Every read goes through the overlay (snapshot ∪ own staged
/// changes) and is recorded in the transaction's read footprint; every
/// write is staged and recorded in the write footprint. Commit() hands the
/// footprinted delta to the controller's optimistic funnel.
///
/// Not thread-safe — a WriterTxn belongs to one thread; concurrency comes
/// from many WriterTxns over one ConcurrencyController. This is the
/// SQL-free core; TxnSession (src/api/txn_session.h) layers statement
/// execution on top.
class WriterTxn : public TableSource {
 public:
  /// Pins the latest snapshot.
  explicit WriterTxn(ConcurrencyController* controller);

  /// TableSource over the overlay: queries executed against this writer see
  /// snapshot ∪ staged delta. Does NOT record a read footprint — use Scan /
  /// LookupEq for footprinted reads, or record on footprint() directly.
  const Table* ResolveTable(const std::string& name) const override;

  const Snapshot& snapshot() const { return *snapshot_; }
  uint64_t snapshot_epoch() const { return snapshot_.epoch(); }

  /// All rows of `relation` through the overlay; records a whole-relation
  /// read (any later committed write to `relation` will conflict).
  StatusOr<std::vector<CountedRow>> Scan(const std::string& relation);

  /// Rows of `relation` matching `key` on `attrs` through the overlay;
  /// records a key read (only later committed writes matching the key
  /// conflict).
  StatusOr<std::vector<CountedRow>> LookupEq(
      const std::string& relation, const std::vector<std::string>& attrs,
      const Row& key);

  /// Stages `count` copies of `row`. A blind write: no read footprint, so
  /// two inserts of different rows into the same relation never conflict.
  Status Insert(const std::string& relation, const Row& row, int64_t count = 1);

  /// Stages removal of `count` copies; the overlay must hold at least that
  /// many (the row must be visible to this writer).
  Status Delete(const std::string& relation, const Row& row, int64_t count = 1);

  /// Stages an update of `count` copies of `old_row` to `new_row`.
  Status Modify(const std::string& relation, const Row& old_row,
                const Row& new_row, int64_t count = 1);

  /// One optimistic commit attempt. On kCommitted the staged set is cleared
  /// and a fresh snapshot pinned (the writer is ready for its next
  /// transaction). On kConflict or kRejected the staged set and snapshot
  /// are kept for inspection; call Restart() to retry or Abort() to drop.
  StatusOr<CommitOutcome> Commit();

  /// Drops all staged changes and repins the latest snapshot.
  void Abort();

  /// Abort() that counts as a retry (`concurrency.retries`) — call when
  /// re-running a conflicted transaction on a fresh snapshot.
  void Restart();

  DeltaSet& delta() { return delta_; }
  const DeltaSet& delta() const { return delta_; }
  TxnFootprint& footprint() { return delta_.footprint(); }

 private:
  /// Overlay table or NotFound.
  StatusOr<const Table*> Overlay(const std::string& relation) const;
  /// The pinned snapshot's version of `relation` or NotFound. Staging checks
  /// its schema, and visible multiplicity as its count plus the staged
  /// delta, without materializing the overlay a staged change invalidates.
  StatusOr<const Table*> Base(const std::string& relation) const;

  ConcurrencyController* controller_;
  SnapshotRef snapshot_;
  DeltaSet delta_;
};

}  // namespace auxview

#endif  // AUXVIEW_CONCURRENCY_WRITER_H_
