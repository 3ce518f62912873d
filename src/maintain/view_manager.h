#ifndef AUXVIEW_MAINTAIN_VIEW_MANAGER_H_
#define AUXVIEW_MAINTAIN_VIEW_MANAGER_H_

#include <map>
#include <string>
#include <vector>

#include "maintain/delta_engine.h"
#include "optimizer/track.h"
#include "optimizer/view_set.h"

namespace auxview {

/// Options for runtime maintenance.
struct MaintainOptions {
  /// Charge page I/O for applying base-relation updates (the paper's example
  /// excludes it; keep false for comparability with estimated costs).
  bool charge_base_updates = false;
  /// Charge page I/O for updating the top-level view (excluded in the
  /// paper's example).
  bool charge_root_update = false;
};

/// Materializes a chosen view set and incrementally maintains it across
/// concrete transactions by executing update tracks — the runtime
/// counterpart of the optimizer's plans. Also provides the recomputation
/// oracle used by tests.
class ViewManager {
 public:
  ViewManager(const Memo* memo, const Catalog* catalog, Database* db,
              MaintainOptions options = {});

  /// Creates and fills the materialized-view tables for `views` (the memo
  /// root is always included). Not charged to the I/O counter. Each view
  /// gets one hash index on the attributes its parents probe it by.
  Status Materialize(const ViewSet& views);

  /// Declares that group `g` backs the SQL-92 assertion `name` (a view
  /// required to stay empty, Section 4). ApplyTransaction computes the
  /// assertion verdict against the staged deltas and aborts — leaving every
  /// table and index untouched — when the view would become non-empty.
  void DeclareAssertion(const std::string& name, GroupId g);

  /// Name of the assertion that aborted the most recent Apply* call (empty
  /// when it committed or failed for another reason).
  const std::string& aborted_assertion() const { return aborted_assertion_; }

  /// Stored-table names the most recent successful Apply* call mutated:
  /// the updated base relations plus every materialized view whose delta was
  /// non-empty. The concurrency layer republishes exactly these tables'
  /// snapshot versions after a commit (src/concurrency/snapshot.h); all
  /// other versions are shared with the previous epoch.
  const std::vector<std::string>& last_commit_tables() const {
    return last_commit_tables_;
  }

  /// Applies a concrete transaction atomically, in two phases. Phase 1
  /// (compute) poses every delta query and the assertion verdict against
  /// the pre-update state without mutating anything. Phase 2 (commit)
  /// applies the staged deltas to the materialized views and the base
  /// relations under an undo log; any mid-commit failure (e.g. an injected
  /// fault) rolls the database back bit-identical to the pre-transaction
  /// state. Returns Aborted on an assertion violation or injected fault.
  Status ApplyTransaction(const ConcreteTxn& txn, const TransactionType& type,
                          const UpdateTrack& track);

  /// The naive baseline the paper argues against: applies the base updates,
  /// then recomputes every affected materialized view from scratch with
  /// charged I/O (reads through base relations, rewrites the view table).
  /// Same end state as ApplyTransaction; vastly more page I/Os.
  Status ApplyTransactionByRecompute(const ConcreteTxn& txn,
                                     const TransactionType& type);

  const ViewSet& views() const { return views_; }

  /// The stored table of a materialized group (nullptr if not materialized).
  const Table* ViewTable(GroupId g) const;

  /// The current contents of a materialized group.
  StatusOr<Relation> ViewContents(GroupId g) const;

  /// Recomputes every materialized view from scratch and compares with the
  /// maintained contents; FailedPrecondition lists any mismatch.
  Status CheckConsistency() const;

  /// Index attributes chosen for a materialized group: the attributes by
  /// which parent operation nodes probe it (join attributes or a parent
  /// aggregate's group-by), falling back to the group's own group-by or
  /// first column — FD-reduced to a minimal set so that e.g. the paper's N4
  /// gets its "single index on DName" rather than (DName, Budget).
  static std::vector<std::string> ChooseIndexAttrs(const Memo& memo,
                                                   const Catalog& catalog,
                                                   GroupId g);

  DeltaEngine& engine() { return engine_; }
  Database& db() { return *db_; }

  /// Opts in to group-level rollback of optimizer state: with a mutable
  /// catalog attached, an aborted transaction also restores any statistics
  /// (and the stats epoch) refreshed while it ran. The construction-time
  /// catalog stays const for all read paths.
  void set_mutable_catalog(Catalog* catalog) { mutable_catalog_ = catalog; }

 private:
  /// Phase-1 helper: Aborted if any declared assertion view would become
  /// non-empty once `deltas` apply. Reads only pre-update state.
  Status CheckAssertionVerdict(const std::map<GroupId, Relation>& deltas);
  /// Phase-2 helper: applies staged view deltas then base updates. Partial
  /// effects on failure are the caller's to roll back via the undo log.
  Status CommitTransaction(const ConcreteTxn& txn,
                           const std::map<GroupId, Relation>& deltas);
  /// Post-recompute assertion check (the baseline path mutates first).
  Status CheckAssertionViewsEmpty();

  const Memo* memo_;
  const Catalog* catalog_;
  Catalog* mutable_catalog_ = nullptr;
  Database* db_;
  MaintainOptions options_;
  DeltaEngine engine_;
  ViewSet views_;
  std::map<GroupId, std::vector<std::string>> index_attrs_;
  std::map<GroupId, std::string> assertions_;
  std::string aborted_assertion_;
  std::vector<std::string> last_commit_tables_;
};

}  // namespace auxview

#endif  // AUXVIEW_MAINTAIN_VIEW_MANAGER_H_
