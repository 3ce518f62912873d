#ifndef AUXVIEW_API_SESSION_H_
#define AUXVIEW_API_SESSION_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "concurrency/controller.h"
#include "exec/relation.h"
#include "maintain/assertion.h"
#include "maintain/view_manager.h"
#include "optimizer/optimizer.h"
#include "optimizer/select_views.h"
#include "parser/binder.h"
#include "storage/database.h"
#include "storage/wal/wal.h"

namespace auxview {

class TxnSession;
class WriterTxn;

/// Result of Session::Execute for one statement.
struct ExecResult {
  enum class Kind { kDdl, kRows, kDml };
  Kind kind = Kind::kDdl;
  /// SELECT results.
  std::optional<Relation> rows;
  /// DML: tuples inserted/deleted/modified.
  int64_t affected = 0;
  /// DML rejected because an assertion would be violated (the transaction
  /// was rolled back); the violating assertion's name.
  std::string violated_assertion;

  bool rejected() const { return !violated_assertion.empty(); }
};

/// Options for a Session.
struct SessionOptions {
  /// Strategy used by Prepare to pick the auxiliary views.
  Strategy strategy = Strategy::kExhaustive;
  OptimizeOptions optimize;
  ExpandOptions expand;
  MaintainOptions maintain;
  /// Durability: a non-empty wal_dir attaches a write-ahead log at
  /// construction (see docs/DURABILITY.md).
  DatabaseOptions durability;
};

/// What Session::Recover found and did (for harnesses and the shell).
struct RecoveryInfo {
  /// True when the log held durable state (checkpoint and/or transactions).
  bool recovered = false;
  bool had_checkpoint = false;
  /// Highest LSN the recovered state covers.
  uint64_t last_lsn = 0;
  /// Transactions replayed (checkpoint-covered ones are loaded, not
  /// replayed).
  int64_t replayed = 0;
  /// Bytes of torn final record discarded by the opening scan.
  int64_t truncated_tail_bytes = 0;
};

/// The end-to-end facade: a tiny "database" whose views and assertions are
/// maintained incrementally with optimizer-chosen auxiliary views.
///
///   Session session;
///   session.Execute("CREATE TABLE ...; CREATE VIEW ...; "
///                   "CREATE ASSERTION a CHECK (NOT EXISTS (...));");
///   session.Execute("INSERT INTO Emp VALUES ('e1', 'd1', 50000);");
///   session.DeclareWorkload({SingleModifyTxn(">Emp", "Emp", {"Salary"})});
///   session.Prepare();   // optimize + materialize (Section 6: one memo,
///                        // multiple roots — all views and assertions)
///   session.Execute("UPDATE Emp SET Salary = 99999 WHERE EName = 'e1';");
///   //  -> maintained incrementally; REJECTED (rolled back) if it would
///   //     violate an assertion.
///
/// Before Prepare, DML applies to base tables directly (bulk-load phase).
/// After Prepare, every DML statement flows through the chosen update
/// tracks and all views stay consistent.
class Session {
 public:
  explicit Session(SessionOptions options = {});

  /// Parses and executes a ';'-separated script; returns the result of the
  /// last statement.
  StatusOr<ExecResult> Execute(const std::string& sql);

  /// Declares the expected update workload (transaction types + weights)
  /// used by Prepare's optimization. Optional: without it, Prepare derives
  /// one modify-transaction per base relation with equal weights.
  void DeclareWorkload(std::vector<TransactionType> txns);

  /// Builds the multi-root expression DAG over every view and assertion,
  /// runs view selection, and materializes the chosen views. With a
  /// write-ahead log attached, also takes the initial checkpoint (the loaded
  /// base tables plus the freshly refreshed statistics), so the log prefix
  /// of bulk loads becomes redundant.
  Status Prepare();

  bool prepared() const { return manager_ != nullptr; }

  /// Attaches a write-ahead log to the database. A convenience over
  /// SessionOptions::durability for an already-constructed session; must
  /// run before Prepare.
  Status OpenWal(const DatabaseOptions& options);

  /// Replays the log's durable state: loads the latest checkpoint (base
  /// tables + catalog statistics), re-prepares with the identical optimizer
  /// inputs — re-deriving every materialized view bit-identically through
  /// the DeltaEngine — and replays the post-checkpoint transactions through
  /// the normal maintenance path. Without a checkpoint, the logged
  /// transactions are pre-Prepare loads and are applied directly. The
  /// caller must first re-create the schema (DDL script) and re-declare the
  /// workload, then call Recover *instead of* loading data. No-op on a
  /// fresh log.
  Status Recover();

  /// What the last Recover call found (zero-initialized before any call).
  const RecoveryInfo& last_recovery() const { return recovery_info_; }

  /// Writes a checkpoint covering the current state and truncates the log
  /// prefix. Requires Prepare (a pre-Prepare checkpoint would freeze
  /// unrefreshed statistics, and a recovered Prepare could then choose
  /// different views than the original run). With concurrency enabled, runs
  /// under the commit lock so the image is a committed state.
  Status Checkpoint();

  /// Turns on concurrent serving (docs/CONCURRENCY.md): publishes the
  /// initial snapshot and opens the optimistic commit funnel. Requires
  /// Prepare; idempotent. Afterwards this Session's own DML serializes
  /// through the same funnel, and OpenSession hands out concurrent
  /// sessions.
  Status EnableConcurrency();

  bool concurrent() const { return controller_ != nullptr; }

  /// A new concurrent SQL session over this database (its own snapshot pin
  /// and private delta-set; one thread each). Requires EnableConcurrency.
  /// The returned session must not outlive this Session.
  StatusOr<std::unique_ptr<TxnSession>> OpenSession();

  ConcurrencyController* controller() { return controller_.get(); }

  /// Chosen view set and its expected cost (valid after Prepare).
  const OptimizeResult& plan() const { return plan_; }
  const Memo& memo() const { return *memo_; }

  /// The maintained contents of a view or assertion by name.
  StatusOr<Relation> ViewContents(const std::string& name) const;

  /// Checks one assertion (or all, with empty name) right now.
  StatusOr<std::vector<AssertionCheck>> CheckAssertions() const;

  /// Verifies every maintained view against recomputation.
  Status CheckConsistency() const;

  Database& db() { return db_; }
  Catalog& catalog() { return catalog_; }
  const PageCounter& counter() const { return db_.counter(); }

 private:
  StatusOr<ExecResult> ExecuteOne(const Statement& stmt);
  StatusOr<ExecResult> ExecuteSelect(const SelectQuery& query);
  StatusOr<ConcreteTxn> BuildConcreteTxn(const Statement& stmt,
                                         TransactionType* type);
  StatusOr<ExecResult> ApplyDml(const Statement& stmt);
  Status ApplyDirect(const ConcreteTxn& txn);
  /// Advisory auto-checkpoint after a committed DML (wal_checkpoint_every);
  /// a failure counts in `wal.checkpoint_failures` but does not fail the
  /// already-committed statement.
  void MaybeAutoCheckpoint();
  /// Best track for a transaction type, cached by signature.
  StatusOr<UpdateTrack> TrackFor(const TransactionType& type);
  /// Group id of a view/assertion name.
  StatusOr<GroupId> GroupOf(const std::string& name) const;
  /// Rows of `table` matching a WHERE predicate (nullptr = all), each with
  /// its multiplicity.
  StatusOr<std::vector<CountedRow>> MatchingRows(const std::string& table,
                                                 const SqlExpr::Ptr& where);
  /// Answers SELECT * FROM <maintained view or assertion> [WHERE ...] from
  /// the view's materialized table in `source`, through the row matcher
  /// (an index probe on the view's group key for a keyed WHERE). `writer`
  /// is the reading TxnSession's transaction, or nullptr: the read enters
  /// its footprint, and when its staged changes touch a relation the view
  /// reads the table is stale for it. nullopt for any other query shape and
  /// for that stale case — the caller runs the inlined plan.
  std::optional<StatusOr<Relation>> ReadMaintainedView(
      const SelectQuery& query, const TableSource& source,
      WriterTxn* writer) const;

  SessionOptions options_;
  Catalog catalog_;
  Database db_;
  Binder binder_;
  std::vector<TransactionType> workload_;
  /// Deferred construction-time OpenWal failure, surfaced by the first
  /// Execute/Prepare/Recover.
  Status wal_status_;
  RecoveryInfo recovery_info_;
  /// Recovery restored checkpoint-time statistics; Prepare must not refresh
  /// them from the tables, or the optimizer could see different inputs than
  /// the original run and pick different views.
  bool skip_stats_refresh_ = false;
  bool recovering_ = false;

  // Populated by Prepare.
  std::unique_ptr<Memo> memo_;
  std::unique_ptr<ViewSelector> selector_;
  std::unique_ptr<ViewManager> manager_;
  OptimizeResult plan_;
  std::map<std::string, GroupId> roots_;  // view/assertion name -> group
  std::map<std::string, UpdateTrack> track_cache_;
  /// Non-null after EnableConcurrency.
  std::unique_ptr<ConcurrencyController> controller_;

  friend class TxnSession;
};

}  // namespace auxview

#endif  // AUXVIEW_API_SESSION_H_
