#ifndef AUXVIEW_API_TXN_SESSION_H_
#define AUXVIEW_API_TXN_SESSION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "api/session.h"
#include "common/status.h"
#include "concurrency/writer.h"
#include "parser/ast.h"

namespace auxview {

/// One concurrent SQL session over a prepared, concurrency-enabled Session
/// (Session::OpenSession). Statements execute against this session's pinned
/// snapshot overlaid with its own staged changes; nothing becomes visible
/// to other sessions until Commit(), which runs first-committer-wins
/// validation before funneling the staged transaction through the shared
/// maintenance pipeline (docs/CONCURRENCY.md).
///
/// A TxnSession belongs to one thread; open as many as you need for
/// concurrency. DML before Prepare, DDL, and workload declaration remain
/// the owning Session's job.
///
///   auto txn = session.OpenSession().value();
///   txn->Execute("UPDATE Emp SET Salary = 60000 WHERE EName = 'e1';");
///   auto outcome = txn->Commit().value();
///   if (outcome.kind == CommitOutcome::Kind::kConflict) {
///     txn->Restart();   // fresh snapshot; re-run the statements
///   }
class TxnSession {
 public:
  /// Parses and executes a ';'-separated script of SELECT / INSERT /
  /// DELETE / UPDATE statements against snapshot ∪ staged delta. DML stages
  /// changes privately (affected counts reflect the overlay); SELECT sees
  /// the staged changes of this session only.
  StatusOr<ExecResult> Execute(const std::string& sql);

  /// One optimistic commit attempt for everything staged since the last
  /// Commit/Abort/Restart. kCommitted clears the staged set and repins;
  /// kConflict (validation lost) and kRejected (assertion violation) leave
  /// the session untouched for inspection.
  StatusOr<CommitOutcome> Commit();

  /// Drops staged changes and repins the latest snapshot.
  void Abort();

  /// Abort() that counts in `concurrency.retries` — use when re-running a
  /// conflicted transaction.
  void Restart();

  /// Epoch of the pinned snapshot this session reads from.
  uint64_t snapshot_epoch() const { return writer_.snapshot_epoch(); }

  /// True when changes are staged but not committed.
  bool dirty() const { return !writer_.delta().empty(); }

  WriterTxn& writer() { return writer_; }

 private:
  friend class Session;
  TxnSession(Session* owner, ConcurrencyController* controller)
      : owner_(owner), writer_(controller) {}

  StatusOr<ExecResult> ExecuteOne(const Statement& stmt);
  StatusOr<ExecResult> ExecuteSelect(const SelectQuery& query);
  StatusOr<ExecResult> ApplyDml(const Statement& stmt);
  /// Victim rows for DELETE/UPDATE through the overlay, each with its
  /// visible multiplicity; records a key read when the WHERE clause is a
  /// pure equality conjunction, else a whole-relation read.
  StatusOr<std::vector<CountedRow>> MatchingRows(const std::string& table,
                                                 const SqlExpr::Ptr& where);

  Session* owner_;
  WriterTxn writer_;
};

}  // namespace auxview

#endif  // AUXVIEW_API_TXN_SESSION_H_
