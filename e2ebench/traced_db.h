#ifndef AUXVIEW_E2EBENCH_TRACED_DB_H_
#define AUXVIEW_E2EBENCH_TRACED_DB_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/session.h"
#include "concurrency/writer.h"
#include "trace.h"

namespace e2ebench {

class TracedWriter;

/// Sums of the program's own histograms for the layers that run inside
/// ViewManager::ApplyTransaction, which the benchmark cannot time around.
/// The difference of two readings attributes them to the calls in between.
struct NestedSums {
  static constexpr int kKernels = 5;
  static const char* const kKernelNames[kKernels];

  double apply_us = 0;
  double compute_us = 0;
  double kernel_us[kKernels] = {};

  static NestedSums Read();
  NestedSums operator-(const NestedSums& other) const;
};

/// Adds to `tracer` the spans `delta` implies under `apply_span`:
/// maintain.compute_deltas from the start of the apply, and the kernels
/// back to back inside it.
void AddNestedSpans(Tracer* tracer, int apply_span, const NestedSums& delta);

/// The Session pipeline wired by hand from the library's public pieces —
/// Binder, Memo, ViewSelector, ViewManager, ConcurrencyController — the
/// same way Session::Prepare/ApplyDml and TxnSession do, with a span around
/// each call into a layer. It has Session's method names, so Runner
/// runs either one; every traced run checks that both end with the same
/// table fingerprints and charged page I/O. It wires the paths the
/// workloads take: serial DML and SELECTs without concurrency, and
/// concurrent ones through TracedWriter (Session's serial DML and
/// auto-checkpoints under concurrency are left out).
class TracedDb {
 public:
  TracedDb();
  TracedDb(const TracedDb&) = delete;
  TracedDb& operator=(const TracedDb&) = delete;

  auxview::StatusOr<auxview::ExecResult> Execute(const std::string& sql);
  void DeclareWorkload(std::vector<auxview::TransactionType> txns) {
    workload_ = std::move(txns);
  }
  auxview::Status Prepare();
  auxview::Status OpenWal(const auxview::DatabaseOptions& options) {
    return db_.OpenWal(options);
  }
  auxview::Status EnableConcurrency();
  auxview::StatusOr<std::unique_ptr<TracedWriter>> OpenSession();

  auxview::StatusOr<std::vector<auxview::AssertionCheck>> CheckAssertions()
      const;
  auxview::Status CheckConsistency() const {
    return manager_->CheckConsistency();
  }
  auxview::Database& db() { return db_; }

  /// Turns the histogram readings taken at every concurrent commit into
  /// nested maintain.* spans under that commit's span. Call once every
  /// writer thread of a phase has joined, before any further DML.
  void FinishCommitProbes();

  /// Rows dml::MatchingRows examined (it copies the whole table) and calls.
  int64_t match_rows() const { return match_rows_.load(); }
  int64_t match_calls() const { return match_calls_.load(); }
  int64_t best_track_calls() const { return best_track_calls_.load(); }

 private:
  friend class TracedWriter;

  /// One reading per concurrent commit, taken under the commit mutex inside
  /// the controller's track lookup, just before ApplyTransaction.
  struct CommitProbe {
    Tracer* tracer = nullptr;
    int commit_span = -1;
    NestedSums sums;
  };

  auxview::StatusOr<auxview::ExecResult> ExecuteOne(
      const auxview::Statement& stmt);
  auxview::StatusOr<auxview::ExecResult> ExecuteSelect(
      const auxview::SelectQuery& query);
  auxview::StatusOr<auxview::ConcreteTxn> BuildConcreteTxn(
      const auxview::Statement& stmt, auxview::TransactionType* type);
  auxview::StatusOr<auxview::ExecResult> ApplyDml(
      const auxview::Statement& stmt);
  auxview::Status ApplyDirect(const auxview::ConcreteTxn& txn);
  auxview::StatusOr<auxview::UpdateTrack> TrackFor(
      const auxview::TransactionType& type);
  auxview::StatusOr<std::vector<auxview::Row>> MatchingRows(
      const auxview::Table& table, const auxview::SqlExpr::Ptr& where);
  auxview::Status Checkpoint();
  auxview::StatusOr<auxview::GroupId> GroupOf(const std::string& name) const;

  auxview::SessionOptions options_;
  auxview::Catalog catalog_;
  auxview::Database db_;
  auxview::Binder binder_;
  std::vector<auxview::TransactionType> workload_;

  std::unique_ptr<auxview::Memo> memo_;
  std::unique_ptr<auxview::ViewSelector> selector_;
  std::unique_ptr<auxview::ViewManager> manager_;
  auxview::OptimizeResult plan_;
  std::map<std::string, auxview::GroupId> roots_;
  std::map<std::string, auxview::UpdateTrack> track_cache_;
  std::unique_ptr<auxview::ConcurrencyController> controller_;

  std::mutex probes_mu_;  // guards probes_
  std::vector<CommitProbe> probes_;
  std::atomic<int64_t> match_rows_{0};
  std::atomic<int64_t> match_calls_{0};
  std::atomic<int64_t> best_track_calls_{0};
};

/// TxnSession wired by hand over TracedDb: a WriterTxn plus the statement
/// execution TxnSession layers on it.
class TracedWriter {
 public:
  auxview::StatusOr<auxview::ExecResult> Execute(const std::string& sql);
  auxview::StatusOr<auxview::CommitOutcome> Commit();
  void Abort() { writer_.Abort(); }
  void Restart() { writer_.Restart(); }

 private:
  friend class TracedDb;
  TracedWriter(TracedDb* owner, auxview::ConcurrencyController* controller)
      : owner_(owner), writer_(controller) {}

  auxview::StatusOr<auxview::ExecResult> ExecuteSelect(
      const auxview::SelectQuery& query);
  auxview::StatusOr<auxview::ExecResult> ApplyDml(
      const auxview::Statement& stmt);
  auxview::StatusOr<std::vector<auxview::Row>> MatchingRows(
      const std::string& table, const auxview::SqlExpr::Ptr& where);

  TracedDb* owner_;
  auxview::WriterTxn writer_;
};

}  // namespace e2ebench

#endif  // AUXVIEW_E2EBENCH_TRACED_DB_H_
