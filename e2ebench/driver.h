#ifndef AUXVIEW_E2EBENCH_DRIVER_H_
#define AUXVIEW_E2EBENCH_DRIVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "api/session.h"
#include "api/txn_session.h"
#include "trace.h"
#include "traced_db.h"
#include "workload.h"

namespace e2ebench {

/// Latencies and outcomes of the units one phase ran.
struct Tally {
  std::vector<double> write_us;
  std::vector<double> read_us;
  int64_t committed = 0;
  int64_t rejected = 0;
  int64_t retries = 0;
  /// Units that returned an error Status or ran out of retries.
  int64_t errors = 0;
  /// Writes whose verdict (or affected-row count) differs from the
  /// generator's prediction.
  int64_t mismatches = 0;
  std::string first_problem;

  int64_t writes() const { return static_cast<int64_t>(write_us.size()); }
  int64_t reads() const { return static_cast<int64_t>(read_us.size()); }
  void Problem(int64_t* counter, const std::string& what);
  void Merge(const Tally& other);
};

/// Content hashes of every stored table. `physical` covers rows, counts and
/// hash-index buckets in storage order (Table::Fingerprint); `logical`
/// covers the sorted rows only, so it is the same for every history that
/// ends in the same contents.
struct Fingerprints {
  uint64_t physical = 0;
  uint64_t logical = 0;
  bool operator==(const Fingerprints& o) const {
    return physical == o.physical && logical == o.logical;
  }
};
Fingerprints Fingerprint(const auxview::Database& db);

/// Rows stored in materialized views (`__mv_*`, the user views included)
/// per row stored in base tables.
double SpaceRatio(const auxview::Database& db);

/// What the fixed-length prefix of a run did; repeats exactly for a seed.
struct GateResult {
  int64_t page_ios = 0;
  int64_t maintained_txns = 0;
  int64_t rejected = 0;
  Fingerprints after;
  bool operator==(const GateResult& o) const {
    return page_ios == o.page_ios && maintained_txns == o.maintained_txns &&
           rejected == o.rejected && after == o.after;
  }
};

/// One workload instance on one pipeline: Session, or the hand-wired
/// TracedDb.
struct RunSpec {
  std::string workload;
  uint64_t seed = 1;
  /// Emp/Dept size override (0 = the workload's own).
  int depts = 0;
  /// Write-ahead log directory for the concurrent workload; empty for the
  /// serial ones.
  std::string wal_dir;
};

template <class Db>
struct WriterOf;
template <>
struct WriterOf<auxview::Session> {
  using type = auxview::TxnSession;
};
template <>
struct WriterOf<TracedDb> {
  using type = TracedWriter;
};

/// Concurrent writer threads; one more thread reads.
constexpr int kWriters = 3;

/// Pins the calling thread to the `slot`-th allowed CPU (modulo their
/// count). Every serial timed unit and every set-up moves on to the next
/// slot; concurrent thread t stays on slot t. On
/// a shared host one CPU can run a third slower than the others for
/// minutes, and a run that stayed on it by chance read as a regression.
/// Spread over every CPU, a slow one only shifts a quarter of the samples,
/// which the median absorbs.
void PinToCpu(int slot);
/// Allows every CPU again (before threads are started).
void UnpinCpu();

template <class Db>
class Runner {
 public:
  using Writer = typename WriterOf<Db>::type;

  explicit Runner(RunSpec spec);
  ~Runner();
  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  bool concurrent() const { return !spec_.wal_dir.empty(); }

  /// From an empty database to ready to serve: DDL, bulk load, Prepare, and
  /// for the concurrent workload OpenWal and EnableConcurrency. Spans go to
  /// `tracer` when non-null. Sets `*seconds` to the wall time.
  auxview::Status SetUp(Tracer* tracer, double* seconds);

  /// The fixed prefix of the stream: `blocks` serial blocks, or for the
  /// concurrent workload `blocks` transactions per writer run one after
  /// another on this thread (so the result is deterministic).
  GateResult Gate(int blocks, Tally* tally);

  /// The closed loop for `seconds`. Serial runs whole blocks until time is
  /// up; concurrent runs kWriters writer threads and one reader. With
  /// `tracers` (one per thread), spans are recorded.
  void Timed(double seconds, std::vector<Tracer>* tracers, Tally* tally,
             double* elapsed_s);

  /// CheckConsistency passes and CheckAssertions reports every assertion
  /// satisfied.
  auxview::Status Verify() const;

  Db& db() { return *db_; }

 private:
  void RunSerialUnit(const Unit& unit, Tally* tally);
  void RunTxnUnit(Writer* writer, const Unit& unit, Tally* tally);
  void RunReadUnit(Writer* reader, const Unit& unit, Tally* tally);
  void FinishProbes() {
    if constexpr (std::is_same_v<Db, TracedDb>) db_->FinishCommitProbes();
  }

  RunSpec spec_;
  std::unique_ptr<Workload> workload_;
  std::unique_ptr<Db> db_;
  std::vector<std::unique_ptr<Writer>> writers_;
  std::unique_ptr<Writer> reader_;
  std::vector<EmpDeptTxnStream> streams_;
  std::unique_ptr<EmpDeptReadStream> reads_;
};

extern template class Runner<auxview::Session>;
extern template class Runner<TracedDb>;

}  // namespace e2ebench

#endif  // AUXVIEW_E2EBENCH_DRIVER_H_
