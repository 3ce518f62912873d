#include "driver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <sched.h>
#include <system_error>
#include <thread>

#include "maintain/assertion.h"
#include "storage/wal/wal.h"

namespace e2ebench {

using namespace auxview;

namespace {

int64_t NextUnit() {
  static std::atomic<int64_t> next{0};
  return next.fetch_add(1);
}

void RemoveDir(const std::string& dir) {
  if (dir.empty()) return;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

/// The CPUs the process may run on, as found at first use.
const cpu_set_t& AllowedCpus() {
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) CPU_ZERO(&set);
    return set;
  }();
  return allowed;
}

}  // namespace

void PinToCpu(int slot) {
  const cpu_set_t& allowed = AllowedCpus();
  const int count = CPU_COUNT(&allowed);
  if (count == 0) return;
  int skip = slot % count;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || skip-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
    return;
  }
}

void UnpinCpu() {
  if (CPU_COUNT(&AllowedCpus()) > 0) {
    sched_setaffinity(0, sizeof(cpu_set_t), &AllowedCpus());
  }
}

void Tally::Problem(int64_t* counter, const std::string& what) {
  ++*counter;
  if (first_problem.empty()) first_problem = what;
}

void Tally::Merge(const Tally& other) {
  write_us.insert(write_us.end(), other.write_us.begin(), other.write_us.end());
  read_us.insert(read_us.end(), other.read_us.begin(), other.read_us.end());
  committed += other.committed;
  rejected += other.rejected;
  retries += other.retries;
  errors += other.errors;
  mismatches += other.mismatches;
  if (first_problem.empty()) first_problem = other.first_problem;
}

Fingerprints Fingerprint(const Database& db) {
  std::string physical;
  std::string logical;
  for (const std::string& name : db.TableNames()) {
    const Table* table = db.FindTable(name);
    physical += name + "\n" + table->Fingerprint() + "\n";
    std::vector<std::string> rows;
    for (const CountedRow& cr : table->SnapshotUncharged()) {
      rows.push_back(RowToString(cr.row) + "x" + std::to_string(cr.count));
    }
    std::sort(rows.begin(), rows.end());
    logical += name + "\n";
    for (const std::string& row : rows) logical += row + "\n";
  }
  return Fingerprints{Fnv1a(physical), Fnv1a(logical)};
}

double SpaceRatio(const Database& db) {
  double views = 0;
  double base = 0;
  for (const std::string& name : db.TableNames()) {
    const double rows = static_cast<double>(db.FindTable(name)->row_count());
    (name.rfind("__mv_", 0) == 0 ? views : base) += rows;
  }
  return base > 0 ? views / base : 0;
}

template <class Db>
Runner<Db>::Runner(RunSpec spec) : spec_(std::move(spec)) {}

template <class Db>
Runner<Db>::~Runner() {
  // Sessions before the database they belong to.
  writers_.clear();
  reader_.reset();
  db_.reset();
  RemoveDir(spec_.wal_dir);
}

template <class Db>
Status Runner<Db>::SetUp(Tracer* tracer, double* seconds) {
  writers_.clear();
  reader_.reset();
  db_.reset();
  workload_ = MakeWorkload(spec_.workload, spec_.seed, spec_.depts);
  if (workload_ == nullptr) {
    return Status::InvalidArgument("unknown workload: " + spec_.workload);
  }
  // Statement text is the benchmark's work, not the system's: build it
  // before the clock starts.
  const std::string ddl = workload_->Ddl();
  const std::vector<std::string> load = workload_->LoadStatements();
  const std::vector<TransactionType> txns = workload_->DeclaredTxns();
  RemoveDir(spec_.wal_dir);

  TraceContext& ctx = CurrentTrace();
  ctx.tracer = tracer;
  ctx.unit = NextUnit();
  const double t0 = NowUs();
  const Status st = [&]() -> Status {
    ScopedSpan span("setup");
    db_ = std::make_unique<Db>();
    AUXVIEW_RETURN_IF_ERROR(db_->Execute(ddl).status());
    if (concurrent()) {
      DatabaseOptions options;
      options.wal_dir = spec_.wal_dir;
      options.wal_fsync = WalFsync::kCommit;
      AUXVIEW_RETURN_IF_ERROR(db_->OpenWal(options));
    }
    for (const std::string& sql : load) {
      AUXVIEW_RETURN_IF_ERROR(db_->Execute(sql).status());
    }
    db_->DeclareWorkload(txns);
    AUXVIEW_RETURN_IF_ERROR(db_->Prepare());
    if (concurrent()) AUXVIEW_RETURN_IF_ERROR(db_->EnableConcurrency());
    return Status::Ok();
  }();
  *seconds = (NowUs() - t0) / 1e6;
  ctx.tracer = nullptr;
  AUXVIEW_RETURN_IF_ERROR(st);

  if (concurrent()) {
    const auto* emp_dept = dynamic_cast<const EmpDeptWorkload*>(workload_.get());
    if (emp_dept == nullptr) {
      return Status::InvalidArgument("concurrent runs need the Emp/Dept schema");
    }
    streams_.clear();
    for (int w = 0; w < kWriters; ++w) {
      streams_.emplace_back(*emp_dept, w, spec_.seed);
      AUXVIEW_ASSIGN_OR_RETURN(std::unique_ptr<Writer> writer,
                               db_->OpenSession());
      writers_.push_back(std::move(writer));
    }
    reads_ = std::make_unique<EmpDeptReadStream>(*emp_dept, spec_.seed);
    AUXVIEW_ASSIGN_OR_RETURN(reader_, db_->OpenSession());
  }
  return Status::Ok();
}

template <class Db>
GateResult Runner<Db>::Gate(int blocks, Tally* tally) {
  const PageCounter& counter = db_->db().counter();
  obs::Counter* applied =
      obs::MetricsRegistry::Global().GetCounter("maintain.txns_applied");
  const int64_t io0 = counter.total();
  const int64_t txns0 = applied->value();
  const int64_t rejected0 = tally->rejected;
  if (concurrent()) {
    for (int i = 0; i < blocks; ++i) {
      for (int w = 0; w < kWriters; ++w) {
        RunTxnUnit(writers_[static_cast<size_t>(w)].get(),
                   streams_[static_cast<size_t>(w)].Next(), tally);
      }
      RunReadUnit(reader_.get(), reads_->Next(), tally);
    }
    FinishProbes();
  } else {
    for (int b = 0; b < blocks; ++b) {
      for (const Unit& unit : workload_->NextBlock()) RunSerialUnit(unit, tally);
    }
  }
  GateResult gate;
  gate.page_ios = counter.total() - io0;
  gate.maintained_txns = applied->value() - txns0;
  gate.rejected = tally->rejected - rejected0;
  gate.after = Fingerprint(db_->db());
  return gate;
}

template <class Db>
void Runner<Db>::Timed(double seconds, std::vector<Tracer>* tracers,
                       Tally* tally, double* elapsed_s) {
  const double t0 = NowUs();
  const double end = t0 + seconds * 1e6;
  if (!concurrent()) {
    CurrentTrace().tracer = tracers == nullptr ? nullptr : &(*tracers)[0];
    int slot = 0;
    while (NowUs() < end) {
      for (const Unit& unit : workload_->NextBlock()) {
        PinToCpu(slot++);
        RunSerialUnit(unit, tally);
      }
    }
    UnpinCpu();
    CurrentTrace().tracer = nullptr;
    *elapsed_s = (NowUs() - t0) / 1e6;
    return;
  }
  std::atomic<bool> stop{false};
  std::vector<Tally> tallies(kWriters + 1);
  std::vector<std::thread> threads;
  for (int t = 0; t <= kWriters; ++t) {
    threads.emplace_back([this, t, tracers, &stop, &tallies] {
      const size_t i = static_cast<size_t>(t);
      CurrentTrace().tracer = tracers == nullptr ? nullptr : &(*tracers)[i];
      // One CPU per thread: left to the scheduler, threads sometimes shared
      // a CPU for a whole run; stepping through CPUs made them collide.
      PinToCpu(t);
      while (!stop.load(std::memory_order_relaxed)) {
        if (t < kWriters) {
          RunTxnUnit(writers_[i].get(), streams_[i].Next(), &tallies[i]);
        } else {
          RunReadUnit(reader_.get(), reads_->Next(), &tallies[i]);
        }
      }
      CurrentTrace().tracer = nullptr;
    });
  }
  while (NowUs() < end) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true);
  for (std::thread& thread : threads) thread.join();
  *elapsed_s = (NowUs() - t0) / 1e6;
  FinishProbes();
  for (const Tally& t : tallies) tally->Merge(t);
}

template <class Db>
Status Runner<Db>::Verify() const {
  AUXVIEW_RETURN_IF_ERROR(db_->CheckConsistency());
  AUXVIEW_ASSIGN_OR_RETURN(std::vector<AssertionCheck> checks,
                           db_->CheckAssertions());
  for (const AssertionCheck& check : checks) {
    if (!check.holds) {
      return Status::FailedPrecondition("assertion does not hold: " +
                                        check.ToString());
    }
  }
  return Status::Ok();
}

template <class Db>
void Runner<Db>::RunSerialUnit(const Unit& unit, Tally* tally) {
  CurrentTrace().unit = NextUnit();
  const std::string& sql = unit.statements[0];
  const double t0 = NowUs();
  StatusOr<ExecResult> result = Status::Internal("not run");
  {
    ScopedSpan span(unit.read ? "unit.read" : "unit.write");
    result = db_->Execute(sql);
  }
  (unit.read ? tally->read_us : tally->write_us).push_back(NowUs() - t0);
  if (!result.ok()) {
    tally->Problem(&tally->errors, result.status().ToString() + " in: " + sql);
    return;
  }
  if (unit.read) return;
  const bool rejected = result->rejected();
  ++(rejected ? tally->rejected : tally->committed);
  if (rejected != unit.expect_reject || (!rejected && result->affected == 0)) {
    tally->Problem(&tally->mismatches, "unexpected outcome of: " + sql);
  }
}

template <class Db>
void Runner<Db>::RunTxnUnit(Writer* writer, const Unit& unit, Tally* tally) {
  // A conflicting transaction restarts on a fresh snapshot; this many
  // attempts without a verdict count as an error.
  constexpr int kMaxAttempts = 100;
  CurrentTrace().unit = NextUnit();
  const double t0 = NowUs();
  std::string error;
  bool finished = false;
  bool rejected = false;
  {
    ScopedSpan span("unit.write");
    for (int attempt = 0; attempt < kMaxAttempts && !finished; ++attempt) {
      for (const std::string& sql : unit.statements) {
        StatusOr<ExecResult> r = writer->Execute(sql);
        if (!r.ok()) {
          error = r.status().ToString() + " in: " + sql;
          break;
        }
      }
      if (!error.empty()) break;
      StatusOr<CommitOutcome> outcome = writer->Commit();
      if (!outcome.ok()) {
        error = outcome.status().ToString();
        break;
      }
      if (outcome->kind == CommitOutcome::Kind::kConflict) {
        ++tally->retries;
        writer->Restart();
        continue;
      }
      finished = true;
      rejected = outcome->kind == CommitOutcome::Kind::kRejected;
    }
  }
  tally->write_us.push_back(NowUs() - t0);
  if (!finished) {
    writer->Abort();
    tally->Problem(&tally->errors, error.empty()
                                       ? "out of retries: " + unit.statements[0]
                                       : error);
    return;
  }
  ++(rejected ? tally->rejected : tally->committed);
  if (rejected != unit.expect_reject) {
    tally->Problem(&tally->mismatches,
                   "unexpected verdict for: " + unit.statements.back());
  }
}

template <class Db>
void Runner<Db>::RunReadUnit(Writer* reader, const Unit& unit, Tally* tally) {
  CurrentTrace().unit = NextUnit();
  const std::string& sql = unit.statements[0];
  const double t0 = NowUs();
  StatusOr<ExecResult> result = Status::Internal("not run");
  {
    ScopedSpan span("unit.read");
    result = reader->Execute(sql);
  }
  tally->read_us.push_back(NowUs() - t0);
  reader->Abort();  // repin the latest snapshot for the next read
  if (!result.ok()) {
    tally->Problem(&tally->errors, result.status().ToString() + " in: " + sql);
  }
}

template class Runner<Session>;
template class Runner<TracedDb>;

}  // namespace e2ebench
