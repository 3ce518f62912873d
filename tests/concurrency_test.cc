// Conflict-edge coverage for the snapshot delta-set concurrency layer
// (docs/CONCURRENCY.md): overlay visibility, first-committer-wins on every
// interesting edge — write-write on one key, write after delete, blind
// disjoint writes, serial DML vs optimistic writers, view-read
// invalidation — plus abort/retry hygiene of metrics and undo state,
// read-your-writes through view reads, and multi-row staged DML against
// its serial equivalent.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/session.h"
#include "api/txn_session.h"
#include "obs/metrics.h"

namespace auxview {
namespace {

constexpr char kDdl[] = R"sql(
CREATE TABLE Emp (EName STRING PRIMARY KEY, DName STRING, Salary INT,
                  INDEX (DName));
CREATE TABLE Dept (DName STRING PRIMARY KEY, MName STRING, Budget INT);
CREATE VIEW SumOfSals (DName, SalSum) AS
  SELECT DName, SUM(Salary) FROM Emp GROUPBY DName;
CREATE ASSERTION DeptConstraint CHECK
  (NOT EXISTS (SELECT Dept.DName FROM Emp, Dept
               WHERE Dept.DName = Emp.DName
               GROUPBY Dept.DName, Budget
               HAVING SUM(Salary) > Budget));
)sql";

int64_t CounterValue(const std::string& name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->value();
}

int64_t GaugeValue(const std::string& name) {
  return obs::MetricsRegistry::Global().GetGauge(name)->value();
}

class ConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(session_.Execute(kDdl).ok());
    for (int d = 0; d < 4; ++d) {
      const std::string dname = "d" + std::to_string(d);
      for (int k = 0; k < 3; ++k) {
        auto r = session_.Execute(
            "INSERT INTO Emp VALUES ('" + dname + "e" + std::to_string(k) +
            "', '" + dname + "', " + std::to_string(1000 + 10 * k) + ");");
        ASSERT_TRUE(r.ok()) << r.status().ToString();
      }
      // Budgets high enough that only the dedicated rejection test's
      // 99999-salary update violates DeptConstraint.
      auto r = session_.Execute("INSERT INTO Dept VALUES ('" + dname +
                                "', 'm" + std::to_string(d) + "', 50000);");
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
    session_.DeclareWorkload({SingleModifyTxn(">Emp", "Emp", {"Salary"}, 2),
                              SingleModifyTxn(">Dept", "Dept", {"Budget"}, 1)});
    Status prepared = session_.Prepare();
    ASSERT_TRUE(prepared.ok()) << prepared.ToString();
    Status enabled = session_.EnableConcurrency();
    ASSERT_TRUE(enabled.ok()) << enabled.ToString();
  }

  std::unique_ptr<TxnSession> Open() {
    auto txn = session_.OpenSession();
    EXPECT_TRUE(txn.ok()) << txn.status().ToString();
    return std::move(*txn);
  }

  int64_t Salary(const std::string& ename) {
    auto r = session_.Execute("SELECT Salary FROM Emp WHERE EName = '" +
                              ename + "';");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->rows->total_count(), 1);
    return r->rows->rows().begin()->first[0].int64();
  }

  Session session_;
};

TEST_F(ConcurrencyTest, OverlayIsPrivateUntilCommit) {
  auto txn = Open();
  auto staged = txn->Execute(
      "INSERT INTO Emp VALUES ('zz', 'd0', 1);"
      "UPDATE Emp SET Salary = 1111 WHERE EName = 'd0e0';");
  ASSERT_TRUE(staged.ok()) << staged.status().ToString();
  EXPECT_TRUE(txn->dirty());

  // The writer sees its own staged changes...
  auto mine = txn->Execute("SELECT * FROM Emp WHERE EName = 'zz';");
  ASSERT_TRUE(mine.ok());
  EXPECT_EQ(mine->rows->total_count(), 1);
  // ...other sessions do not.
  auto other = Open();
  auto theirs = other->Execute("SELECT * FROM Emp WHERE EName = 'zz';");
  ASSERT_TRUE(theirs.ok());
  EXPECT_EQ(theirs->rows->total_count(), 0);
  EXPECT_EQ(Salary("d0e0"), 1000);

  auto outcome = txn->Commit();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome->committed());
  EXPECT_EQ(Salary("d0e0"), 1111);
  EXPECT_TRUE(session_.CheckConsistency().ok());
}

TEST_F(ConcurrencyTest, WriteWriteOnSameKeyFirstCommitterWins) {
  auto a = Open();
  auto b = Open();  // same snapshot epoch as a
  ASSERT_TRUE(
      a->Execute("UPDATE Emp SET Salary = 2000 WHERE EName = 'd1e0';").ok());
  ASSERT_TRUE(
      b->Execute("UPDATE Emp SET Salary = 3000 WHERE EName = 'd1e0';").ok());

  auto first = a->Commit();
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->committed());

  const int64_t conflicts_before = CounterValue("concurrency.conflicts");
  auto second = b->Commit();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->kind, CommitOutcome::Kind::kConflict);
  EXPECT_NE(second->detail.find("d1e0"), std::string::npos) << second->detail;
  EXPECT_EQ(CounterValue("concurrency.conflicts"), conflicts_before + 1);
  EXPECT_EQ(Salary("d1e0"), 2000);  // the loser changed nothing

  // Retry on a fresh snapshot sees the winner's value and succeeds.
  const int64_t retries_before = CounterValue("concurrency.retries");
  b->Restart();
  EXPECT_EQ(CounterValue("concurrency.retries"), retries_before + 1);
  ASSERT_TRUE(
      b->Execute("UPDATE Emp SET Salary = 3000 WHERE EName = 'd1e0';").ok());
  auto retried = b->Commit();
  ASSERT_TRUE(retried.ok());
  EXPECT_TRUE(retried->committed());
  EXPECT_EQ(Salary("d1e0"), 3000);
  EXPECT_TRUE(session_.CheckConsistency().ok());
}

TEST_F(ConcurrencyTest, WriteAfterDeleteConflicts) {
  auto deleter = Open();
  auto updater = Open();
  ASSERT_TRUE(deleter->Execute("DELETE FROM Emp WHERE EName = 'd2e1';").ok());
  ASSERT_TRUE(
      updater->Execute("UPDATE Emp SET Salary = 9 WHERE EName = 'd2e1';")
          .ok());

  auto first = deleter->Commit();
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->committed());

  auto second = updater->Commit();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->kind, CommitOutcome::Kind::kConflict);

  // On retry the row is gone: the update matches nothing and the (read-only)
  // commit validates cleanly.
  updater->Restart();
  auto rerun =
      updater->Execute("UPDATE Emp SET Salary = 9 WHERE EName = 'd2e1';");
  ASSERT_TRUE(rerun.ok());
  EXPECT_EQ(rerun->affected, 0);
  auto retried = updater->Commit();
  ASSERT_TRUE(retried.ok());
  EXPECT_TRUE(retried->committed());
  EXPECT_TRUE(session_.CheckConsistency().ok());
}

TEST_F(ConcurrencyTest, BlindDisjointWritesCommitCleanly) {
  auto a = Open();
  auto b = Open();
  ASSERT_TRUE(a->Execute("INSERT INTO Emp VALUES ('ax', 'd0', 7);").ok());
  ASSERT_TRUE(b->Execute("INSERT INTO Emp VALUES ('bx', 'd1', 8);").ok());

  auto first = a->Commit();
  auto second = b->Commit();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(first->committed());
  // b's insert is blind (no read footprint) and touches a different row, so
  // it commits despite a's intervening commit to the same relation.
  EXPECT_TRUE(second->committed());
  EXPECT_GT(second->epoch, first->epoch);

  auto rows = session_.Execute("SELECT * FROM Emp;");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows->total_count(), 14);
  EXPECT_TRUE(session_.CheckConsistency().ok());
}

TEST_F(ConcurrencyTest, AbortThenRetryLeavesMetricsAndStateClean) {
  const int64_t commits_before = CounterValue("concurrency.commits");
  const int64_t conflicts_before = CounterValue("concurrency.conflicts");
  const auto sums_before = session_.ViewContents("SumOfSals");
  ASSERT_TRUE(sums_before.ok());

  {
    auto txn = Open();
    ASSERT_TRUE(
        txn->Execute("UPDATE Emp SET Salary = 4444 WHERE EName = 'd3e0';")
            .ok());
    EXPECT_TRUE(txn->dirty());
    txn->Abort();
    EXPECT_FALSE(txn->dirty());
    // Nothing committed, nothing conflicted, nothing leaked into tables.
    EXPECT_EQ(CounterValue("concurrency.commits"), commits_before);
    EXPECT_EQ(CounterValue("concurrency.conflicts"), conflicts_before);
    EXPECT_EQ(Salary("d3e0"), 1000);

    ASSERT_TRUE(
        txn->Execute("UPDATE Emp SET Salary = 4444 WHERE EName = 'd3e0';")
            .ok());
    auto outcome = txn->Commit();
    ASSERT_TRUE(outcome.ok());
    EXPECT_TRUE(outcome->committed());
  }
  EXPECT_EQ(CounterValue("concurrency.commits"), commits_before + 1);
  EXPECT_EQ(Salary("d3e0"), 4444);
  auto sums_after = session_.ViewContents("SumOfSals");
  ASSERT_TRUE(sums_after.ok());
  EXPECT_FALSE(sums_after->BagEquals(*sums_before));
  EXPECT_TRUE(session_.CheckConsistency().ok());
}

TEST_F(ConcurrencyTest, SnapshotPinsReturnToBaseline) {
  const int64_t pins_before = GaugeValue("concurrency.snapshot_pins");
  {
    auto a = Open();
    auto b = Open();
    EXPECT_EQ(GaugeValue("concurrency.snapshot_pins"), pins_before + 2);
    ASSERT_TRUE(a->Execute("INSERT INTO Emp VALUES ('px', 'd0', 1);").ok());
    auto outcome = a->Commit();
    ASSERT_TRUE(outcome.ok());
    EXPECT_TRUE(outcome->committed());
    EXPECT_EQ(GaugeValue("concurrency.snapshot_pins"), pins_before + 2);
  }
  EXPECT_EQ(GaugeValue("concurrency.snapshot_pins"), pins_before);
}

TEST_F(ConcurrencyTest, AssertionRejectionRollsBackAndIsNotAConflict) {
  auto txn = Open();
  // Pushing one salary past the department budget violates DeptConstraint.
  ASSERT_TRUE(
      txn->Execute("UPDATE Emp SET Salary = 99999 WHERE EName = 'd0e0';")
          .ok());
  auto outcome = txn->Commit();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->kind, CommitOutcome::Kind::kRejected);
  EXPECT_EQ(outcome->detail, "DeptConstraint");
  EXPECT_FALSE(txn->dirty());  // rejected => rolled back and cleared
  EXPECT_EQ(Salary("d0e0"), 1000);

  // The session is reusable; a valid change commits.
  ASSERT_TRUE(
      txn->Execute("UPDATE Emp SET Salary = 1500 WHERE EName = 'd0e0';").ok());
  auto retried = txn->Commit();
  ASSERT_TRUE(retried.ok());
  EXPECT_TRUE(retried->committed());
  EXPECT_EQ(Salary("d0e0"), 1500);
  EXPECT_TRUE(session_.CheckConsistency().ok());
}

TEST_F(ConcurrencyTest, SerialSessionDmlConflictsOptimisticWriters) {
  auto txn = Open();
  ASSERT_TRUE(
      txn->Execute("UPDATE Emp SET Salary = 2500 WHERE EName = 'd1e1';").ok());
  // The owning Session's ad-hoc DML goes through the same funnel and records
  // its footprint, so the staged optimistic write now conflicts.
  auto serial =
      session_.Execute("UPDATE Emp SET Salary = 2600 WHERE EName = 'd1e1';");
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  auto outcome = txn->Commit();
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->kind, CommitOutcome::Kind::kConflict);
  EXPECT_EQ(Salary("d1e1"), 2600);
}

TEST_F(ConcurrencyTest, ViewReadConflictsWithViewChange) {
  auto reader = Open();
  auto sums = reader->Execute("SELECT * FROM SumOfSals;");
  ASSERT_TRUE(sums.ok()) << sums.status().ToString();
  EXPECT_EQ(sums->rows->total_count(), 4);
  // Stage a blind write so the commit is not read-only.
  ASSERT_TRUE(reader->Execute("INSERT INTO Emp VALUES ('vx', 'd0', 1);").ok());

  // Another commit changes the view contents out from under the reader.
  auto writer = Open();
  ASSERT_TRUE(
      writer->Execute("UPDATE Emp SET Salary = 1200 WHERE EName = 'd2e0';")
          .ok());
  auto committed = writer->Commit();
  ASSERT_TRUE(committed.ok());
  EXPECT_TRUE(committed->committed());

  auto outcome = reader->Commit();
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->kind, CommitOutcome::Kind::kConflict);
  EXPECT_NE(outcome->detail.find("rewritten"), std::string::npos)
      << outcome->detail;
}

TEST_F(ConcurrencyTest, SessionSelectsServeFromPublishedSnapshot) {
  // A staged-but-uncommitted change is invisible to the owning Session's
  // snapshot reads, view shortcut included.
  auto txn = Open();
  ASSERT_TRUE(
      txn->Execute("UPDATE Emp SET Salary = 8000 WHERE EName = 'd3e2';").ok());
  auto sums = session_.Execute("SELECT * FROM SumOfSals;");
  ASSERT_TRUE(sums.ok());
  for (const auto& [row, count] : sums->rows->rows()) {
    (void)count;
    if (row[0].str() == "d3") EXPECT_EQ(row[1].int64(), 1000 + 1010 + 1020);
  }
  auto outcome = txn->Commit();
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->committed());
  auto after = session_.Execute("SELECT * FROM SumOfSals;");
  ASSERT_TRUE(after.ok());
  for (const auto& [row, count] : after->rows->rows()) {
    (void)count;
    if (row[0].str() == "d3") EXPECT_EQ(row[1].int64(), 1000 + 1010 + 8000);
  }
}

// A TxnSession reads its own uncommitted writes through every spelling of
// a view read: SELECT * (served from the materialized table while nothing
// the view reads is staged) must agree with the explicit column list (the
// inlined plan over the overlay), with and without a keyed WHERE, before
// staging, after staging and after Abort.
TEST_F(ConcurrencyTest, ViewReadsSeeOwnStagedWrites) {
  auto txn = Open();
  auto expect_agree = [&](int64_t d0_sum) {
    for (const std::string where : {"", " WHERE DName = 'd0'"}) {
      auto star = txn->Execute("SELECT * FROM SumOfSals" + where + ";");
      auto cols =
          txn->Execute("SELECT DName, SalSum FROM SumOfSals" + where + ";");
      ASSERT_TRUE(star.ok()) << star.status().ToString();
      ASSERT_TRUE(cols.ok()) << cols.status().ToString();
      EXPECT_TRUE(star->rows->BagEquals(*cols->rows))
          << "WHERE '" << where << "': " << star->rows->ToString() << " vs "
          << cols->rows->ToString();
      EXPECT_EQ(star->rows->CountOf({Value::String("d0"),
                                     Value::Int64(d0_sum)}),
                1)
          << star->rows->ToString();
    }
  };
  expect_agree(1000 + 1010 + 1020);
  ASSERT_TRUE(
      txn->Execute("UPDATE Emp SET Salary = 5000 WHERE EName = 'd0e2';").ok());
  expect_agree(1000 + 1010 + 5000);
  txn->Abort();
  expect_agree(1000 + 1010 + 1020);
}

std::map<std::string, std::string> FingerprintAll(Session& session) {
  std::map<std::string, std::string> out;
  for (const std::string& name : session.db().TableNames()) {
    out[name] = session.db().FindTable(name)->Fingerprint();
  }
  return out;
}

void LoadWideDepts(Session* session) {
  ASSERT_TRUE(session->Execute(kDdl).ok());
  for (int d = 0; d < 4; ++d) {
    const std::string dname = "d" + std::to_string(d);
    std::string sql = "INSERT INTO Emp VALUES ";
    for (int k = 0; k < 40; ++k) {
      if (k > 0) sql += ", ";
      sql += "('" + dname + "e" + std::to_string(k) + "', '" + dname + "', " +
             std::to_string(1000 + k) + ")";
    }
    ASSERT_TRUE(session->Execute(sql + ";").ok());
    ASSERT_TRUE(session
                    ->Execute("INSERT INTO Dept VALUES ('" + dname + "', 'm" +
                              std::to_string(d) + "', 900000);")
                    .ok());
  }
  session->DeclareWorkload({SingleModifyTxn(">Emp", "Emp", {"Salary"}, 2),
                            SingleModifyTxn(">Dept", "Dept", {"Budget"}, 1)});
  Status prepared = session->Prepare();
  ASSERT_TRUE(prepared.ok()) << prepared.ToString();
}

// k-row UPDATE and DELETE staged in one TxnSession (later statements
// re-matching rows earlier ones staged) commit to exactly the tables,
// views and index buckets the same statements leave on a serial Session.
TEST(TxnSessionDmlTest, MultiRowStatementsCommitLikeSerialSession) {
  Session serial;
  LoadWideDepts(&serial);
  Session concurrent;
  LoadWideDepts(&concurrent);
  ASSERT_TRUE(concurrent.EnableConcurrency().ok());
  auto txn = concurrent.OpenSession();
  ASSERT_TRUE(txn.ok());
  const std::vector<std::pair<std::string, int64_t>> statements = {
      {"UPDATE Emp SET Salary = Salary + 7 WHERE DName = 'd1';", 40},
      {"UPDATE Emp SET Salary = Salary * 2 WHERE DName = 'd1' AND "
       "Salary > 1030;",
       16},
      {"DELETE FROM Emp WHERE DName = 'd2';", 40},
      {"DELETE FROM Emp WHERE DName = 'd3' AND Salary < 1010;", 10},
      {"UPDATE Emp SET DName = 'd0' WHERE DName = 'd3';", 30},
      {"INSERT INTO Emp VALUES ('new0', 'd2', 5), ('new1', 'd2', 6);", 2},
  };
  for (const auto& [sql, rows] : statements) {
    auto s = serial.Execute(sql);
    ASSERT_TRUE(s.ok()) << sql << ": " << s.status().ToString();
    auto t = (*txn)->Execute(sql);
    ASSERT_TRUE(t.ok()) << sql << ": " << t.status().ToString();
    EXPECT_EQ(s->affected, rows) << sql;
    EXPECT_EQ(t->affected, rows) << sql;
  }
  auto outcome = (*txn)->Commit();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_TRUE(outcome->committed()) << outcome->detail;
  EXPECT_EQ(FingerprintAll(concurrent), FingerprintAll(serial));
  EXPECT_TRUE(concurrent.CheckConsistency().ok());
}

}  // namespace
}  // namespace auxview
