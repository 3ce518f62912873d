// Multi-writer / multi-reader soak over one concurrency-enabled Session.
// Small enough for the sanitizer jobs, and the thread-sanitizer CI target
// runs it under TSan: writer threads commit (and retry) point and
// multi-row keyed UPDATEs through the optimistic funnel while reader
// threads execute joins, view scans and keyed view reads against published
// snapshots, with zero synchronization other than the concurrency layer's
// own.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "api/txn_session.h"

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

constexpr int kWriterThreads = 3;
constexpr int kReaderThreads = 2;
constexpr int kOpsPerWriter = 25;
constexpr int kReadsPerReader = 40;
constexpr int kDepts = 6;
constexpr int kEmpsPerDept = 4;

TEST(ConcurrentSoakTest, WritersAndReadersRaceCleanly) {
  Session session;
  ASSERT_TRUE(session.Execute(kDdl).ok());
  for (int d = 0; d < kDepts; ++d) {
    const std::string dname = "d" + std::to_string(d);
    for (int k = 0; k < kEmpsPerDept; ++k) {
      auto r = session.Execute(
          "INSERT INTO Emp VALUES ('" + dname + "e" + std::to_string(k) +
          "', '" + dname + "', 100);");
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
    auto r = session.Execute("INSERT INTO Dept VALUES ('" + dname + "', 'm" +
                             std::to_string(d) + "', 100000);");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  session.DeclareWorkload({SingleModifyTxn(">Emp", "Emp", {"Salary"}, 2),
                           SingleModifyTxn(">Dept", "Dept", {"Budget"}, 1)});
  ASSERT_TRUE(session.Prepare().ok());
  ASSERT_TRUE(session.EnableConcurrency().ok());

  std::atomic<int> committed{0};
  std::atomic<int> conflicted{0};
  std::atomic<bool> failed{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < kWriterThreads; ++t) {
    threads.emplace_back([&session, &committed, &conflicted, &failed, t] {
      auto txn = session.OpenSession();
      if (!txn.ok()) {
        failed = true;
        return;
      }
      for (int i = 0; i < kOpsPerWriter && !failed; ++i) {
        // Writers overlap on purpose: thread t sweeps its own department
        // plus a shared one, so some commits conflict and retry.
        const std::string mine = "d" + std::to_string(t % kDepts);
        const std::string shared = "d" + std::to_string(kDepts - 1);
        const std::string target = (i % 3 == 0) ? shared : mine;
        const std::string ename = target + "e" + std::to_string(i % kEmpsPerDept);
        const std::string salary = std::to_string(101 + (t * 1000 + i) % 400);
        // Every fifth op updates the whole department through the DName
        // index; the rest update one employee by key.
        const std::string sql =
            i % 5 == 4 ? "UPDATE Emp SET Salary = " + salary +
                             " WHERE DName = '" + target + "';"
                       : "UPDATE Emp SET Salary = " + salary +
                             " WHERE EName = '" + ename + "';";
        bool done = false;
        for (int attempt = 0; attempt < 10 && !done; ++attempt) {
          auto executed = (*txn)->Execute(sql);
          if (!executed.ok()) {
            failed = true;
            break;
          }
          auto outcome = (*txn)->Commit();
          if (!outcome.ok() ||
              outcome->kind == CommitOutcome::Kind::kRejected) {
            failed = true;
            break;
          }
          if (outcome->committed()) {
            committed.fetch_add(1);
            done = true;
          } else {
            conflicted.fetch_add(1);
            (*txn)->Restart();
          }
        }
      }
    });
  }
  for (int t = 0; t < kReaderThreads; ++t) {
    threads.emplace_back([&session, &failed, t] {
      auto txn = session.OpenSession();
      if (!txn.ok()) {
        failed = true;
        return;
      }
      for (int i = 0; i < kReadsPerReader && !failed; ++i) {
        const std::string dname = "d" + std::to_string((t + i) % kDepts);
        auto view = (*txn)->Execute("SELECT * FROM SumOfSals;");
        auto keyed = (*txn)->Execute(
            "SELECT * FROM SumOfSals WHERE DName = '" + dname + "';");
        // The same snapshot through the serial Session's read path.
        auto serial_keyed = session.Execute(
            "SELECT * FROM SumOfSals WHERE DName = '" + dname + "';");
        auto join = (*txn)->Execute(
            "SELECT EName, Budget FROM Emp, Dept "
            "WHERE Emp.DName = Dept.DName;");
        if (!view.ok() || !keyed.ok() || !serial_keyed.ok() || !join.ok() ||
            view->rows->total_count() != kDepts ||
            keyed->rows->total_count() != 1 ||
            serial_keyed->rows->total_count() != 1 ||
            join->rows->total_count() != kDepts * kEmpsPerDept) {
          failed = true;
          return;
        }
        // Fresh snapshot for the next iteration.
        (*txn)->Abort();
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_FALSE(failed.load());
  EXPECT_EQ(committed.load(), kWriterThreads * kOpsPerWriter);
  // Conflict counts are timing-dependent (the shared department makes them
  // likely, not certain) — deterministic conflict coverage lives in
  // concurrency_test and serial_equivalence_test.
  EXPECT_GE(conflicted.load(), 0);
  EXPECT_TRUE(session.CheckConsistency().ok());
  // The owning session still serves serial DML afterwards.
  auto serial =
      session.Execute("UPDATE Emp SET Salary = 777 WHERE EName = 'd0e0';");
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  EXPECT_EQ(serial->affected, 1);
  EXPECT_TRUE(session.CheckConsistency().ok());
}

}  // namespace
}  // namespace auxview
