// The Session facade: SQL in, incrementally-maintained views and enforced
// assertions out.

#include <gtest/gtest.h>

#include <functional>
#include <string>

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

class SessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(session_.Execute(kDdl).ok());
    // Bulk load before Prepare.
    for (int d = 0; d < 4; ++d) {
      const std::string dname = "d" + std::to_string(d);
      for (int k = 0; k < 3; ++k) {
        auto r = session_.Execute(
            "INSERT INTO Emp VALUES ('" + dname + "e" + std::to_string(k) +
            "', '" + dname + "', " + std::to_string(1000 + 10 * k) + ");");
        ASSERT_TRUE(r.ok()) << r.status().ToString();
      }
      auto r = session_.Execute("INSERT INTO Dept VALUES ('" + dname +
                                "', 'm" + std::to_string(d) + "', 5000);");
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
    session_.DeclareWorkload(
        {SingleModifyTxn(">Emp", "Emp", {"Salary"}, 2),
         SingleModifyTxn(">Dept", "Dept", {"Budget"}, 1)});
    Status prepared = session_.Prepare();
    ASSERT_TRUE(prepared.ok()) << prepared.ToString();
  }

  Session session_;
};

TEST_F(SessionTest, PrepareMaterializesViewsAndAssertions) {
  EXPECT_TRUE(session_.prepared());
  auto sums = session_.ViewContents("SumOfSals");
  ASSERT_TRUE(sums.ok());
  EXPECT_EQ(sums->total_count(), 4);
  auto checks = session_.CheckAssertions();
  ASSERT_TRUE(checks.ok());
  ASSERT_EQ(checks->size(), 1u);
  EXPECT_TRUE((*checks)[0].holds);
}

TEST_F(SessionTest, SelectFromMaintainedViewServesMaterialized) {
  auto result = session_.Execute("SELECT * FROM SumOfSals;");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->rows.has_value());
  EXPECT_EQ(result->rows->total_count(), 4);
}

TEST_F(SessionTest, UpdateMaintainsViews) {
  auto result =
      session_.Execute("UPDATE Emp SET Salary = 2000 WHERE EName = 'd1e0';");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->affected, 1);
  EXPECT_FALSE(result->rejected());
  auto sums = session_.ViewContents("SumOfSals");
  ASSERT_TRUE(sums.ok());
  bool found = false;
  for (const auto& [row, count] : sums->rows()) {
    (void)count;
    if (row[0].str() == "d1") {
      EXPECT_EQ(row[1].int64(), 2000 + 1010 + 1020);
      found = true;
    }
  }
  EXPECT_TRUE(found);
  EXPECT_TRUE(session_.CheckConsistency().ok());
}

TEST_F(SessionTest, InsertAndDeleteMaintainViews) {
  ASSERT_TRUE(
      session_.Execute("INSERT INTO Emp VALUES ('new1', 'd0', 500);").ok());
  auto sums = session_.ViewContents("SumOfSals");
  ASSERT_TRUE(sums.ok());
  for (const auto& [row, count] : sums->rows()) {
    (void)count;
    if (row[0].str() == "d0") EXPECT_EQ(row[1].int64(), 3030 + 500);
  }
  ASSERT_TRUE(
      session_.Execute("DELETE FROM Emp WHERE EName = 'new1';").ok());
  EXPECT_TRUE(session_.CheckConsistency().ok());
}

TEST_F(SessionTest, ViolatingUpdateIsRolledBack) {
  // Raising one salary past the budget violates DeptConstraint.
  auto result =
      session_.Execute("UPDATE Emp SET Salary = 99999 WHERE EName = 'd2e0';");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->rejected());
  EXPECT_EQ(result->violated_assertion, "DeptConstraint");
  EXPECT_EQ(result->affected, 0);
  // The database is unchanged and consistent.
  auto rows = session_.Execute("SELECT * FROM Emp WHERE EName = 'd2e0';");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows->SortedRows()[0].first[2].int64(), 1000);
  EXPECT_TRUE(session_.CheckConsistency().ok());
  auto checks = session_.CheckAssertions();
  ASSERT_TRUE(checks.ok());
  EXPECT_TRUE((*checks)[0].holds);
}

TEST_F(SessionTest, ViolatingBudgetCutIsRolledBack) {
  auto result =
      session_.Execute("UPDATE Dept SET Budget = 10 WHERE DName = 'd3';");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->rejected());
  auto rows = session_.Execute("SELECT * FROM Dept WHERE DName = 'd3';");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows->SortedRows()[0].first[2].int64(), 5000);
}

TEST_F(SessionTest, NonViolatingBudgetCutSucceeds) {
  auto result =
      session_.Execute("UPDATE Dept SET Budget = 4000 WHERE DName = 'd3';");
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->rejected());
  EXPECT_TRUE(session_.CheckConsistency().ok());
}

TEST_F(SessionTest, MultiRowUpdate) {
  auto result = session_.Execute("UPDATE Emp SET Salary = Salary + 1 "
                                 "WHERE DName = 'd0';");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->affected, 3);
  EXPECT_TRUE(session_.CheckConsistency().ok());
}

TEST_F(SessionTest, DeleteWholeDepartment) {
  auto result = session_.Execute("DELETE FROM Emp WHERE DName = 'd2';");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->affected, 3);
  auto sums = session_.ViewContents("SumOfSals");
  ASSERT_TRUE(sums.ok());
  EXPECT_EQ(sums->total_count(), 3);  // the d2 group vanished
  EXPECT_TRUE(session_.CheckConsistency().ok());
}

// SELECT * FROM <view> answers from the view's materialized table, which
// is stored under another name; columns qualified with the view's name and
// predicates on the aggregate column must still resolve — on the serial
// path, on snapshot reads and in a TxnSession.
TEST_F(SessionTest, ViewReadsResolveQualifiedAndAggregateColumns) {
  ASSERT_TRUE(
      session_.Execute("UPDATE Emp SET Salary = 10 WHERE EName = 'd2e0';")
          .ok());
  using Exec = std::function<StatusOr<ExecResult>(const std::string&)>;
  auto check = [](const Exec& exec, const std::string& mode) {
    auto keyed = exec("SELECT * FROM SumOfSals WHERE SumOfSals.DName = 'd0';");
    ASSERT_TRUE(keyed.ok()) << mode << ": " << keyed.status().ToString();
    EXPECT_EQ(keyed->rows->total_count(), 1) << mode;
    EXPECT_EQ(keyed->rows->CountOf({Value::String("d0"), Value::Int64(3030)}),
              1)
        << mode << ": " << keyed->rows->ToString();
    auto agg = exec("SELECT * FROM SumOfSals WHERE SalSum > 3000;");
    ASSERT_TRUE(agg.ok()) << mode << ": " << agg.status().ToString();
    EXPECT_EQ(agg->rows->total_count(), 3) << mode;  // d2 sums to 2040
    auto both = exec(
        "SELECT * FROM SumOfSals WHERE SumOfSals.SalSum > 3000 AND "
        "DName <> 'd1';");
    ASSERT_TRUE(both.ok()) << mode << ": " << both.status().ToString();
    EXPECT_EQ(both->rows->total_count(), 2) << mode;
  };
  check([&](const std::string& sql) { return session_.Execute(sql); },
        "serial");
  ASSERT_TRUE(session_.EnableConcurrency().ok());
  check([&](const std::string& sql) { return session_.Execute(sql); },
        "snapshot");
  auto txn = session_.OpenSession();
  ASSERT_TRUE(txn.ok()) << txn.status().ToString();
  check([&](const std::string& sql) { return (*txn)->Execute(sql); },
        "TxnSession");
}

TEST_F(SessionTest, PlanPrefersSumOfSalsSharing) {
  // SumOfSals is itself a maintained root, so the assertion's maintenance
  // reuses it; the joint plan's cost must be at most the sum of the costs
  // of maintaining each root alone.
  EXPECT_GE(session_.plan().views.size(), 2u);
  EXPECT_GT(session_.plan().weighted_cost, 0);
}

TEST_F(SessionTest, ErrorsSurfaceCleanly) {
  EXPECT_FALSE(session_.Execute("INSERT INTO Nope VALUES (1);").ok());
  EXPECT_FALSE(session_.Execute("UPDATE Emp SET Ghost = 1;").ok());
  EXPECT_FALSE(session_.Execute("CREATE TABLE Late (x INT);").ok());
  EXPECT_FALSE(session_.Execute("INSERT INTO Emp VALUES (1);").ok());
  EXPECT_FALSE(session_.ViewContents("Nope").ok());
}

TEST(SessionPrepareTest, RequiresViewsOrAssertions) {
  Session session;
  ASSERT_TRUE(session.Execute("CREATE TABLE T (x INT PRIMARY KEY);").ok());
  EXPECT_EQ(session.Prepare().code(), StatusCode::kFailedPrecondition);
}

TEST(SessionPrepareTest, DefaultWorkloadDerived) {
  Session session;
  ASSERT_TRUE(session
                  .Execute("CREATE TABLE T (x INT PRIMARY KEY, g INT, "
                           "v INT, INDEX (g));"
                           "CREATE VIEW V (g, s) AS "
                           "SELECT g, SUM(v) FROM T GROUPBY g;")
                  .ok());
  ASSERT_TRUE(session.Execute("INSERT INTO T VALUES (1, 1, 10), (2, 1, 20), "
                              "(3, 2, 30);")
                  .ok());
  Status prepared = session.Prepare();
  ASSERT_TRUE(prepared.ok()) << prepared.ToString();
  auto v = session.ViewContents("V");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->total_count(), 2);
  ASSERT_TRUE(session.Execute("UPDATE T SET v = 11 WHERE x = 1;").ok());
  EXPECT_TRUE(session.CheckConsistency().ok());
}

}  // namespace
}  // namespace auxview
