// Point access differential tests.
//
// 1. dml::MatchingRows routes `column = literal` conjuncts through a hash
//    index and filters every candidate with the full WHERE; it must return
//    exactly the bag a brute-force filter of the whole table returns, for
//    every WHERE shape, on the tables of all four workloads, without
//    charging a page I/O.
// 2. SELECT * FROM <maintained view> [WHERE ...] answers from the view's
//    materialized table; it must equal the inlined recompute spelled
//    SELECT <cols> FROM <view> [WHERE ...] on a serial Session, on snapshot
//    reads, and in a TxnSession with and without staged writes.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "api/dml_util.h"
#include "api/session.h"
#include "api/txn_session.h"
#include "parser/parser.h"
#include "storage/database.h"
#include "workload/chain.h"
#include "workload/emp_dept.h"
#include "workload/fig5.h"
#include "workload/star.h"

namespace auxview {
namespace {

SqlExpr::Ptr ParseWhere(const std::string& table, const std::string& cond) {
  auto stmts = ParseSql("SELECT * FROM " + table + " WHERE " + cond + ";");
  EXPECT_TRUE(stmts.ok()) << cond << ": " << stmts.status().ToString();
  if (!stmts.ok()) return nullptr;
  return (*stmts)[0].select->where;
}

/// Sorted "row xcount" lines — a bag in comparable form.
std::vector<std::string> Bag(const std::vector<CountedRow>& rows) {
  std::vector<std::string> out;
  for (const CountedRow& cr : rows) {
    out.push_back(RowToString(cr.row) + " x" + std::to_string(cr.count));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The oracle: every row of the table, filtered by the full predicate.
std::vector<CountedRow> BruteForce(const Table& table,
                                   const SqlExpr::Ptr& where) {
  Scalar::Ptr pred;
  if (where != nullptr) {
    auto scalar = dml::ToTableScalar(where, table.name(), table.schema());
    EXPECT_TRUE(scalar.ok()) << scalar.status().ToString();
    pred = *scalar;
  }
  std::vector<CountedRow> out;
  for (const CountedRow& cr : table.SnapshotUncharged()) {
    if (pred != nullptr) {
      auto v = pred->Eval(cr.row, table.schema());
      EXPECT_TRUE(v.ok()) << v.status().ToString();
      if (v->is_null() || !v->boolean()) continue;
    }
    out.push_back(cr);
  }
  return out;
}

/// WHERE conditions covering every shape the matcher distinguishes, built
/// from values present in `table`.
std::vector<std::string> Shapes(const Table& table) {
  const TableDef& def = table.def();
  const Schema& schema = table.schema();
  std::vector<CountedRow> rows = table.SnapshotUncharged();
  std::sort(rows.begin(), rows.end(),
            [](const CountedRow& a, const CountedRow& b) {
              return RowToString(a.row) < RowToString(b.row);
            });
  EXPECT_GE(rows.size(), 2u) << table.name();
  const Row& r = rows[rows.size() / 2].row;
  const Row& r2 = rows[rows.size() / 3].row;
  auto col = [&](const std::string& name) { return schema.IndexOf(name); };
  auto lit = [&](const Row& row, int c) {
    return row[static_cast<size_t>(c)].ToString();
  };
  auto eq = [&](const std::string& name, const Row& row) {
    return name + " = " + lit(row, col(name));
  };

  const std::string pk =
      def.primary_key.empty() ? schema.column(0).name : def.primary_key[0];
  std::string secondary;
  for (const IndexDef& idx : def.indexes) {
    if (idx.attrs.size() == 1 && idx.attrs[0] != pk) {
      secondary = idx.attrs[0];
      break;
    }
  }
  const std::string routed = secondary.empty() ? pk : secondary;
  std::string unindexed;
  std::string other = routed;  // another column, when the table has one
  for (int c = 0; c < schema.num_columns(); ++c) {
    const std::string& name = schema.column(c).name;
    if (name != routed && other == routed) other = name;
    bool indexed = name == pk;
    for (const IndexDef& idx : def.indexes) {
      indexed = indexed || std::find(idx.attrs.begin(), idx.attrs.end(),
                                     name) != idx.attrs.end();
    }
    if (!indexed && unindexed.empty()) unindexed = name;
  }

  std::vector<std::string> shapes = {
      eq(pk, r),                                              // primary key
      eq(routed, r),                                          // secondary
      eq(routed, r) + " AND " + other + " <> " + lit(r, col(other)),
      eq(routed, r) + " AND " + other + " >= " + lit(r2, col(other)),
      routed + " = NULL",                                     // NULL literal
      eq(routed, r) + " AND " + eq(routed, r2),               // a=1 AND a=2
      eq(routed, r) + " AND " + eq(routed, r),                // repeated
      eq(pk, r) + " OR " + eq(pk, r2),                        // OR
      lit(r, col(routed)) + " = " + routed,                   // literal first
      table.name() + "." + eq(routed, r),                     // qualified
      "NOT " + eq(routed, r),
      eq(pk, r) + " AND " + eq(other, r),                     // two routed
  };
  if (!unindexed.empty()) {
    shapes.push_back(eq(unindexed, r));
    shapes.push_back(eq(routed, r) + " AND " + eq(unindexed, r));
  }
  // A literal of another type: a string on an integer column (and vice
  // versa) never coerces, so it cannot route and matches nothing.
  const bool routed_is_string =
      schema.column(col(routed)).type == ValueType::kString;
  shapes.push_back(routed + (routed_is_string ? " = 7" : " = 'x'"));
  shapes.push_back(eq(pk, r) + " AND " + routed +
                   (routed_is_string ? " = 7" : " = 'x'"));
  return shapes;
}

void ExpectIndexPathMatchesScan(Database* db) {
  db->counter().set_enabled(true);
  const int64_t charged_before = db->counter().total();
  for (const std::string& name : db->TableNames()) {
    const Table* table = db->FindTable(name);
    ASSERT_NE(table, nullptr);
    std::vector<std::string> shapes = Shapes(*table);
    std::vector<SqlExpr::Ptr> wheres = {nullptr};  // no WHERE at all
    for (const std::string& shape : shapes) {
      wheres.push_back(ParseWhere(name, shape));
    }
    for (size_t i = 0; i < wheres.size(); ++i) {
      const std::string label =
          name + (i == 0 ? " (no WHERE)" : " WHERE " + shapes[i - 1]);
      auto counted = dml::MatchingCountedRows(*table, wheres[i], name);
      ASSERT_TRUE(counted.ok()) << label << ": " << counted.status().ToString();
      EXPECT_EQ(Bag(*counted), Bag(BruteForce(*table, wheres[i]))) << label;
      auto rows = dml::MatchingRows(*table, wheres[i]);
      ASSERT_TRUE(rows.ok()) << label;
      ASSERT_EQ(rows->size(), counted->size()) << label;
      for (size_t k = 0; k < rows->size(); ++k) {
        EXPECT_TRUE(RowEq()((*rows)[k], (*counted)[k].row)) << label;
      }
    }
  }
  EXPECT_EQ(db->counter().total(), charged_before)
      << "row matching must stay uncharged";
}

TEST(PointAccessTest, IndexPathMatchesScanEmpDept) {
  EmpDeptConfig config;
  config.num_depts = 40;
  config.emps_per_dept = 5;
  config.with_adepts = true;
  config.num_adepts = 10;
  EmpDeptWorkload w(config);
  Database db;
  ASSERT_TRUE(w.Populate(&db).ok());
  ExpectIndexPathMatchesScan(&db);
}

TEST(PointAccessTest, IndexPathMatchesScanFig5) {
  Fig5Config config;
  config.num_items = 30;
  Fig5Workload w(config);
  Database db;
  ASSERT_TRUE(w.Populate(&db).ok());
  ExpectIndexPathMatchesScan(&db);
}

TEST(PointAccessTest, IndexPathMatchesScanStar) {
  StarConfig config;
  config.fact_rows = 300;
  config.dim_rows = 20;
  StarWorkload w(config);
  Database db;
  ASSERT_TRUE(w.Populate(&db).ok());
  ExpectIndexPathMatchesScan(&db);
}

TEST(PointAccessTest, IndexPathMatchesScanChain) {
  ChainConfig config;
  config.rows_per_relation = 200;
  ChainWorkload w(config);
  Database db;
  ASSERT_TRUE(w.Populate(&db).ok());
  ExpectIndexPathMatchesScan(&db);
}

// Coercion and multiplicities, which the workloads' tables do not have:
// an INT literal on an indexed DOUBLE column, a DOUBLE literal on an INT
// column, and duplicate rows.
TEST(PointAccessTest, IndexPathCoercesLiteralsAndKeepsMultiplicities) {
  Database db;
  TableDef def;
  def.name = "P";
  def.schema = Schema::Create({{"Id", ValueType::kInt64},
                               {"Price", ValueType::kDouble},
                               {"Tag", ValueType::kString}})
                   .value();
  def.indexes = {IndexDef{{"Price"}}, IndexDef{{"Id"}}};
  auto table = db.CreateTable(def);
  ASSERT_TRUE(table.ok());
  {
    ScopedCountingDisabled guard(&db.counter());
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE((*table)
                      ->Insert({Value::Int64(i % 10),
                                Value::Double(static_cast<double>(i % 4)),
                                Value::String(i % 3 == 0 ? "a" : "b")},
                               1 + i % 2)
                      .ok());
    }
    ASSERT_TRUE(
        (*table)->Insert({Value::Int64(99), Value::Null(), Value::Null()}).ok());
  }
  db.counter().set_enabled(true);
  const int64_t charged_before = db.counter().total();
  for (const std::string shape :
       {"Price = 2", "Price = 2.0", "Price = 2.5", "Id = 3.0", "Id = 3.5",
        "Price = 1 AND Id = 5", "Price = 1 AND Tag = 'b'", "Price = NULL",
        "Tag = 'a' AND Price = 3 AND Price = 3.0", "Id + 1 = 4",
        "Price = 2 AND Price = 3", "Tag = 'b' OR Price = 0"}) {
    SqlExpr::Ptr where = ParseWhere("P", shape);
    auto counted = dml::MatchingCountedRows(**table, where, "P");
    ASSERT_TRUE(counted.ok()) << shape << ": " << counted.status().ToString();
    EXPECT_EQ(Bag(*counted), Bag(BruteForce(**table, where))) << shape;
  }
  EXPECT_EQ(db.counter().total(), charged_before);
  // A qualifier other than the table's (or the name it is read under) is
  // still an error, index path or not.
  auto wrong = dml::MatchingRows(**table, ParseWhere("P", "Q.Id = 1"));
  EXPECT_FALSE(wrong.ok());
}

// ---------------------------------------------------------------------------
// View reads

struct ViewCase {
  std::string view;
  std::string columns;  // the explicit SELECT list naming every column
  std::vector<std::string> wheres;  // "" = no WHERE
};

constexpr char kEmpDeptDdl[] = R"sql(
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

void LoadEmpDept(Session* session) {
  ASSERT_TRUE(session->Execute(kEmpDeptDdl).ok());
  for (int d = 0; d < 6; ++d) {
    const std::string dname = "d" + std::to_string(d);
    for (int k = 0; k < 4; ++k) {
      auto r = session->Execute("INSERT INTO Emp VALUES ('" + dname + "e" +
                                std::to_string(k) + "', '" + dname + "', " +
                                std::to_string(1000 + 100 * d + k) + ");");
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
    auto r = session->Execute("INSERT INTO Dept VALUES ('" + dname + "', 'm" +
                              std::to_string(d) + "', 100000);");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  session->DeclareWorkload({SingleModifyTxn(">Emp", "Emp", {"Salary"}, 2),
                            SingleModifyTxn(">Dept", "Dept", {"Budget"}, 1)});
  Status prepared = session->Prepare();
  ASSERT_TRUE(prepared.ok()) << prepared.ToString();
}

const std::vector<ViewCase>& EmpDeptViews() {
  static const std::vector<ViewCase> cases = {
      {"SumOfSals",
       "DName, SalSum",
       {"", "DName = 'd1'", "SumOfSals.DName = 'd1'", "'d2' = DName",
        "SalSum > 4500", "DName = 'd1' AND SalSum > 0",
        "DName = 'd1' AND SalSum < 0", "DName = 'd1' OR DName = 'd3'",
        "DName = 'd1' AND DName = 'd2'", "DName = 'nope'", "DName = NULL",
        "DName = 7", "NOT DName = 'd4'"}}};
  return cases;
}

constexpr char kStarDdl[] = R"sql(
CREATE TABLE Fact (FId INT PRIMARY KEY, D1 INT, D2 INT, D3 INT, M INT,
                   INDEX (D1), INDEX (D2), INDEX (D3));
CREATE TABLE Dim1 (D1 INT PRIMARY KEY, A1 INT);
CREATE TABLE Dim2 (D2 INT PRIMARY KEY, A2 INT);
CREATE TABLE Dim3 (D3 INT PRIMARY KEY, A3 INT);
CREATE VIEW ByA1 (A1, Total) AS
  SELECT A1, SUM(M) FROM Fact, Dim1 WHERE Fact.D1 = Dim1.D1 GROUPBY A1;
CREATE VIEW ByA1A2 (A1, A2, Total) AS
  SELECT A1, A2, SUM(M) FROM Fact, Dim1, Dim2
  WHERE Fact.D1 = Dim1.D1 AND Fact.D2 = Dim2.D2 GROUPBY A1, A2;
CREATE VIEW ByA3 (A3, Total) AS
  SELECT A3, SUM(M) FROM Fact, Dim3 WHERE Fact.D3 = Dim3.D3 GROUPBY A3;
CREATE ASSERTION CapA2 CHECK
  (NOT EXISTS (SELECT A2 FROM Fact, Dim2 WHERE Fact.D2 = Dim2.D2
               GROUPBY A2 HAVING SUM(M) > 100000000));
)sql";

void LoadStar(Session* session) {
  ASSERT_TRUE(session->Execute(kStarDdl).ok());
  constexpr int kDimRows = 12;
  for (int dim = 1; dim <= 3; ++dim) {
    std::string sql = "INSERT INTO Dim" + std::to_string(dim) + " VALUES ";
    for (int d = 0; d < kDimRows; ++d) {
      if (d > 0) sql += ", ";
      sql += "(" + std::to_string(d) + ", " + std::to_string((d * dim) % 5) +
             ")";
    }
    ASSERT_TRUE(session->Execute(sql + ";").ok());
  }
  std::string sql = "INSERT INTO Fact VALUES ";
  for (int f = 0; f < 150; ++f) {
    if (f > 0) sql += ", ";
    sql += "(" + std::to_string(f) + ", " + std::to_string(f % kDimRows) +
           ", " + std::to_string((f / 3) % kDimRows) + ", " +
           std::to_string((f * 7) % kDimRows) + ", " +
           std::to_string(1 + f % 17) + ")";
  }
  ASSERT_TRUE(session->Execute(sql + ";").ok());
  session->DeclareWorkload(
      {SingleModifyTxn(">Fact", "Fact", {"M"}, 4),
       SingleModifyTxn(">Dim1", "Dim1", {"A1"}, 1)});
  Status prepared = session->Prepare();
  ASSERT_TRUE(prepared.ok()) << prepared.ToString();
}

const std::vector<ViewCase>& StarViews() {
  static const std::vector<ViewCase> cases = {
      {"ByA1",
       "A1, Total",
       {"", "A1 = 3", "ByA1.A1 = 3", "A1 = 3.0", "A1 = 3.5", "Total > 150",
        "A1 = 2 OR A1 = 4", "A1 = 2 AND Total > 0", "A1 = 99"}},
      {"ByA1A2",
       "A1, A2, Total",
       {"", "A1 = 1 AND A2 = 2", "A2 = 2 AND A1 = 1", "A1 = 1", "A2 = 3",
        "ByA1A2.A1 = 0 AND ByA1A2.A2 = 0", "A1 = 1 AND A2 = 2 AND Total > 10",
        "A1 = 1 AND A1 = 2"}},
      {"ByA3", "A3, Total", {"", "A3 = 4", "Total < 200", "A3 = NULL"}}};
  return cases;
}

using Exec = std::function<StatusOr<ExecResult>(const std::string&)>;

/// Every WHERE of every case: SELECT * equals the explicit column list.
void ExpectViewReadsMatchInlined(const std::vector<ViewCase>& cases,
                                 const Exec& exec, const std::string& mode) {
  for (const ViewCase& c : cases) {
    for (const std::string& where : c.wheres) {
      const std::string tail =
          " FROM " + c.view + (where.empty() ? "" : " WHERE " + where) + ";";
      auto star = exec("SELECT *" + tail);
      auto cols = exec("SELECT " + c.columns + tail);
      ASSERT_TRUE(star.ok()) << mode << tail << ": "
                             << star.status().ToString();
      ASSERT_TRUE(cols.ok()) << mode << tail << ": "
                             << cols.status().ToString();
      EXPECT_TRUE(star->rows->BagEquals(*cols->rows))
          << mode << tail << "\n  SELECT *: " << star->rows->ToString()
          << "\n  columns:  " << cols->rows->ToString();
    }
  }
}

void ExpectAllModes(void (*load)(Session*),
                    const std::vector<ViewCase>& cases,
                    const std::vector<std::string>& untouched_writes,
                    const std::vector<std::string>& touching_writes) {
  Session session;
  load(&session);
  Exec serial = [&](const std::string& sql) { return session.Execute(sql); };
  ExpectViewReadsMatchInlined(cases, serial, "serial");

  ASSERT_TRUE(session.EnableConcurrency().ok());
  ExpectViewReadsMatchInlined(cases, serial, "snapshot");

  auto opened = session.OpenSession();
  ASSERT_TRUE(opened.ok());
  TxnSession& txn = **opened;
  Exec staged = [&](const std::string& sql) { return txn.Execute(sql); };
  ExpectViewReadsMatchInlined(cases, staged, "txn clean");
  for (const std::string& sql : untouched_writes) {
    auto r = txn.Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  }
  ExpectViewReadsMatchInlined(cases, staged, "txn, unrelated writes staged");
  for (const std::string& sql : touching_writes) {
    auto r = txn.Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    EXPECT_GT(r->affected, 0) << sql;
  }
  ExpectViewReadsMatchInlined(cases, staged, "txn, view inputs staged");
  auto outcome = txn.Commit();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_TRUE(outcome->committed()) << outcome->detail;
  ExpectViewReadsMatchInlined(cases, staged, "txn after commit");
  ExpectViewReadsMatchInlined(cases, serial, "snapshot after commit");
  EXPECT_TRUE(session.CheckConsistency().ok());
}

TEST(PointAccessTest, ViewReadsMatchInlinedEmpDept) {
  ExpectAllModes(
      LoadEmpDept, EmpDeptViews(),
      {"UPDATE Dept SET Budget = 90000 WHERE DName = 'd1';"},
      {"UPDATE Emp SET Salary = Salary + 500 WHERE DName = 'd1';",
       "DELETE FROM Emp WHERE EName = 'd3e0';",
       "INSERT INTO Emp VALUES ('d9e0', 'd9', 10);"});
}

TEST(PointAccessTest, ViewReadsMatchInlinedStarRollups) {
  ExpectAllModes(
      LoadStar, StarViews(),
      {"UPDATE Dim3 SET A3 = 1 WHERE D3 = 2;"},
      {"UPDATE Fact SET M = M + 40 WHERE D1 = 3;",
       "UPDATE Dim1 SET A1 = 4 WHERE D1 = 5;",
       "DELETE FROM Fact WHERE D2 = 7 AND M > 5;"});
}

}  // namespace
}  // namespace auxview
