#include "workload.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "trace.h"

namespace e2ebench {

namespace {

using auxview::Rng;
using auxview::TransactionType;
using auxview::UpdateKind;
using auxview::UpdateSpec;

constexpr int64_t kMinSalary = 1000;
constexpr int64_t kMaxSalary = 5000;
constexpr int64_t kMinBudget = 200000;
constexpr int64_t kMaxBudget = 300000;
constexpr int64_t kViolatingSalary = 9000000;
constexpr int64_t kViolatingBudget = 10;
/// Rows per bulk-load INSERT statement.
constexpr int kLoadBatch = 1000;

std::string Quote(const std::string& s) { return "'" + s + "'"; }

Unit Write(std::string sql, bool expect_reject = false) {
  return Unit{false, {std::move(sql)}, expect_reject};
}

Unit Read(std::string sql) { return Unit{true, {std::move(sql)}, false}; }

/// Seeded Fisher-Yates shuffle.
void Shuffle(std::vector<char>* ops, Rng* rng) {
  for (size_t i = ops->size(); i > 1; --i) {
    const size_t j = static_cast<size_t>(rng->Uniform(0, static_cast<int64_t>(i) - 1));
    std::swap((*ops)[i - 1], (*ops)[j]);
  }
}

/// The op letters of one block, `count` of each.
std::vector<char> Ops(const std::vector<std::pair<char, int>>& mix) {
  std::vector<char> ops;
  for (const auto& [op, count] : mix) ops.insert(ops.end(), count, op);
  return ops;
}

/// A value in [lo, hi] different from `old`.
int64_t Different(Rng* rng, int64_t lo, int64_t hi, int64_t old) {
  int64_t v = rng->Uniform(lo, hi);
  while (v == old) v = rng->Uniform(lo, hi);
  return v;
}

std::vector<std::string> Batched(const std::string& table,
                                 const std::vector<std::string>& tuples) {
  std::vector<std::string> out;
  for (size_t i = 0; i < tuples.size(); i += kLoadBatch) {
    std::string sql = "INSERT INTO " + table + " VALUES ";
    const size_t end = std::min(tuples.size(), i + kLoadBatch);
    for (size_t j = i; j < end; ++j) {
      if (j > i) sql += ", ";
      sql += tuples[j];
    }
    out.push_back(sql + ";");
  }
  return out;
}

}  // namespace

// ----------------------------------------------------------------------------
// Emp/Dept

EmpDeptWorkload::EmpDeptWorkload(int depts, uint64_t seed)
    : depts_(depts), rng_(seed * 2 + 1) {
  Rng data(seed);
  for (int d = 0; d < depts_; ++d) {
    budgets_["d" + std::to_string(d)] = data.Uniform(kMinBudget, kMaxBudget);
  }
  for (int e = 0; e < emps(); ++e) {
    emps_["e" + std::to_string(e)] =
        Emp{"d" + std::to_string(e / kEmpsPerDept),
            data.Uniform(kMinSalary, kMaxSalary), true};
  }
}

std::string EmpDeptWorkload::Ddl() const {
  return R"sql(
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
}

std::vector<std::string> EmpDeptWorkload::LoadStatements() const {
  std::vector<std::string> dept_rows;
  for (int d = 0; d < depts_; ++d) {
    const std::string name = "d" + std::to_string(d);
    dept_rows.push_back("(" + Quote(name) + ", " +
                        Quote("m" + std::to_string(d)) + ", " +
                        std::to_string(budgets_.at(name)) + ")");
  }
  std::vector<std::string> emp_rows;
  for (int e = 0; e < emps(); ++e) {
    const std::string name = "e" + std::to_string(e);
    const Emp& emp = emps_.at(name);
    emp_rows.push_back("(" + Quote(name) + ", " + Quote(emp.dept) + ", " +
                       std::to_string(emp.salary) + ")");
  }
  std::vector<std::string> out = Batched("Dept", dept_rows);
  for (std::string& sql : Batched("Emp", emp_rows)) {
    out.push_back(std::move(sql));
  }
  return out;
}

std::vector<TransactionType> EmpDeptWorkload::DeclaredTxns() const {
  return {auxview::SingleModifyTxn(">Emp", "Emp", {"Salary"}, 5),
          auxview::SingleModifyTxn(">Dept", "Dept", {"Budget"}, 1),
          TransactionType{"+Emp", 1, {UpdateSpec{"Emp", UpdateKind::kInsert, 1, {}, {}}}},
          TransactionType{"-Emp", 1, {UpdateSpec{"Emp", UpdateKind::kDelete, 1, {}, {}}}}};
}

std::string EmpDeptWorkload::RandomEmpName(Rng& rng) const {
  return "e" + std::to_string(rng.Uniform(0, emps() - 1));
}

std::string EmpDeptWorkload::RandomPresentEmp(Rng& rng) const {
  std::string name = RandomEmpName(rng);
  while (!emps_.at(name).present) name = RandomEmpName(rng);
  return name;
}

std::string EmpDeptWorkload::RandomDept(Rng& rng) const {
  return "d" + std::to_string(rng.Uniform(0, depts_ - 1));
}

std::vector<Unit> EmpDeptWorkload::NextBlock() {
  // Per block: 25 writes (2 of them assertion violations), 15 point reads,
  // then the inverse writes.
  std::vector<char> ops = Ops({{'U', 14}, {'B', 5}, {'V', 1}, {'W', 1},
                               {'I', 2}, {'D', 2}, {'R', 11}, {'S', 4}});
  Shuffle(&ops, &rng_);
  std::vector<Unit> out;
  std::vector<Unit> inverse;
  std::vector<std::function<void()>> undo;
  int inserted = 0;
  for (char op : ops) {
    switch (op) {
      case 'U': {
        const std::string name = RandomPresentEmp(rng_);
        Emp& emp = emps_.at(name);
        const int64_t old = emp.salary;
        const int64_t v = Different(&rng_, kMinSalary, kMaxSalary, old);
        out.push_back(Write("UPDATE Emp SET Salary = " + std::to_string(v) +
                            " WHERE EName = " + Quote(name) + ";"));
        inverse.push_back(Write("UPDATE Emp SET Salary = " +
                                std::to_string(old) + " WHERE EName = " +
                                Quote(name) + ";"));
        emp.salary = v;
        undo.push_back([this, name, old] { emps_.at(name).salary = old; });
        break;
      }
      case 'B': {
        const std::string dept = RandomDept(rng_);
        const int64_t old = budgets_.at(dept);
        const int64_t v = Different(&rng_, kMinBudget, kMaxBudget, old);
        out.push_back(Write("UPDATE Dept SET Budget = " + std::to_string(v) +
                            " WHERE DName = " + Quote(dept) + ";"));
        inverse.push_back(Write("UPDATE Dept SET Budget = " +
                                std::to_string(old) + " WHERE DName = " +
                                Quote(dept) + ";"));
        budgets_[dept] = v;
        undo.push_back([this, dept, old] { budgets_[dept] = old; });
        break;
      }
      case 'V':
        out.push_back(Write("UPDATE Emp SET Salary = " +
                                std::to_string(kViolatingSalary) +
                                " WHERE EName = " +
                                Quote(RandomPresentEmp(rng_)) + ";",
                            /*expect_reject=*/true));
        break;
      case 'W':
        out.push_back(Write("UPDATE Dept SET Budget = " +
                                std::to_string(kViolatingBudget) +
                                " WHERE DName = " + Quote(RandomDept(rng_)) +
                                ";",
                            /*expect_reject=*/true));
        break;
      case 'I': {
        const std::string name =
            "n" + std::to_string(block_) + "_" + std::to_string(inserted++);
        const std::string dept = RandomDept(rng_);
        const int64_t salary = rng_.Uniform(kMinSalary, kMaxSalary);
        out.push_back(Write("INSERT INTO Emp VALUES (" + Quote(name) + ", " +
                            Quote(dept) + ", " + std::to_string(salary) +
                            ");"));
        inverse.push_back(
            Write("DELETE FROM Emp WHERE EName = " + Quote(name) + ";"));
        emps_[name] = Emp{dept, salary, true};
        undo.push_back([this, name] { emps_.erase(name); });
        break;
      }
      case 'D': {
        const std::string name = RandomPresentEmp(rng_);
        Emp& emp = emps_.at(name);
        out.push_back(
            Write("DELETE FROM Emp WHERE EName = " + Quote(name) + ";"));
        inverse.push_back(Write("INSERT INTO Emp VALUES (" + Quote(name) +
                                ", " + Quote(emp.dept) + ", " +
                                std::to_string(emp.salary) + ");"));
        emp.present = false;
        undo.push_back([this, name] { emps_.at(name).present = true; });
        break;
      }
      case 'R':
        out.push_back(Read("SELECT * FROM Emp WHERE EName = " +
                           Quote(RandomEmpName(rng_)) + ";"));
        break;
      case 'S':
        out.push_back(Read("SELECT * FROM SumOfSals WHERE DName = " +
                           Quote(RandomDept(rng_)) + ";"));
        break;
    }
  }
  for (auto it = inverse.rbegin(); it != inverse.rend(); ++it) {
    out.push_back(std::move(*it));
  }
  for (auto it = undo.rbegin(); it != undo.rend(); ++it) (*it)();
  ++block_;
  return out;
}

uint64_t EmpDeptWorkload::ModelDigest() const {
  std::string bytes;
  for (const auto& [name, emp] : emps_) {
    bytes += name + "," + emp.dept + "," + std::to_string(emp.salary) +
             (emp.present ? "+" : "-") + ";";
  }
  for (const auto& [dept, budget] : budgets_) {
    bytes += dept + "=" + std::to_string(budget) + ";";
  }
  return Fnv1a(bytes);
}

EmpDeptTxnStream::EmpDeptTxnStream(const EmpDeptWorkload& workload, int writer,
                                   uint64_t seed)
    : depts_(workload.depts()),
      emps_(workload.emps()),
      writer_(writer),
      rng_(seed * 1000003 + static_cast<uint64_t>(writer) * 7919 + 17) {}

std::string EmpDeptTxnStream::Emp() {
  return Quote("e" + std::to_string(rng_.Uniform(0, emps_ - 1)));
}

std::string EmpDeptTxnStream::SafeSalaryUpdate() {
  return "UPDATE Emp SET Salary = " +
         std::to_string(rng_.Uniform(kMinSalary, kMaxSalary)) +
         " WHERE EName = " + Emp() + ";";
}

Unit EmpDeptTxnStream::Next() {
  const auto budget_update = [this] {
    return "UPDATE Dept SET Budget = " +
           std::to_string(rng_.Uniform(kMinBudget, kMaxBudget)) +
           " WHERE DName = " +
           Quote("d" + std::to_string(rng_.Uniform(0, depts_ - 1))) + ";";
  };
  const auto insert = [this] {
    const std::string name =
        "w" + std::to_string(writer_) + "_" + std::to_string(inserted_++);
    alive_.push_back(name);
    return "INSERT INTO Emp VALUES (" + Quote(name) + ", " +
           Quote("d" + std::to_string(rng_.Uniform(0, depts_ - 1))) + ", " +
           std::to_string(rng_.Uniform(kMinSalary, kMaxSalary)) + ");";
  };
  const auto remove = [this] {
    const std::string name = alive_.front();
    alive_.pop_front();
    return "DELETE FROM Emp WHERE EName = " + Quote(name) + ";";
  };
  Unit unit;
  const int64_t r = rng_.Uniform(0, 99);
  if (r < 45) {
    unit.statements = {SafeSalaryUpdate(), SafeSalaryUpdate()};
  } else if (r < 70) {
    unit.statements = {SafeSalaryUpdate(), budget_update(), SafeSalaryUpdate()};
  } else if (r < 82) {
    unit.statements = {alive_.size() < 4 ? insert() : remove(),
                       SafeSalaryUpdate()};
  } else if (r < 94) {
    if (alive_.empty()) {
      unit.statements = {SafeSalaryUpdate(), SafeSalaryUpdate()};
    } else {
      unit.statements = {remove(), budget_update()};
    }
  } else {
    unit.statements = {SafeSalaryUpdate(),
                       "UPDATE Emp SET Salary = " +
                           std::to_string(kViolatingSalary) +
                           " WHERE EName = " + Emp() + ";"};
    unit.expect_reject = true;
  }
  return unit;
}

EmpDeptReadStream::EmpDeptReadStream(const EmpDeptWorkload& workload,
                                     uint64_t seed)
    : depts_(workload.depts()), emps_(workload.emps()), rng_(seed * 31 + 5) {}

Unit EmpDeptReadStream::Next() {
  if (rng_.Uniform(0, 9) < 7) {
    return Read("SELECT * FROM Emp WHERE EName = " +
                Quote("e" + std::to_string(rng_.Uniform(0, emps_ - 1))) + ";");
  }
  return Read("SELECT * FROM SumOfSals WHERE DName = " +
              Quote("d" + std::to_string(rng_.Uniform(0, depts_ - 1))) + ";");
}

// ----------------------------------------------------------------------------
// Star schema

StarWorkload::StarWorkload(int fact_rows, uint64_t seed)
    : fact_rows_(fact_rows), rng_(seed * 2 + 1) {
  // Keys and groups are laid out the same for every seed, so group sizes,
  // statistics and the chosen views do not change with it; the seed picks
  // the measures and the stream.
  attrs_.assign(3, std::vector<int64_t>(kDimRows));
  for (int i = 0; i < 3; ++i) {
    for (int d = 0; d < kDimRows; ++d) {
      attrs_[static_cast<size_t>(i)][static_cast<size_t>(d)] =
          (d * (2 * i + 1)) % kAttrValues;
    }
  }
  Rng data(seed);
  for (int64_t fid = 0; fid < fact_rows_; ++fid) {
    const int64_t d1 = fid % kDimRows;
    const int64_t d2 = (fid / kDimRows) % kDimRows;
    const int64_t d3 = (fid / (kDimRows * kDimRows) + 3 * d1 + 7 * d2) % kDimRows;
    facts_[fid] = FactRow{d1, d2, d3, data.Uniform(1, 100)};
  }
}

std::string StarWorkload::Ddl() const {
  return R"sql(
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
}

std::string StarWorkload::FactValues(int64_t fid, const FactRow& row) {
  return "(" + std::to_string(fid) + ", " + std::to_string(row.d1) + ", " +
         std::to_string(row.d2) + ", " + std::to_string(row.d3) + ", " +
         std::to_string(row.m) + ")";
}

std::vector<std::string> StarWorkload::LoadStatements() const {
  std::vector<std::string> out;
  for (int i = 0; i < 3; ++i) {
    std::vector<std::string> rows;
    for (int d = 0; d < kDimRows; ++d) {
      rows.push_back("(" + std::to_string(d) + ", " +
                     std::to_string(attrs_[i][d]) + ")");
    }
    for (std::string& sql : Batched("Dim" + std::to_string(i + 1), rows)) {
      out.push_back(std::move(sql));
    }
  }
  std::vector<std::string> facts;
  for (const auto& [fid, row] : facts_) facts.push_back(FactValues(fid, row));
  for (std::string& sql : Batched("Fact", facts)) out.push_back(std::move(sql));
  return out;
}

std::vector<TransactionType> StarWorkload::DeclaredTxns() const {
  const double slice = static_cast<double>(fact_rows_) / kDimRows;
  return {auxview::SingleModifyTxn(">Fact.M", "Fact", {"M"}, 4, slice),
          auxview::SingleModifyTxn(">Dim1.A1", "Dim1", {"A1"}, 2),
          auxview::SingleModifyTxn(">Dim2.A2", "Dim2", {"A2"}, 1),
          TransactionType{"+Fact", 1, {UpdateSpec{"Fact", UpdateKind::kInsert, 40, {}, {}}}},
          TransactionType{"-Fact", 1, {UpdateSpec{"Fact", UpdateKind::kDelete, 40, {}, {}}}}};
}

std::vector<Unit> StarWorkload::NextBlock() {
  // Per block: 13 writes (1 assertion violation) and 10 rollup reads, then
  // the inverse writes. Measure updates are the bulk of the writes so that
  // the median write lands inside their latency mode, not between modes.
  std::vector<char> ops = Ops({{'M', 8}, {'A', 1}, {'B', 1}, {'I', 1},
                               {'D', 1}, {'V', 1}, {'Q', 9}, {'S', 1}});
  Shuffle(&ops, &rng_);
  std::vector<Unit> out;
  std::vector<Unit> inverse;
  std::vector<std::function<void()>> undo;
  const auto add_to_slice = [this](int64_t d1, int64_t k) {
    for (auto& [fid, row] : facts_) {
      if (row.d1 == d1) row.m += k;
    }
  };
  for (char op : ops) {
    switch (op) {
      case 'M': {
        const int64_t d1 = rng_.Uniform(0, kDimRows - 1);
        const int64_t k = rng_.Uniform(1, 9);
        const std::string where = " WHERE D1 = " + std::to_string(d1) + ";";
        out.push_back(Write("UPDATE Fact SET M = M + " + std::to_string(k) + where));
        inverse.push_back(Write("UPDATE Fact SET M = M - " + std::to_string(k) + where));
        add_to_slice(d1, k);
        undo.push_back([add_to_slice, d1, k] { add_to_slice(d1, -k); });
        break;
      }
      case 'A':
      case 'B': {
        const int dim = op == 'A' ? 0 : 1;
        const std::string n = std::to_string(dim + 1);
        const int64_t d = rng_.Uniform(0, kDimRows - 1);
        const int64_t old = attrs_[dim][d];
        const int64_t v = Different(&rng_, 0, kAttrValues - 1, old);
        const std::string where = " WHERE D" + n + " = " + std::to_string(d) + ";";
        out.push_back(Write("UPDATE Dim" + n + " SET A" + n + " = " +
                            std::to_string(v) + where));
        inverse.push_back(Write("UPDATE Dim" + n + " SET A" + n + " = " +
                                std::to_string(old) + where));
        attrs_[dim][d] = v;
        undo.push_back([this, dim, d, old] { attrs_[dim][d] = old; });
        break;
      }
      case 'I': {
        const int64_t n = rng_.Uniform(20, 60);
        const int64_t lo = 10000000 + block_ * 1000;
        std::string sql = "INSERT INTO Fact VALUES ";
        for (int64_t fid = lo; fid < lo + n; ++fid) {
          const FactRow row{rng_.Uniform(0, kDimRows - 1),
                            rng_.Uniform(0, kDimRows - 1),
                            rng_.Uniform(0, kDimRows - 1), rng_.Uniform(1, 100)};
          if (fid > lo) sql += ", ";
          sql += FactValues(fid, row);
          facts_[fid] = row;
        }
        out.push_back(Write(sql + ";"));
        inverse.push_back(Write("DELETE FROM Fact WHERE FId >= " +
                                std::to_string(lo) + " AND FId < " +
                                std::to_string(lo + n) + ";"));
        undo.push_back([this, lo, n] {
          for (int64_t fid = lo; fid < lo + n; ++fid) facts_.erase(fid);
        });
        break;
      }
      case 'D': {
        // One delete per block, over original rows, so the range is whole.
        const int64_t n = rng_.Uniform(20, 60);
        const int64_t lo = rng_.Uniform(0, fact_rows_ - n);
        std::string sql = "INSERT INTO Fact VALUES ";
        std::vector<std::pair<int64_t, FactRow>> removed;
        for (int64_t fid = lo; fid < lo + n; ++fid) {
          if (fid > lo) sql += ", ";
          sql += FactValues(fid, facts_.at(fid));
          removed.emplace_back(fid, facts_.at(fid));
          facts_.erase(fid);
        }
        out.push_back(Write("DELETE FROM Fact WHERE FId >= " +
                            std::to_string(lo) + " AND FId < " +
                            std::to_string(lo + n) + ";"));
        inverse.push_back(Write(sql + ";"));
        undo.push_back([this, removed] {
          for (const auto& [fid, row] : removed) facts_[fid] = row;
        });
        break;
      }
      case 'V': {
        int64_t fid = rng_.Uniform(0, fact_rows_ - 1);
        while (facts_.count(fid) == 0) fid = rng_.Uniform(0, fact_rows_ - 1);
        out.push_back(Write("UPDATE Fact SET M = 500000000 WHERE FId = " +
                                std::to_string(fid) + ";",
                            /*expect_reject=*/true));
        break;
      }
      case 'Q': {
        const std::string a = std::to_string(rng_.Uniform(0, kAttrValues - 1));
        out.push_back(rng_.Uniform(0, 1) == 0
                          ? Read("SELECT * FROM ByA1 WHERE A1 = " + a + ";")
                          : Read("SELECT * FROM ByA3 WHERE A3 = " + a + ";"));
        break;
      }
      case 'S':
        out.push_back(Read("SELECT * FROM ByA1A2;"));
        break;
    }
  }
  for (auto it = inverse.rbegin(); it != inverse.rend(); ++it) {
    out.push_back(std::move(*it));
  }
  for (auto it = undo.rbegin(); it != undo.rend(); ++it) (*it)();
  ++block_;
  return out;
}

uint64_t StarWorkload::ModelDigest() const {
  std::string bytes;
  for (const auto& [fid, row] : facts_) bytes += FactValues(fid, row);
  for (const auto& dim : attrs_) {
    for (int64_t a : dim) bytes += std::to_string(a) + ",";
  }
  return Fnv1a(bytes);
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       int depts) {
  if (name == "point-large") {
    return std::make_unique<EmpDeptWorkload>(depts > 0 ? depts : 10000, seed);
  }
  if (name == "concurrent-wal") {
    return std::make_unique<EmpDeptWorkload>(depts > 0 ? depts : 1000, seed);
  }
  if (name == "multiview-bulk") {
    return std::make_unique<StarWorkload>(20000, seed);
  }
  return nullptr;
}

}  // namespace e2ebench
