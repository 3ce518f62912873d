#ifndef AUXVIEW_E2EBENCH_WORKLOAD_H_
#define AUXVIEW_E2EBENCH_WORKLOAD_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "delta/transaction.h"

namespace e2ebench {

/// One closed-loop request: a SELECT, a single DML statement, or (for
/// concurrent writers) the 2-3 statements of one transaction.
struct Unit {
  bool read = false;
  std::vector<std::string> statements;
  /// The generator knows every verdict: an assertion-violating write is
  /// always rejected and every other write always commits.
  bool expect_reject = false;
};

/// Schema, data, declared update mix and statement stream of one workload,
/// all a pure function of the seed.
class Workload {
 public:
  virtual ~Workload() = default;

  /// DDL script: tables, views and the assertion.
  virtual std::string Ddl() const = 0;
  /// Bulk-load INSERT statements, run before Prepare.
  virtual std::vector<std::string> LoadStatements() const = 0;
  /// The update mix Prepare optimizes for.
  virtual std::vector<auxview::TransactionType> DeclaredTxns() const = 0;
  /// The next block of the serial stream. A block is a fixed mix of
  /// operations in seeded order followed by the inverse of every accepted
  /// write in reverse order, so it leaves the base tables exactly as it
  /// found them and every intermediate state is one the forward part
  /// already passed through.
  virtual std::vector<Unit> NextBlock() = 0;
  /// Digest of the generator's model of the base tables (tests).
  virtual uint64_t ModelDigest() const = 0;
};

/// The paper's Emp/Dept schema with the SumOfSals view and the Section 4
/// DeptConstraint assertion: `depts` departments of 10 employees each.
/// Salaries stay in [1000, 5000] and budgets in [200000, 300000], so a
/// department never nears its budget; the violating writes set a salary of
/// 9000000 or a budget of 10, which always break it.
class EmpDeptWorkload : public Workload {
 public:
  static constexpr int kEmpsPerDept = 10;

  EmpDeptWorkload(int depts, uint64_t seed);

  std::string Ddl() const override;
  std::vector<std::string> LoadStatements() const override;
  std::vector<auxview::TransactionType> DeclaredTxns() const override;
  std::vector<Unit> NextBlock() override;
  uint64_t ModelDigest() const override;

  int depts() const { return depts_; }
  int emps() const { return depts_ * kEmpsPerDept; }

 private:
  struct Emp {
    std::string dept;
    int64_t salary = 0;
    bool present = true;
  };

  std::string RandomEmpName(auxview::Rng& rng) const;
  std::string RandomPresentEmp(auxview::Rng& rng) const;
  std::string RandomDept(auxview::Rng& rng) const;

  int depts_;
  auxview::Rng rng_;
  int64_t block_ = 0;
  std::map<std::string, Emp> emps_;
  std::map<std::string, int64_t> budgets_;
};

/// Writer `writer` of the concurrent Emp/Dept stream: primary-key
/// transactions of 2-3 statements with keys uniform over all employees.
/// Transactions never depend on values another writer may have changed, so
/// every verdict is known in advance whatever the interleaving. A writer
/// deletes only employees it inserted itself and keeps at most four of them
/// alive, which bounds department sizes far below any budget.
class EmpDeptTxnStream {
 public:
  EmpDeptTxnStream(const EmpDeptWorkload& workload, int writer, uint64_t seed);

  Unit Next();

 private:
  std::string Emp();
  std::string SafeSalaryUpdate();

  int depts_;
  int emps_;
  int writer_;
  auxview::Rng rng_;
  int64_t inserted_ = 0;
  std::deque<std::string> alive_;
};

/// The concurrent reader's SELECT stream over the Emp/Dept schema.
class EmpDeptReadStream {
 public:
  EmpDeptReadStream(const EmpDeptWorkload& workload, uint64_t seed);

  Unit Next();

 private:
  int depts_;
  int emps_;
  auxview::Rng rng_;
};

/// A star schema in SQL: Fact(FId, D1, D2, D3, M) and three 50-row
/// dimensions Dim_i(D_i, A_i). Three rollup views and one assertion share
/// the fact-dimension joins. Fact rows are spread evenly over D1 (400 rows
/// per value at the default size), so a measure update by D1 touches
/// exactly fact_rows / 50 rows.
class StarWorkload : public Workload {
 public:
  static constexpr int kDimRows = 50;
  static constexpr int kAttrValues = 10;

  StarWorkload(int fact_rows, uint64_t seed);

  std::string Ddl() const override;
  std::vector<std::string> LoadStatements() const override;
  std::vector<auxview::TransactionType> DeclaredTxns() const override;
  std::vector<Unit> NextBlock() override;
  uint64_t ModelDigest() const override;

 private:
  struct FactRow {
    int64_t d1 = 0;
    int64_t d2 = 0;
    int64_t d3 = 0;
    int64_t m = 0;
  };

  static std::string FactValues(int64_t fid, const FactRow& row);

  int fact_rows_;
  auxview::Rng rng_;
  int64_t block_ = 0;
  std::map<int64_t, FactRow> facts_;
  /// attrs_[i][d] = A_{i+1} of dimension row d.
  std::vector<std::vector<int64_t>> attrs_;
};

/// The workloads by name: "point-large", "concurrent-wal",
/// "multiview-bulk". `depts` overrides the Emp/Dept size (0 = default).
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       int depts = 0);

}  // namespace e2ebench

#endif  // AUXVIEW_E2EBENCH_WORKLOAD_H_
