#include "workload/emp_dept.h"

#include <cstdio>

#include "algebra/builder.h"
#include "common/check.h"
#include "common/rng.h"

namespace auxview {

namespace {

std::string DeptName(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "d%04d", i);
  return buf;
}

std::string EmpName(int dept, int k) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "e%04d_%03d", dept, k);
  return buf;
}

}  // namespace

EmpDeptWorkload::EmpDeptWorkload(EmpDeptConfig config)
    : config_(config) {
  const double depts = config_.num_depts;
  const double emps = depts * config_.emps_per_dept;

  TableDef emp;
  emp.name = "Emp";
  emp.schema = Schema::Create({{"EName", ValueType::kString},
                               {"DName", ValueType::kString},
                               {"Salary", ValueType::kInt64}})
                   .value();
  emp.primary_key = {"EName"};
  emp.indexes = {IndexDef{{"DName"}}};
  emp.stats.row_count = emps;
  emp.stats.distinct = {{"EName", emps},
                        {"DName", depts},
                        {"Salary", emps / 2}};
  AUXVIEW_CHECK(catalog_.AddTable(std::move(emp)).ok());

  TableDef dept;
  dept.name = "Dept";
  dept.schema = Schema::Create({{"DName", ValueType::kString},
                                {"MName", ValueType::kString},
                                {"Budget", ValueType::kInt64}})
                    .value();
  dept.primary_key = {"DName"};
  dept.stats.row_count = depts;
  dept.stats.distinct = {{"DName", depts},
                         {"MName", depts},
                         {"Budget", depts}};
  AUXVIEW_CHECK(catalog_.AddTable(std::move(dept)).ok());

  if (config_.with_adepts) {
    TableDef adepts;
    adepts.name = "ADepts";
    adepts.schema =
        Schema::Create({{"DName", ValueType::kString}}).value();
    adepts.primary_key = {"DName"};
    adepts.stats.row_count = config_.num_adepts;
    adepts.stats.distinct = {
        {"DName", static_cast<double>(config_.num_adepts)}};
    AUXVIEW_CHECK(catalog_.AddTable(std::move(adepts)).ok());
  }
}

Status EmpDeptWorkload::Populate(Database* db) const {
  ScopedCountingDisabled guard(&db->counter());
  Rng rng(config_.seed);

  AUXVIEW_ASSIGN_OR_RETURN(TableDef dept_def, catalog_.GetTable("Dept"));
  AUXVIEW_ASSIGN_OR_RETURN(Table * dept, db->CreateTable(dept_def));
  AUXVIEW_ASSIGN_OR_RETURN(TableDef emp_def, catalog_.GetTable("Emp"));
  AUXVIEW_ASSIGN_OR_RETURN(Table * emp, db->CreateTable(emp_def));

  for (int d = 0; d < config_.num_depts; ++d) {
    int64_t salary_sum = 0;
    for (int k = 0; k < config_.emps_per_dept; ++k) {
      const int64_t salary =
          rng.Uniform(config_.salary_min, config_.salary_max);
      salary_sum += salary;
      AUXVIEW_RETURN_IF_ERROR(
          emp->Insert({Value::String(EmpName(d, k)),
                       Value::String(DeptName(d)), Value::Int64(salary)}));
    }
    const bool violated = rng.Bernoulli(config_.violation_fraction);
    const int64_t budget = violated
                               ? salary_sum - rng.Uniform(1, 10000)
                               : salary_sum + rng.Uniform(1, 100000);
    AUXVIEW_RETURN_IF_ERROR(
        dept->Insert({Value::String(DeptName(d)),
                      Value::String("m" + std::to_string(d)),
                      Value::Int64(budget)}));
  }

  if (config_.with_adepts) {
    AUXVIEW_ASSIGN_OR_RETURN(TableDef adepts_def, catalog_.GetTable("ADepts"));
    AUXVIEW_ASSIGN_OR_RETURN(Table * adepts, db->CreateTable(adepts_def));
    for (int i = 0; i < config_.num_adepts; ++i) {
      AUXVIEW_RETURN_IF_ERROR(adepts->Insert(
          {Value::String(DeptName(static_cast<int>(
              rng.Uniform(0, config_.num_depts - 1))))},
          1));
    }
  }
  return Status::Ok();
}

StatusOr<Expr::Ptr> EmpDeptWorkload::ProblemDeptTree() const {
  ExprBuilder b(&catalog_);
  Expr::Ptr tree = b.Select(
      b.Aggregate(b.Join(b.Scan("Emp"), b.Scan("Dept"), {"DName"}),
                  {"DName", "Budget"},
                  {{AggFunc::kSum, Col("Salary"), "SumSal"}}),
      Scalar::Gt(Col("SumSal"), Col("Budget")));
  return b.Take(tree);
}

StatusOr<Expr::Ptr> EmpDeptWorkload::ProblemDeptLeftTree() const {
  ExprBuilder b(&catalog_);
  Expr::Ptr tree = b.Select(
      b.Join(b.Aggregate(b.Scan("Emp"), {"DName"},
                         {{AggFunc::kSum, Col("Salary"), "SumSal"}}),
             b.Scan("Dept"), {"DName"}),
      Scalar::Gt(Col("SumSal"), Col("Budget")));
  return b.Take(tree);
}

StatusOr<Expr::Ptr> EmpDeptWorkload::ADeptsStatusTree() const {
  if (!config_.with_adepts) {
    return Status::FailedPrecondition("configure with_adepts first");
  }
  ExprBuilder b(&catalog_);
  Expr::Ptr tree = b.Aggregate(
      b.Join(b.Join(b.Scan("Emp"), b.Scan("Dept"), {"DName"}),
             b.Scan("ADepts"), {"DName"}),
      {"DName", "Budget"}, {{AggFunc::kSum, Col("Salary"), "SumSal"}});
  return b.Take(tree);
}

TransactionType EmpDeptWorkload::TxnModEmp(double weight) const {
  return SingleModifyTxn(">Emp", "Emp", {"Salary"}, weight);
}

TransactionType EmpDeptWorkload::TxnModDept(double weight) const {
  return SingleModifyTxn(">Dept", "Dept", {"Budget"}, weight);
}

TransactionType EmpDeptWorkload::TxnInsertADept(double weight) const {
  TransactionType txn;
  txn.name = ">ADepts";
  txn.weight = weight;
  UpdateSpec spec;
  spec.relation = "ADepts";
  spec.kind = UpdateKind::kInsert;
  spec.count = 1;
  txn.updates.push_back(std::move(spec));
  return txn;
}

}  // namespace auxview
