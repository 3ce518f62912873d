#include "workload/fig5.h"

#include "algebra/builder.h"
#include "common/check.h"
#include "common/rng.h"

namespace auxview {

Fig5Workload::Fig5Workload(Fig5Config config) : config_(config) {
  const double items = config_.num_items;
  const double orders = items * config_.orders_per_item;
  const double r_rows = items * config_.r_rows_per_item;

  TableDef s;
  s.name = "S";
  s.schema = Schema::Create({{"OrderId", ValueType::kInt64},
                             {"Item", ValueType::kInt64},
                             {"Quantity", ValueType::kInt64}})
                 .value();
  s.primary_key = {"OrderId"};
  s.indexes = {IndexDef{{"Item"}}};
  s.stats.row_count = orders;
  s.stats.distinct = {{"OrderId", orders}, {"Item", items},
                      {"Quantity", 100}};
  AUXVIEW_CHECK(catalog_.AddTable(std::move(s)).ok());

  TableDef t;
  t.name = "T";
  t.schema = Schema::Create(
                 {{"Item", ValueType::kInt64}, {"Price", ValueType::kInt64}})
                 .value();
  t.primary_key = {"Item"};
  t.stats.row_count = items;
  t.stats.distinct = {{"Item", items}, {"Price", items / 2}};
  AUXVIEW_CHECK(catalog_.AddTable(std::move(t)).ok());

  TableDef r;
  r.name = "R";
  r.schema = Schema::Create({{"RowId", ValueType::kInt64},
                             {"Item", ValueType::kInt64},
                             {"Target", ValueType::kInt64}})
                 .value();
  r.primary_key = {"RowId"};
  r.indexes = {IndexDef{{"Item"}}};
  r.stats.row_count = r_rows;
  r.stats.distinct = {{"RowId", r_rows}, {"Item", items},
                      {"Target", r_rows / 2}};
  AUXVIEW_CHECK(catalog_.AddTable(std::move(r)).ok());
}

Status Fig5Workload::Populate(Database* db) const {
  ScopedCountingDisabled guard(&db->counter());
  Rng rng(config_.seed);
  AUXVIEW_ASSIGN_OR_RETURN(TableDef s_def, catalog_.GetTable("S"));
  AUXVIEW_ASSIGN_OR_RETURN(Table * s, db->CreateTable(s_def));
  AUXVIEW_ASSIGN_OR_RETURN(TableDef t_def, catalog_.GetTable("T"));
  AUXVIEW_ASSIGN_OR_RETURN(Table * t, db->CreateTable(t_def));
  AUXVIEW_ASSIGN_OR_RETURN(TableDef r_def, catalog_.GetTable("R"));
  AUXVIEW_ASSIGN_OR_RETURN(Table * r, db->CreateTable(r_def));

  int64_t order_id = 0;
  int64_t row_id = 0;
  for (int item = 0; item < config_.num_items; ++item) {
    AUXVIEW_RETURN_IF_ERROR(t->Insert(
        {Value::Int64(item), Value::Int64(rng.Uniform(1, 100))}));
    for (int k = 0; k < config_.orders_per_item; ++k) {
      AUXVIEW_RETURN_IF_ERROR(
          s->Insert({Value::Int64(order_id++), Value::Int64(item),
                     Value::Int64(rng.Uniform(1, 50))}));
    }
    for (int k = 0; k < config_.r_rows_per_item; ++k) {
      AUXVIEW_RETURN_IF_ERROR(
          r->Insert({Value::Int64(row_id++), Value::Int64(item),
                     Value::Int64(rng.Uniform(100, 10000))}));
    }
  }
  return Status::Ok();
}

StatusOr<Expr::Ptr> Fig5Workload::ViewTree() const {
  ExprBuilder b(&catalog_);
  Expr::Ptr agg = b.Aggregate(
      b.Join(b.Scan("S"), b.Scan("T"), {"Item"}), {"Item"},
      {{AggFunc::kSum, Scalar::Mul(Col("Quantity"), Col("Price")), "Rev"}});
  Expr::Ptr tree = b.Join(b.Scan("R"), agg, {"Item"});
  return b.Take(tree);
}

TransactionType Fig5Workload::TxnModS(double weight) const {
  return SingleModifyTxn(">S", "S", {"Quantity"}, weight);
}

TransactionType Fig5Workload::TxnModT(double weight) const {
  return SingleModifyTxn(">T", "T", {"Price"}, weight);
}

TransactionType Fig5Workload::TxnModR(double weight) const {
  return SingleModifyTxn(">R", "R", {"Target"}, weight);
}

}  // namespace auxview
