#include "workload/star.h"

#include "algebra/builder.h"
#include "common/check.h"
#include "common/rng.h"

namespace auxview {

StarWorkload::StarWorkload(StarConfig config) : config_(config) {
  AUXVIEW_CHECK(config_.num_dims >= 1);
  const double facts = config_.fact_rows;
  const double dims = config_.dim_rows;

  TableDef fact;
  fact.name = "Fact";
  std::vector<Column> cols = {{"FId", ValueType::kInt64}};
  for (int i = 1; i <= config_.num_dims; ++i) {
    cols.push_back({"D" + std::to_string(i), ValueType::kInt64});
  }
  cols.push_back({"M", ValueType::kInt64});
  fact.schema = Schema::Create(std::move(cols)).value();
  fact.primary_key = {"FId"};
  fact.stats.row_count = facts;
  fact.stats.distinct["FId"] = facts;
  fact.stats.distinct["M"] = facts / 2;
  for (int i = 1; i <= config_.num_dims; ++i) {
    fact.indexes.push_back(IndexDef{{"D" + std::to_string(i)}});
    fact.stats.distinct["D" + std::to_string(i)] = dims;
  }
  AUXVIEW_CHECK(catalog_.AddTable(std::move(fact)).ok());

  for (int i = 1; i <= config_.num_dims; ++i) {
    TableDef dim;
    dim.name = DimName(i);
    dim.schema = Schema::Create({{"D" + std::to_string(i), ValueType::kInt64},
                                 {"A" + std::to_string(i), ValueType::kInt64}})
                     .value();
    dim.primary_key = {"D" + std::to_string(i)};
    dim.stats.row_count = dims;
    dim.stats.distinct["D" + std::to_string(i)] = dims;
    dim.stats.distinct["A" + std::to_string(i)] =
        static_cast<double>(config_.attr_values);
    AUXVIEW_CHECK(catalog_.AddTable(std::move(dim)).ok());
  }
}

std::string StarWorkload::DimName(int i) const {
  return "Dim" + std::to_string(i);
}

Status StarWorkload::Populate(Database* db) const {
  ScopedCountingDisabled guard(&db->counter());
  Rng rng(config_.seed);
  for (int i = 1; i <= config_.num_dims; ++i) {
    AUXVIEW_ASSIGN_OR_RETURN(TableDef def, catalog_.GetTable(DimName(i)));
    AUXVIEW_ASSIGN_OR_RETURN(Table * dim, db->CreateTable(def));
    for (int j = 0; j < config_.dim_rows; ++j) {
      AUXVIEW_RETURN_IF_ERROR(dim->Insert(
          {Value::Int64(j),
           Value::Int64(rng.Uniform(0, config_.attr_values - 1))}));
    }
  }
  AUXVIEW_ASSIGN_OR_RETURN(TableDef def, catalog_.GetTable("Fact"));
  AUXVIEW_ASSIGN_OR_RETURN(Table * fact, db->CreateTable(def));
  for (int j = 0; j < config_.fact_rows; ++j) {
    Row row = {Value::Int64(j)};
    for (int i = 1; i <= config_.num_dims; ++i) {
      row.push_back(Value::Int64(rng.Uniform(0, config_.dim_rows - 1)));
    }
    row.push_back(Value::Int64(rng.Uniform(1, 100)));
    AUXVIEW_RETURN_IF_ERROR(fact->Insert(row));
  }
  return Status::Ok();
}

StatusOr<Expr::Ptr> StarWorkload::RollupTree() const {
  ExprBuilder b(&catalog_);
  Expr::Ptr tree = b.Scan("Fact");
  for (int i = 1; i <= config_.num_dims; ++i) {
    tree = b.Join(tree, b.Scan(DimName(i)), {"D" + std::to_string(i)});
  }
  std::vector<std::string> group_by = {"A1"};
  if (config_.group_by_two && config_.num_dims >= 2) {
    group_by.push_back("A2");
  }
  tree = b.Aggregate(tree, group_by,
                     {{AggFunc::kSum, Col("M"), "Total"},
                      {AggFunc::kCount, nullptr, "N"}});
  return b.Take(tree);
}

TransactionType StarWorkload::TxnModMeasure(double weight) const {
  return SingleModifyTxn(">Fact.M", "Fact", {"M"}, weight);
}

TransactionType StarWorkload::TxnModDimAttr(int dim, double weight) const {
  return SingleModifyTxn(">" + DimName(dim) + ".A", DimName(dim),
                         {"A" + std::to_string(dim)}, weight);
}

TransactionType StarWorkload::TxnInsertFact(double weight) const {
  TransactionType txn;
  txn.name = "+Fact";
  txn.weight = weight;
  txn.updates.push_back(UpdateSpec{"Fact", UpdateKind::kInsert, 1, {}, {}});
  return txn;
}

}  // namespace auxview
