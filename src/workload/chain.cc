#include "workload/chain.h"

#include "algebra/builder.h"
#include "common/check.h"
#include "common/rng.h"

namespace auxview {

ChainWorkload::ChainWorkload(ChainConfig config) : config_(config) {
  AUXVIEW_CHECK(config_.num_relations >= 2);
  AUXVIEW_CHECK(config_.fanout >= 1);
  const double rows = config_.rows_per_relation;
  for (int i = 1; i <= config_.num_relations; ++i) {
    const std::string key = "A" + std::to_string(i - 1);
    const std::string next = "A" + std::to_string(i);
    const std::string val = "V" + std::to_string(i);
    TableDef def;
    def.name = RelationName(i - 1);
    def.schema = Schema::Create({{key, ValueType::kInt64},
                                 {next, ValueType::kInt64},
                                 {val, ValueType::kInt64}})
                     .value();
    def.primary_key = {key};
    def.indexes = {IndexDef{{next}}};
    def.stats.row_count = rows;
    def.stats.distinct = {
        {key, rows},
        {next, std::max(1.0, rows / config_.fanout)},
        {val, rows / 2}};
    AUXVIEW_CHECK(catalog_.AddTable(std::move(def)).ok());
  }
}

std::string ChainWorkload::RelationName(int i) const {
  return "R" + std::to_string(i + 1);
}

Status ChainWorkload::Populate(Database* db) const {
  ScopedCountingDisabled guard(&db->counter());
  Rng rng(config_.seed);
  const int rows = config_.rows_per_relation;
  const int64_t next_domain = std::max(1, rows / config_.fanout);
  for (int i = 1; i <= config_.num_relations; ++i) {
    AUXVIEW_ASSIGN_OR_RETURN(TableDef def,
                             catalog_.GetTable(RelationName(i - 1)));
    AUXVIEW_ASSIGN_OR_RETURN(Table * table, db->CreateTable(def));
    for (int j = 0; j < rows; ++j) {
      const int64_t key = static_cast<int64_t>(i) * 1000000 + j;
      const int64_t next = static_cast<int64_t>(i + 1) * 1000000 +
                           rng.Uniform(0, next_domain - 1);
      const int64_t val = rng.Uniform(0, 1000);
      AUXVIEW_RETURN_IF_ERROR(table->Insert(
          {Value::Int64(key), Value::Int64(next), Value::Int64(val)}));
    }
  }
  return Status::Ok();
}

StatusOr<Expr::Ptr> ChainWorkload::ChainViewTree() const {
  ExprBuilder b(&catalog_);
  Expr::Ptr tree = b.Scan(RelationName(0));
  for (int i = 1; i < config_.num_relations; ++i) {
    tree = b.Join(tree, b.Scan(RelationName(i)), {"A" + std::to_string(i)});
  }
  if (config_.with_aggregate) {
    tree = b.Aggregate(
        tree, {"A0"},
        {{AggFunc::kSum,
          Col("V" + std::to_string(config_.num_relations)), "VSum"}});
  }
  return b.Take(tree);
}

TransactionType ChainWorkload::TxnModify(int i, double weight) const {
  return SingleModifyTxn(">" + RelationName(i), RelationName(i),
                         {"V" + std::to_string(i + 1)}, weight);
}

std::vector<TransactionType> ChainWorkload::AllTxns(
    std::vector<double> weights) const {
  std::vector<TransactionType> out;
  for (int i = 0; i < config_.num_relations; ++i) {
    const double w = i < static_cast<int>(weights.size()) ? weights[i] : 1;
    out.push_back(TxnModify(i, w));
  }
  return out;
}

}  // namespace auxview
