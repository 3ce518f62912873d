#include "api/dml_util.h"

#include <algorithm>
#include <map>

namespace auxview {
namespace dml {

StatusOr<Scalar::Ptr> ToTableScalar(const SqlExpr::Ptr& e,
                                    const std::string& table,
                                    const Schema& schema) {
  switch (e->kind) {
    case SqlExpr::Kind::kColumn:
      if (!e->qualifier.empty() && e->qualifier != table) {
        return Status::InvalidArgument("unknown qualifier: " + e->qualifier);
      }
      if (!schema.Contains(e->name)) {
        return Status::InvalidArgument("unknown column: " + e->name);
      }
      return Scalar::Column(e->name);
    case SqlExpr::Kind::kLiteral:
      return Scalar::Literal(e->literal);
    case SqlExpr::Kind::kUnaryNot: {
      AUXVIEW_ASSIGN_OR_RETURN(Scalar::Ptr inner,
                               ToTableScalar(e->args[0], table, schema));
      return Scalar::Not(inner);
    }
    case SqlExpr::Kind::kBinary: {
      AUXVIEW_ASSIGN_OR_RETURN(Scalar::Ptr l,
                               ToTableScalar(e->args[0], table, schema));
      AUXVIEW_ASSIGN_OR_RETURN(Scalar::Ptr r,
                               ToTableScalar(e->args[1], table, schema));
      static const std::map<std::string, ScalarOp> kOps = {
          {"+", ScalarOp::kAdd}, {"-", ScalarOp::kSub},
          {"*", ScalarOp::kMul}, {"/", ScalarOp::kDiv},
          {"=", ScalarOp::kEq},  {"<>", ScalarOp::kNe},
          {"<", ScalarOp::kLt},  {"<=", ScalarOp::kLe},
          {">", ScalarOp::kGt},  {">=", ScalarOp::kGe},
          {"AND", ScalarOp::kAnd}, {"OR", ScalarOp::kOr}};
      auto it = kOps.find(e->op);
      if (it == kOps.end()) {
        return Status::InvalidArgument("unsupported operator: " + e->op);
      }
      return Scalar::Binary(it->second, l, r);
    }
    case SqlExpr::Kind::kFuncCall:
      return Status::InvalidArgument("aggregates not allowed in DML");
  }
  return Status::Internal("unhandled SqlExpr");
}

StatusOr<Value> EvalConstant(const SqlExpr::Ptr& e) {
  static const Schema kEmpty;
  AUXVIEW_ASSIGN_OR_RETURN(Scalar::Ptr scalar, ToTableScalar(e, "", kEmpty));
  static const Row kNoRow;
  return scalar->Eval(kNoRow, kEmpty);
}

StatusOr<Value> Coerce(const Value& v, ValueType type,
                       const std::string& col) {
  if (v.is_null() || v.type() == type) return v;
  if (type == ValueType::kDouble && v.type() == ValueType::kInt64) {
    return Value::Double(static_cast<double>(v.int64()));
  }
  if (type == ValueType::kInt64 && v.type() == ValueType::kDouble &&
      v.dbl() == static_cast<double>(static_cast<int64_t>(v.dbl()))) {
    return Value::Int64(static_cast<int64_t>(v.dbl()));
  }
  return Status::InvalidArgument("type mismatch for column " + col + ": " +
                                 v.ToString());
}

namespace {

/// Appends every `column = literal` conjunct of the AND tree `e` to `out`,
/// the literal coerced to the column's type. True when every conjunct had
/// that form (a literal that does not coerce does not count).
bool CollectEqualities(const SqlExpr::Ptr& e, const Schema& schema,
                       std::vector<std::pair<int, Value>>* out) {
  if (e->kind != SqlExpr::Kind::kBinary) return false;
  if (e->op == "AND") {
    const bool left = CollectEqualities(e->args[0], schema, out);
    const bool right = CollectEqualities(e->args[1], schema, out);
    return left && right;
  }
  if (e->op != "=") return false;
  const SqlExpr::Ptr* column = nullptr;
  const SqlExpr::Ptr* literal = nullptr;
  if (e->args[0]->kind == SqlExpr::Kind::kColumn &&
      e->args[1]->kind == SqlExpr::Kind::kLiteral) {
    column = &e->args[0];
    literal = &e->args[1];
  } else if (e->args[1]->kind == SqlExpr::Kind::kColumn &&
             e->args[0]->kind == SqlExpr::Kind::kLiteral) {
    column = &e->args[1];
    literal = &e->args[0];
  } else {
    return false;
  }
  const int idx = schema.IndexOf((*column)->name);
  if (idx < 0) return false;
  StatusOr<Value> coerced =
      Coerce((*literal)->literal, schema.column(idx).type, (*column)->name);
  if (!coerced.ok()) return false;
  out->emplace_back(idx, *std::move(coerced));
  return true;
}

}  // namespace

StatusOr<std::vector<CountedRow>> MatchingCountedRows(
    const Table& table, const SqlExpr::Ptr& where,
    const std::string& qualifier) {
  const Schema& schema = table.schema();
  Scalar::Ptr pred;
  std::vector<std::string> attrs;
  Row key;
  if (where != nullptr) {
    AUXVIEW_ASSIGN_OR_RETURN(pred, ToTableScalar(where, qualifier, schema));
    std::vector<std::pair<int, Value>> equalities;
    CollectEqualities(where, schema, &equalities);
    for (auto& [col, value] : equalities) {
      const std::string& name = schema.column(col).name;
      // A repeated column routes on its first literal; the WHERE filter
      // below drops the rows a contradicting one excludes.
      if (std::find(attrs.begin(), attrs.end(), name) != attrs.end()) continue;
      attrs.push_back(name);
      key.push_back(std::move(value));
    }
  }
  std::vector<CountedRow> candidates =
      std::move(table.LookupBatchUncharged(attrs, {key})[0]);
  if (pred == nullptr) return candidates;
  std::vector<CountedRow> out;
  for (CountedRow& cr : candidates) {
    AUXVIEW_ASSIGN_OR_RETURN(Value v, pred->Eval(cr.row, schema));
    if (v.is_null() || !v.boolean()) continue;
    out.push_back(std::move(cr));
  }
  return out;
}

StatusOr<std::vector<Row>> MatchingRows(const Table& table,
                                        const SqlExpr::Ptr& where) {
  AUXVIEW_ASSIGN_OR_RETURN(std::vector<CountedRow> matched,
                           MatchingCountedRows(table, where, table.name()));
  std::vector<Row> out;
  out.reserve(matched.size());
  for (CountedRow& cr : matched) out.push_back(std::move(cr.row));
  return out;
}

std::optional<std::vector<std::pair<int, Value>>> ExtractEqualities(
    const SqlExpr::Ptr& where, const Schema& schema) {
  if (where == nullptr) return std::nullopt;
  std::vector<std::pair<int, Value>> out;
  if (!CollectEqualities(where, schema, &out)) return std::nullopt;
  return out;
}

}  // namespace dml
}  // namespace auxview
