#ifndef AUXVIEW_API_DML_UTIL_H_
#define AUXVIEW_API_DML_UTIL_H_

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "algebra/scalar.h"
#include "catalog/schema.h"
#include "common/status.h"
#include "common/value.h"
#include "parser/ast.h"
#include "storage/table.h"

namespace auxview {
namespace dml {

/// Converts a SQL expression over one table's columns to a Scalar
/// (qualifiers must match the table name when present).
StatusOr<Scalar::Ptr> ToTableScalar(const SqlExpr::Ptr& e,
                                    const std::string& table,
                                    const Schema& schema);

/// Evaluates a column-free expression (literal / arithmetic).
StatusOr<Value> EvalConstant(const SqlExpr::Ptr& e);

/// Coerces a value to a column type where lossless (int -> double).
StatusOr<Value> Coerce(const Value& v, ValueType type, const std::string& col);

/// Distinct rows of `table` satisfying a WHERE predicate (nullptr = all
/// rows), each with its multiplicity; column qualifiers must name
/// `qualifier`. Every `column = literal` conjunct (literal coerced as in
/// ExtractEqualities) routes the fetch through Table::LookupBatchUncharged,
/// which probes a hash index on a subset of those columns or scans; the
/// full predicate then filters every candidate, so NULLs, contradictory
/// conjuncts and type mismatches keep SQL semantics. Uncharged, and works
/// identically against a live table and a snapshot/overlay version.
StatusOr<std::vector<CountedRow>> MatchingCountedRows(
    const Table& table, const SqlExpr::Ptr& where,
    const std::string& qualifier);

/// MatchingCountedRows qualified by the table's own name, rows only.
StatusOr<std::vector<Row>> MatchingRows(const Table& table,
                                        const SqlExpr::Ptr& where);

/// If `where` is a conjunction of `column = constant` equalities over
/// `schema`, the (column index, coerced value) pairs — the key-read form a
/// writer records in its footprint so only matching later commits conflict.
/// nullopt for any other shape (callers fall back to a whole-relation read).
std::optional<std::vector<std::pair<int, Value>>> ExtractEqualities(
    const SqlExpr::Ptr& where, const Schema& schema);

}  // namespace dml
}  // namespace auxview

#endif  // AUXVIEW_API_DML_UTIL_H_
