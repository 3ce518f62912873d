#include "api/txn_session.h"

#include <utility>

#include "api/dml_util.h"
#include "exec/executor.h"
#include "parser/parser.h"

namespace auxview {

StatusOr<ExecResult> TxnSession::Execute(const std::string& sql) {
  AUXVIEW_ASSIGN_OR_RETURN(std::vector<Statement> stmts, ParseSql(sql));
  if (stmts.empty()) return Status::InvalidArgument("empty statement");
  ExecResult last;
  for (const Statement& stmt : stmts) {
    AUXVIEW_ASSIGN_OR_RETURN(last, ExecuteOne(stmt));
  }
  return last;
}

StatusOr<ExecResult> TxnSession::ExecuteOne(const Statement& stmt) {
  switch (stmt.kind) {
    case Statement::Kind::kSelect:
      return ExecuteSelect(*stmt.select);
    case Statement::Kind::kInsert:
    case Statement::Kind::kDelete:
    case Statement::Kind::kUpdate:
      return ApplyDml(stmt);
    default:
      return Status::FailedPrecondition(
          "DDL runs on the owning Session, not a concurrent TxnSession");
  }
}

StatusOr<ExecResult> TxnSession::ExecuteSelect(const SelectQuery& query) {
  ExecResult result;
  result.kind = ExecResult::Kind::kRows;
  if (auto view = owner_->ReadMaintainedView(query, writer_, &writer_)) {
    AUXVIEW_ASSIGN_OR_RETURN(Relation rows, *std::move(view));
    result.rows = std::move(rows);
    return result;
  }
  AUXVIEW_ASSIGN_OR_RETURN(Expr::Ptr tree, owner_->binder_.BindSelect(query));
  // Inlined view references bottom out at base-table scans; footprint every
  // stored relation the plan reads.
  for (const std::string& name : tree->BaseRelations()) {
    writer_.footprint().AddScanRead(name);
  }
  Executor executor(&writer_);
  AUXVIEW_ASSIGN_OR_RETURN(Relation rows, executor.Execute(*tree));
  result.rows = std::move(rows);
  return result;
}

StatusOr<std::vector<CountedRow>> TxnSession::MatchingRows(
    const std::string& table, const SqlExpr::Ptr& where) {
  const Table* t = writer_.ResolveTable(table);
  if (t == nullptr) return Status::NotFound("no such table: " + table);
  if (auto equalities = dml::ExtractEqualities(where, t->schema())) {
    writer_.footprint().AddKeyRead(table, *std::move(equalities));
  } else {
    writer_.footprint().AddScanRead(table);
  }
  return dml::MatchingCountedRows(*t, where, table);
}

StatusOr<ExecResult> TxnSession::ApplyDml(const Statement& stmt) {
  ExecResult result;
  result.kind = ExecResult::Kind::kDml;
  switch (stmt.kind) {
    case Statement::Kind::kInsert: {
      const InsertStmt& ins = *stmt.insert;
      const Table* t = writer_.ResolveTable(ins.table);
      if (t == nullptr) return Status::NotFound("no such table: " + ins.table);
      const Schema schema = t->schema();  // staging invalidates `t`
      for (const auto& exprs : ins.rows) {
        if (static_cast<int>(exprs.size()) != schema.num_columns()) {
          return Status::InvalidArgument("INSERT arity mismatch for " +
                                         ins.table);
        }
        Row row;
        for (size_t i = 0; i < exprs.size(); ++i) {
          AUXVIEW_ASSIGN_OR_RETURN(Value v, dml::EvalConstant(exprs[i]));
          AUXVIEW_ASSIGN_OR_RETURN(
              v, dml::Coerce(v, schema.column(static_cast<int>(i)).type,
                             schema.column(static_cast<int>(i)).name));
          row.push_back(std::move(v));
        }
        AUXVIEW_RETURN_IF_ERROR(writer_.Insert(ins.table, row));
        ++result.affected;
      }
      return result;
    }
    case Statement::Kind::kDelete: {
      const DeleteStmt& del = *stmt.del;
      AUXVIEW_ASSIGN_OR_RETURN(std::vector<CountedRow> victims,
                               MatchingRows(del.table, del.where));
      for (const CountedRow& victim : victims) {
        AUXVIEW_RETURN_IF_ERROR(
            writer_.Delete(del.table, victim.row, victim.count));
        ++result.affected;
      }
      return result;
    }
    case Statement::Kind::kUpdate: {
      const UpdateStmt& upd = *stmt.update;
      const Table* t = writer_.ResolveTable(upd.table);
      if (t == nullptr) return Status::NotFound("no such table: " + upd.table);
      const Schema schema = t->schema();
      AUXVIEW_ASSIGN_OR_RETURN(std::vector<CountedRow> victims,
                               MatchingRows(upd.table, upd.where));
      std::vector<std::pair<int, Scalar::Ptr>> sets;
      for (const auto& [col, expr] : upd.sets) {
        const int idx = schema.IndexOf(col);
        if (idx < 0) return Status::InvalidArgument("unknown column: " + col);
        AUXVIEW_ASSIGN_OR_RETURN(
            Scalar::Ptr scalar, dml::ToTableScalar(expr, upd.table, schema));
        sets.emplace_back(idx, std::move(scalar));
      }
      for (const CountedRow& victim : victims) {
        const Row& old_row = victim.row;
        Row new_row = old_row;
        for (const auto& [idx, scalar] : sets) {
          AUXVIEW_ASSIGN_OR_RETURN(Value v, scalar->Eval(old_row, schema));
          AUXVIEW_ASSIGN_OR_RETURN(v, dml::Coerce(v, schema.column(idx).type,
                                                  schema.column(idx).name));
          new_row[static_cast<size_t>(idx)] = std::move(v);
        }
        if (RowEq()(old_row, new_row)) continue;
        AUXVIEW_RETURN_IF_ERROR(
            writer_.Modify(upd.table, old_row, new_row, victim.count));
        ++result.affected;
      }
      return result;
    }
    default:
      return Status::Internal("not a DML statement");
  }
}

StatusOr<CommitOutcome> TxnSession::Commit() {
  AUXVIEW_ASSIGN_OR_RETURN(CommitOutcome outcome, writer_.Commit());
  if (outcome.kind == CommitOutcome::Kind::kRejected) {
    // Match the Session's serial semantics: a rejected transaction rolls
    // back entirely — drop the staged set so the session starts clean.
    Abort();
  }
  return outcome;
}

void TxnSession::Abort() { writer_.Abort(); }

void TxnSession::Restart() { writer_.Restart(); }

}  // namespace auxview
