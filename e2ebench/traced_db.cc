#include "traced_db.h"

#include <algorithm>
#include <utility>

#include "api/dml_util.h"
#include "common/string_util.h"
#include "exec/executor.h"
#include "maintain/assertion.h"
#include "maintain/delta_engine.h"
#include "memo/expand.h"
#include "memo/rules.h"
#include "obs/metrics.h"
#include "parser/parser.h"
#include "storage/undo_log.h"

namespace e2ebench {

using namespace auxview;

namespace {

/// Leaf relations an algebra tree reads (TxnSession's read footprint).
void CollectScanTables(const Expr& expr, std::vector<std::string>* out) {
  if (expr.kind() == OpKind::kScan) out->push_back(expr.table());
  for (const Expr::Ptr& child : expr.children()) {
    CollectScanTables(*child, out);
  }
}

/// Opens a span by hand where its end must be known before the scope
/// closes; a no-op with tracing off.
int BeginSpan(const char* name) {
  TraceContext& ctx = CurrentTrace();
  return ctx.tracer == nullptr ? -1
                               : ctx.tracer->Begin(name, NowUs(), ctx.unit);
}

void EndSpan(int id) {
  if (id >= 0) CurrentTrace().tracer->End(id, NowUs());
}

}  // namespace

const char* const NestedSums::kKernelNames[NestedSums::kKernels] = {
    "hash_join", "aggregate", "filter", "project", "dup_elim"};

NestedSums NestedSums::Read() {
  struct Handles {
    obs::Histogram* apply;
    obs::Histogram* compute;
    obs::Histogram* kernels[kKernels];
  };
  static const Handles h = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    Handles out{reg.GetHistogram("maintain.apply_txn_us"),
                reg.GetHistogram("maintain.compute_deltas_us"),
                {}};
    for (int k = 0; k < kKernels; ++k) {
      out.kernels[k] = reg.GetHistogram(std::string("exec.kernel.") +
                                        kKernelNames[k] + ".us");
    }
    return out;
  }();
  NestedSums sums;
  sums.apply_us = h.apply->sum();
  sums.compute_us = h.compute->sum();
  for (int k = 0; k < kKernels; ++k) sums.kernel_us[k] = h.kernels[k]->sum();
  return sums;
}

NestedSums NestedSums::operator-(const NestedSums& other) const {
  NestedSums d;
  d.apply_us = apply_us - other.apply_us;
  d.compute_us = compute_us - other.compute_us;
  for (int k = 0; k < kKernels; ++k) {
    d.kernel_us[k] = kernel_us[k] - other.kernel_us[k];
  }
  return d;
}

void AddNestedSpans(Tracer* tracer, int apply_span, const NestedSums& delta) {
  const Span apply = tracer->spans()[static_cast<size_t>(apply_span)];
  const double compute_end =
      std::min(apply.end_us, apply.start_us + delta.compute_us);
  const int compute = tracer->Add("maintain.compute_deltas", apply.start_us,
                                  compute_end, apply_span, apply.unit);
  double t = apply.start_us;
  for (int k = 0; k < NestedSums::kKernels; ++k) {
    if (delta.kernel_us[k] <= 0) continue;
    const double end = std::min(compute_end, t + delta.kernel_us[k]);
    tracer->Add(std::string("exec.kernel.") + NestedSums::kKernelNames[k], t,
                end, compute, apply.unit);
    t = end;
  }
}

// ----------------------------------------------------------------------------
// TracedDb: Session's code paths, statement by statement.

TracedDb::TracedDb() : binder_(&catalog_) {
  // As Session: every root is a user-facing view whose updates are charged.
  options_.optimize.cost.include_root_update_cost = true;
  options_.maintain.charge_root_update = true;
}

StatusOr<ExecResult> TracedDb::Execute(const std::string& sql) {
  std::vector<Statement> stmts;
  {
    ScopedSpan span("parser.parse");
    AUXVIEW_ASSIGN_OR_RETURN(stmts, ParseSql(sql));
  }
  if (stmts.empty()) return Status::InvalidArgument("empty statement");
  ExecResult last;
  for (const Statement& stmt : stmts) {
    AUXVIEW_ASSIGN_OR_RETURN(last, ExecuteOne(stmt));
    if (last.rejected()) break;
  }
  return last;
}

StatusOr<ExecResult> TracedDb::ExecuteOne(const Statement& stmt) {
  switch (stmt.kind) {
    case Statement::Kind::kCreateTable: {
      if (manager_ != nullptr) {
        return Status::FailedPrecondition(
            "schema changes after Prepare are not supported");
      }
      AUXVIEW_RETURN_IF_ERROR(binder_.Bind(stmt));
      AUXVIEW_ASSIGN_OR_RETURN(TableDef def,
                               catalog_.GetTable(stmt.create_table->name));
      AUXVIEW_RETURN_IF_ERROR(db_.CreateTable(std::move(def)).status());
      return ExecResult{};
    }
    case Statement::Kind::kCreateView:
    case Statement::Kind::kCreateAssertion:
      if (manager_ != nullptr) {
        return Status::FailedPrecondition(
            "view/assertion changes after Prepare are not supported");
      }
      AUXVIEW_RETURN_IF_ERROR(binder_.Bind(stmt));
      return ExecResult{};
    case Statement::Kind::kSelect: {
      ScopedSpan span("api.stmt");
      return ExecuteSelect(*stmt.select);
    }
    case Statement::Kind::kInsert:
    case Statement::Kind::kDelete:
    case Statement::Kind::kUpdate: {
      ScopedSpan span(manager_ == nullptr ? "storage.load" : "api.stmt");
      return ApplyDml(stmt);
    }
  }
  return Status::Internal("unhandled statement kind");
}

StatusOr<ExecResult> TracedDb::ExecuteSelect(const SelectQuery& query) {
  ExecResult result;
  result.kind = ExecResult::Kind::kRows;
  const bool mv_shortcut =
      manager_ != nullptr && query.from.size() == 1 &&
      query.items.size() == 1 && query.items[0].star &&
      query.where == nullptr && query.group_by.empty() && !query.distinct &&
      roots_.find(query.from[0]) != roots_.end();
  if (mv_shortcut) {
    AUXVIEW_ASSIGN_OR_RETURN(Relation rows,
                             manager_->ViewContents(roots_.at(query.from[0])));
    result.rows = std::move(rows);
    return result;
  }
  AUXVIEW_ASSIGN_OR_RETURN(Expr::Ptr tree, binder_.BindSelect(query));
  Executor executor(&db_);
  ScopedSpan span("exec.select");
  AUXVIEW_ASSIGN_OR_RETURN(Relation rows, executor.Execute(*tree));
  result.rows = std::move(rows);
  return result;
}

StatusOr<std::vector<Row>> TracedDb::MatchingRows(const Table& table,
                                                  const SqlExpr::Ptr& where) {
  ScopedSpan span("api.match");
  match_rows_ += table.distinct_rows();
  ++match_calls_;
  return dml::MatchingRows(table, where);
}

StatusOr<ConcreteTxn> TracedDb::BuildConcreteTxn(const Statement& stmt,
                                                 TransactionType* type) {
  ConcreteTxn txn;
  UpdateSpec spec;
  TableUpdate update;
  switch (stmt.kind) {
    case Statement::Kind::kInsert: {
      const InsertStmt& ins = *stmt.insert;
      const Table* t = db_.FindTable(ins.table);
      if (t == nullptr) return Status::NotFound("no such table: " + ins.table);
      update.relation = ins.table;
      for (const auto& exprs : ins.rows) {
        if (static_cast<int>(exprs.size()) != t->schema().num_columns()) {
          return Status::InvalidArgument("INSERT arity mismatch for " +
                                         ins.table);
        }
        Row row;
        for (size_t i = 0; i < exprs.size(); ++i) {
          AUXVIEW_ASSIGN_OR_RETURN(Value v, dml::EvalConstant(exprs[i]));
          AUXVIEW_ASSIGN_OR_RETURN(
              v, dml::Coerce(v, t->schema().column(static_cast<int>(i)).type,
                             t->schema().column(static_cast<int>(i)).name));
          row.push_back(std::move(v));
        }
        update.inserts.emplace_back(std::move(row), 1);
      }
      spec.relation = ins.table;
      spec.kind = UpdateKind::kInsert;
      spec.count = static_cast<double>(ins.rows.size());
      txn.type_name = "insert:" + ins.table;
      break;
    }
    case Statement::Kind::kDelete: {
      const DeleteStmt& del = *stmt.del;
      const Table* t = db_.FindTable(del.table);
      if (t == nullptr) return Status::NotFound("no such table: " + del.table);
      AUXVIEW_ASSIGN_OR_RETURN(std::vector<Row> victims,
                               MatchingRows(*t, del.where));
      update.relation = del.table;
      for (const Row& row : victims) {
        update.deletes.emplace_back(row, t->CountOf(row));
      }
      spec.relation = del.table;
      spec.kind = UpdateKind::kDelete;
      spec.count = std::max<double>(1, static_cast<double>(victims.size()));
      txn.type_name = "delete:" + del.table;
      break;
    }
    case Statement::Kind::kUpdate: {
      const UpdateStmt& upd = *stmt.update;
      const Table* t = db_.FindTable(upd.table);
      if (t == nullptr) return Status::NotFound("no such table: " + upd.table);
      AUXVIEW_ASSIGN_OR_RETURN(std::vector<Row> victims,
                               MatchingRows(*t, upd.where));
      update.relation = upd.table;
      std::vector<std::pair<int, Scalar::Ptr>> sets;
      for (const auto& [col, expr] : upd.sets) {
        const int idx = t->schema().IndexOf(col);
        if (idx < 0) return Status::InvalidArgument("unknown column: " + col);
        AUXVIEW_ASSIGN_OR_RETURN(
            Scalar::Ptr scalar,
            dml::ToTableScalar(expr, upd.table, t->schema()));
        sets.emplace_back(idx, std::move(scalar));
        spec.modified_attrs.push_back(col);
      }
      for (const Row& old_row : victims) {
        Row new_row = old_row;
        for (const auto& [idx, scalar] : sets) {
          AUXVIEW_ASSIGN_OR_RETURN(Value v, scalar->Eval(old_row, t->schema()));
          AUXVIEW_ASSIGN_OR_RETURN(
              v, dml::Coerce(v, t->schema().column(idx).type,
                             t->schema().column(idx).name));
          new_row[static_cast<size_t>(idx)] = std::move(v);
        }
        if (!RowEq()(old_row, new_row)) {
          update.modifies.emplace_back(old_row, new_row);
        }
      }
      spec.relation = upd.table;
      spec.kind = UpdateKind::kModify;
      spec.count = std::max<double>(1, static_cast<double>(victims.size()));
      txn.type_name = "update:" + upd.table;
      break;
    }
    default:
      return Status::Internal("not a DML statement");
  }
  txn.updates.push_back(std::move(update));
  type->name = txn.type_name;
  type->weight = 1;
  type->updates = {std::move(spec)};
  return txn;
}

Status TracedDb::ApplyDirect(const ConcreteTxn& txn) {
  WriteAheadLog* wal = db_.wal();
  uint64_t lsn = 0;
  if (wal != nullptr && !wal->replaying()) {
    AUXVIEW_ASSIGN_OR_RETURN(lsn, wal->AppendTxn(txn));
  }
  UndoLog undo;
  Status applied;
  {
    ScopedUndo undo_scope(&db_, &undo, &catalog_);
    applied = db_.ApplyTxnDirect(txn);
  }
  if (!applied.ok()) {
    AUXVIEW_RETURN_IF_ERROR(undo.RollBack());
    if (lsn != 0) (void)wal->AppendAbort(lsn);
    return applied;
  }
  undo.Commit();
  return Status::Ok();
}

StatusOr<UpdateTrack> TracedDb::TrackFor(const TransactionType& type) {
  std::string key = type.name;
  for (const UpdateSpec& spec : type.updates) {
    key += "|" + spec.relation + ":" + UpdateKindName(spec.kind) + ":" +
           Join(spec.modified_attrs, ",") + ":" +
           std::to_string(static_cast<int>(spec.count));
  }
  auto it = track_cache_.find(key);
  if (it != track_cache_.end()) return it->second;
  ScopedSpan span("optimizer.best_track");
  ++best_track_calls_;
  AUXVIEW_ASSIGN_OR_RETURN(
      TxnPlan plan, selector_->BestTrack(plan_.views, type, options_.optimize));
  track_cache_[key] = plan.track;
  return plan.track;
}

StatusOr<ExecResult> TracedDb::ApplyDml(const Statement& stmt) {
  TransactionType type;
  AUXVIEW_ASSIGN_OR_RETURN(ConcreteTxn txn, BuildConcreteTxn(stmt, &type));
  ExecResult result;
  result.kind = ExecResult::Kind::kDml;
  for (const TableUpdate& u : txn.updates) {
    result.affected += static_cast<int64_t>(u.inserts.size()) +
                       static_cast<int64_t>(u.deletes.size()) +
                       static_cast<int64_t>(u.modifies.size());
  }
  if (result.affected == 0) return result;
  if (manager_ == nullptr) {
    AUXVIEW_RETURN_IF_ERROR(ApplyDirect(txn));
    return result;
  }
  AUXVIEW_ASSIGN_OR_RETURN(UpdateTrack track, TrackFor(type));
  const NestedSums before = NestedSums::Read();
  const int apply = BeginSpan("maintain.apply");
  const Status applied = manager_->ApplyTransaction(txn, type, track);
  EndSpan(apply);
  if (apply >= 0) {
    AddNestedSpans(CurrentTrace().tracer, apply, NestedSums::Read() - before);
  }
  if (!applied.ok()) {
    if (applied.code() == StatusCode::kAborted &&
        !manager_->aborted_assertion().empty()) {
      result.violated_assertion = manager_->aborted_assertion();
      result.affected = 0;
      return result;
    }
    return applied;
  }
  return result;
}

Status TracedDb::Checkpoint() {
  WriteAheadLog* wal = db_.wal();
  if (wal == nullptr) {
    return Status::FailedPrecondition("no write-ahead log attached");
  }
  ScopedSpan span("wal.checkpoint");
  return wal->WriteCheckpoint(BuildCheckpointImage(db_, &catalog_));
}

Status TracedDb::Prepare() {
  if (manager_ != nullptr) return Status::FailedPrecondition("already prepared");
  if (binder_.views().empty() && binder_.assertions().empty()) {
    return Status::FailedPrecondition(
        "declare at least one view or assertion before Prepare");
  }
  for (const std::string& name : db_.TableNames()) {
    ScopedSpan span("catalog.stats");
    AUXVIEW_ASSIGN_OR_RETURN(RelationStats stats, db_.RefreshStats(name));
    AUXVIEW_RETURN_IF_ERROR(catalog_.SetStats(name, stats));
  }

  memo_ = std::make_unique<Memo>();
  std::vector<GroupId> roots;
  {
    ScopedSpan span("memo.expand");
    for (const BoundView& view : binder_.views()) {
      AUXVIEW_ASSIGN_OR_RETURN(GroupId g, memo_->AddTree(view.expr));
      roots_.emplace(view.name, g);
      roots.push_back(g);
    }
    for (const BoundAssertion& assertion : binder_.assertions()) {
      AUXVIEW_ASSIGN_OR_RETURN(GroupId g, memo_->AddTree(assertion.expr));
      roots_.emplace(assertion.name, g);
      roots.push_back(g);
    }
    const auto rules = DefaultRuleSet();
    AUXVIEW_RETURN_IF_ERROR(
        ExpandMemo(memo_.get(), catalog_, rules, options_.expand).status());
    for (auto& [name, g] : roots_) g = memo_->Find(g);
    for (GroupId& g : roots) g = memo_->Find(g);
  }

  if (workload_.empty()) {
    for (const std::string& name : db_.TableNames()) {
      TransactionType txn;
      txn.name = ">" + name;
      txn.weight = 1;
      txn.updates.push_back(UpdateSpec{name, UpdateKind::kModify, 1, {}, {}});
      workload_.push_back(std::move(txn));
    }
  }

  selector_ = std::make_unique<ViewSelector>(memo_.get(), &catalog_);
  {
    // Session::Prepare's strategy is kExhaustive by default, which always
    // takes the multi-view path.
    ScopedSpan span("optimizer.select");
    AUXVIEW_ASSIGN_OR_RETURN(
        plan_,
        selector_->ExhaustiveMultiView(roots, workload_, options_.optimize));
  }
  for (GroupId g : roots) plan_.views.insert(g);

  manager_ = std::make_unique<ViewManager>(memo_.get(), &catalog_, &db_,
                                           options_.maintain);
  manager_->set_mutable_catalog(&catalog_);
  for (const BoundAssertion& assertion : binder_.assertions()) {
    AUXVIEW_ASSIGN_OR_RETURN(GroupId g, GroupOf(assertion.name));
    manager_->DeclareAssertion(assertion.name, g);
  }
  {
    ScopedSpan span("maintain.materialize");
    AUXVIEW_RETURN_IF_ERROR(manager_->Materialize(plan_.views));
  }
  if (db_.wal() != nullptr && !db_.wal()->replaying()) {
    AUXVIEW_RETURN_IF_ERROR(Checkpoint());
  }
  return Status::Ok();
}

StatusOr<GroupId> TracedDb::GroupOf(const std::string& name) const {
  auto it = roots_.find(name);
  if (it == roots_.end()) {
    return Status::NotFound("no such view or assertion: " + name);
  }
  return it->second;
}

Status TracedDb::EnableConcurrency() {
  if (manager_ == nullptr) {
    return Status::FailedPrecondition("EnableConcurrency requires Prepare");
  }
  if (controller_ != nullptr) return Status::Ok();
  controller_ = std::make_unique<ConcurrencyController>(
      &catalog_, &db_, manager_.get(), workload_,
      [this](const TransactionType& type) -> StatusOr<UpdateTrack> {
        // The controller calls this under the commit mutex, just before
        // ApplyTransaction: the reading splits the maintenance histograms
        // between consecutive commits.
        Tracer* tracer = CurrentTrace().tracer;
        {
          std::lock_guard<std::mutex> lock(probes_mu_);
          probes_.push_back(CommitProbe{
              tracer, tracer == nullptr ? -1 : tracer->open_span(),
              NestedSums::Read()});
        }
        return TrackFor(type);
      });
  return Status::Ok();
}

StatusOr<std::unique_ptr<TracedWriter>> TracedDb::OpenSession() {
  if (controller_ == nullptr) {
    return Status::FailedPrecondition(
        "call EnableConcurrency before OpenSession");
  }
  return std::unique_ptr<TracedWriter>(
      new TracedWriter(this, controller_.get()));
}

void TracedDb::FinishCommitProbes() {
  std::lock_guard<std::mutex> lock(probes_mu_);
  const NestedSums end = NestedSums::Read();
  for (size_t k = 0; k < probes_.size(); ++k) {
    const CommitProbe& p = probes_[k];
    if (p.tracer == nullptr || p.commit_span < 0) continue;
    NestedSums delta =
        (k + 1 < probes_.size() ? probes_[k + 1].sums : end) - p.sums;
    // The reader thread runs executor kernels concurrently, so kernel sums
    // between two commits are not this commit's.
    for (double& us : delta.kernel_us) us = 0;
    const Span commit = p.tracer->spans()[static_cast<size_t>(p.commit_span)];
    const double start =
        std::max(commit.start_us, commit.end_us - delta.apply_us);
    const int apply = p.tracer->Add("maintain.apply", start, commit.end_us,
                                    p.commit_span, commit.unit);
    AddNestedSpans(p.tracer, apply, delta);
  }
  probes_.clear();
}

StatusOr<std::vector<AssertionCheck>> TracedDb::CheckAssertions() const {
  AssertionChecker checker(manager_.get());
  std::vector<AssertionCheck> out;
  for (const BoundAssertion& assertion : binder_.assertions()) {
    AUXVIEW_ASSIGN_OR_RETURN(GroupId g, GroupOf(assertion.name));
    AUXVIEW_ASSIGN_OR_RETURN(AssertionCheck check,
                             checker.Check(assertion.name, g));
    out.push_back(std::move(check));
  }
  return out;
}

// ----------------------------------------------------------------------------
// TracedWriter: TxnSession's code paths.

StatusOr<ExecResult> TracedWriter::Execute(const std::string& sql) {
  std::vector<Statement> stmts;
  {
    ScopedSpan span("parser.parse");
    AUXVIEW_ASSIGN_OR_RETURN(stmts, ParseSql(sql));
  }
  if (stmts.empty()) return Status::InvalidArgument("empty statement");
  ExecResult last;
  for (const Statement& stmt : stmts) {
    switch (stmt.kind) {
      case Statement::Kind::kSelect: {
        ScopedSpan span("concurrency.snapshot_read");
        AUXVIEW_ASSIGN_OR_RETURN(last, ExecuteSelect(*stmt.select));
        break;
      }
      case Statement::Kind::kInsert:
      case Statement::Kind::kDelete:
      case Statement::Kind::kUpdate: {
        ScopedSpan span("concurrency.stage");
        AUXVIEW_ASSIGN_OR_RETURN(last, ApplyDml(stmt));
        break;
      }
      default:
        return Status::FailedPrecondition(
            "DDL runs on the owning Session, not a concurrent TxnSession");
    }
  }
  return last;
}

StatusOr<ExecResult> TracedWriter::ExecuteSelect(const SelectQuery& query) {
  ExecResult result;
  result.kind = ExecResult::Kind::kRows;
  if (query.from.size() == 1 && query.items.size() == 1 &&
      query.items[0].star && query.where == nullptr &&
      query.group_by.empty() && !query.distinct) {
    auto it = owner_->roots_.find(query.from[0]);
    if (it != owner_->roots_.end()) {
      const std::string mv_name = MaterializedViewName(it->second);
      const Table* table = writer_.ResolveTable(mv_name);
      if (table == nullptr) {
        return Status::Internal("materialized view missing from snapshot: " +
                                mv_name);
      }
      writer_.footprint().AddScanRead(mv_name);
      Relation rows(table->schema());
      for (const CountedRow& cr : table->SnapshotUncharged()) {
        rows.Add(cr.row, cr.count);
      }
      result.rows = std::move(rows);
      return result;
    }
  }
  AUXVIEW_ASSIGN_OR_RETURN(Expr::Ptr tree, owner_->binder_.BindSelect(query));
  std::vector<std::string> scans;
  CollectScanTables(*tree, &scans);
  for (const std::string& name : scans) {
    writer_.footprint().AddScanRead(name);
  }
  Executor executor(&writer_);
  AUXVIEW_ASSIGN_OR_RETURN(Relation rows, executor.Execute(*tree));
  result.rows = std::move(rows);
  return result;
}

StatusOr<std::vector<Row>> TracedWriter::MatchingRows(
    const std::string& table, const SqlExpr::Ptr& where) {
  const Table* t = writer_.ResolveTable(table);
  if (t == nullptr) return Status::NotFound("no such table: " + table);
  if (auto equalities = dml::ExtractEqualities(where, t->schema())) {
    writer_.footprint().AddKeyRead(table, *std::move(equalities));
  } else {
    writer_.footprint().AddScanRead(table);
  }
  return owner_->MatchingRows(*t, where);
}

StatusOr<ExecResult> TracedWriter::ApplyDml(const Statement& stmt) {
  ExecResult result;
  result.kind = ExecResult::Kind::kDml;
  switch (stmt.kind) {
    case Statement::Kind::kInsert: {
      const InsertStmt& ins = *stmt.insert;
      const Table* t = writer_.ResolveTable(ins.table);
      if (t == nullptr) return Status::NotFound("no such table: " + ins.table);
      const Schema schema = t->schema();
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
      AUXVIEW_ASSIGN_OR_RETURN(std::vector<Row> victims,
                               MatchingRows(del.table, del.where));
      for (const Row& row : victims) {
        const Table* t = writer_.ResolveTable(del.table);
        AUXVIEW_RETURN_IF_ERROR(writer_.Delete(del.table, row, t->CountOf(row)));
        ++result.affected;
      }
      return result;
    }
    case Statement::Kind::kUpdate: {
      const UpdateStmt& upd = *stmt.update;
      const Table* t = writer_.ResolveTable(upd.table);
      if (t == nullptr) return Status::NotFound("no such table: " + upd.table);
      const Schema schema = t->schema();
      AUXVIEW_ASSIGN_OR_RETURN(std::vector<Row> victims,
                               MatchingRows(upd.table, upd.where));
      std::vector<std::pair<int, Scalar::Ptr>> sets;
      for (const auto& [col, expr] : upd.sets) {
        const int idx = schema.IndexOf(col);
        if (idx < 0) return Status::InvalidArgument("unknown column: " + col);
        AUXVIEW_ASSIGN_OR_RETURN(Scalar::Ptr scalar,
                                 dml::ToTableScalar(expr, upd.table, schema));
        sets.emplace_back(idx, std::move(scalar));
      }
      for (const Row& old_row : victims) {
        Row new_row = old_row;
        for (const auto& [idx, scalar] : sets) {
          AUXVIEW_ASSIGN_OR_RETURN(Value v, scalar->Eval(old_row, schema));
          AUXVIEW_ASSIGN_OR_RETURN(v, dml::Coerce(v, schema.column(idx).type,
                                                  schema.column(idx).name));
          new_row[static_cast<size_t>(idx)] = std::move(v);
        }
        if (RowEq()(old_row, new_row)) continue;
        const Table* current = writer_.ResolveTable(upd.table);
        AUXVIEW_RETURN_IF_ERROR(writer_.Modify(upd.table, old_row, new_row,
                                               current->CountOf(old_row)));
        ++result.affected;
      }
      return result;
    }
    default:
      return Status::Internal("not a DML statement");
  }
}

StatusOr<CommitOutcome> TracedWriter::Commit() {
  ScopedSpan span("concurrency.commit");
  AUXVIEW_ASSIGN_OR_RETURN(CommitOutcome outcome, writer_.Commit());
  if (outcome.kind == CommitOutcome::Kind::kRejected) Abort();
  return outcome;
}

}  // namespace e2ebench
