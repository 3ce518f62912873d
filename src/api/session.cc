#include "api/session.h"

#include <algorithm>

#include "api/dml_util.h"
#include "api/txn_session.h"
#include "common/string_util.h"
#include "delta/transaction.h"
#include "exec/executor.h"
#include "maintain/assertion.h"
#include "maintain/delta_engine.h"
#include "obs/metrics.h"
#include "parser/parser.h"
#include "storage/undo_log.h"

namespace auxview {

Session::Session(SessionOptions options)
    : options_(std::move(options)), binder_(&catalog_) {
  // In a Session every root is a user-facing materialized view; its update
  // costs are real, both in the estimates and at the I/O counter (unlike
  // the paper's worked example, which excludes the assertion view).
  options_.optimize.cost.include_root_update_cost = true;
  options_.maintain.charge_root_update = true;
  if (!options_.durability.wal_dir.empty()) {
    // Constructors can't fail; the first Execute/Prepare/Recover surfaces
    // an open error instead of silently running without durability.
    wal_status_ = db_.OpenWal(options_.durability);
  }
}

Status Session::OpenWal(const DatabaseOptions& options) {
  AUXVIEW_RETURN_IF_ERROR(wal_status_);
  if (prepared()) {
    return Status::FailedPrecondition("attach the WAL before Prepare");
  }
  return db_.OpenWal(options);
}

void Session::DeclareWorkload(std::vector<TransactionType> txns) {
  workload_ = std::move(txns);
}

StatusOr<ExecResult> Session::Execute(const std::string& sql) {
  AUXVIEW_RETURN_IF_ERROR(wal_status_);
  AUXVIEW_ASSIGN_OR_RETURN(std::vector<Statement> stmts, ParseSql(sql));
  if (stmts.empty()) return Status::InvalidArgument("empty statement");
  ExecResult last;
  for (const Statement& stmt : stmts) {
    AUXVIEW_ASSIGN_OR_RETURN(last, ExecuteOne(stmt));
    if (last.rejected()) break;  // a rejected DML aborts the script
  }
  return last;
}

StatusOr<ExecResult> Session::ExecuteOne(const Statement& stmt) {
  switch (stmt.kind) {
    case Statement::Kind::kCreateTable: {
      if (prepared()) {
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
    case Statement::Kind::kCreateAssertion: {
      if (prepared()) {
        return Status::FailedPrecondition(
            "view/assertion changes after Prepare are not supported");
      }
      AUXVIEW_RETURN_IF_ERROR(binder_.Bind(stmt));
      return ExecResult{};
    }
    case Statement::Kind::kSelect:
      return ExecuteSelect(*stmt.select);
    case Statement::Kind::kInsert:
    case Statement::Kind::kDelete:
    case Statement::Kind::kUpdate:
      return ApplyDml(stmt);
  }
  return Status::Internal("unhandled statement kind");
}

StatusOr<ExecResult> Session::ExecuteSelect(const SelectQuery& query) {
  ExecResult result;
  result.kind = ExecResult::Kind::kRows;
  const bool mv_shortcut =
      prepared() && query.from.size() == 1 && query.items.size() == 1 &&
      query.items[0].star && query.where == nullptr &&
      query.group_by.empty() && !query.distinct &&
      roots_.find(query.from[0]) != roots_.end();
  // With concurrency enabled, reads run against the latest published
  // snapshot so they never race a commit mutating the live tables.
  if (controller_ != nullptr) {
    SnapshotRef snap = controller_->Pin();
    if (mv_shortcut) {
      const Table* table =
          snap->ResolveTable(MaterializedViewName(roots_.at(query.from[0])));
      if (table == nullptr) {
        return Status::Internal("materialized view missing from snapshot");
      }
      Relation rows(table->schema());
      for (const CountedRow& cr : table->SnapshotUncharged()) {
        rows.Add(cr.row, cr.count);
      }
      result.rows = std::move(rows);
      return result;
    }
    AUXVIEW_ASSIGN_OR_RETURN(Expr::Ptr tree, binder_.BindSelect(query));
    Executor executor(snap.get());
    AUXVIEW_ASSIGN_OR_RETURN(Relation rows, executor.Execute(*tree));
    result.rows = std::move(rows);
    return result;
  }
  // SELECT * FROM <maintained view>: serve straight from the materialized
  // table — the whole point of maintaining it.
  if (mv_shortcut) {
    AUXVIEW_ASSIGN_OR_RETURN(Relation rows,
                             manager_->ViewContents(roots_.at(query.from[0])));
    result.rows = std::move(rows);
    return result;
  }
  AUXVIEW_ASSIGN_OR_RETURN(Expr::Ptr tree, binder_.BindSelect(query));
  Executor executor(&db_);
  AUXVIEW_ASSIGN_OR_RETURN(Relation rows, executor.Execute(*tree));
  result.rows = std::move(rows);
  return result;
}

StatusOr<std::vector<Row>> Session::MatchingRows(const std::string& table,
                                                 const SqlExpr::Ptr& where) {
  const Table* t = db_.FindTable(table);
  if (t == nullptr) return Status::NotFound("no such table: " + table);
  return dml::MatchingRows(*t, where);
}

StatusOr<ConcreteTxn> Session::BuildConcreteTxn(const Statement& stmt,
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
      AUXVIEW_ASSIGN_OR_RETURN(std::vector<Row> victims,
                               MatchingRows(del.table, del.where));
      const Table* t = db_.FindTable(del.table);
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
                               MatchingRows(upd.table, upd.where));
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

Status Session::ApplyDirect(const ConcreteTxn& txn) {
  // Write-ahead, as in the maintained path: a load statement is durable
  // before it touches memory.
  WriteAheadLog* wal = db_.wal();
  uint64_t lsn = 0;
  if (wal != nullptr && !wal->replaying()) {
    AUXVIEW_ASSIGN_OR_RETURN(lsn, wal->AppendTxn(txn));
  }
  // Pre-Prepare loads are transactions too: a mid-statement failure
  // (e.g. deleting below multiplicity zero) must not leave half the rows in.
  UndoLog undo;
  Status applied;
  {
    ScopedUndo undo_scope(&db_, &undo, &catalog_);
    applied = db_.ApplyTxnDirect(txn);
  }
  if (!applied.ok()) {
    AUXVIEW_RETURN_IF_ERROR(undo.RollBack());
    if (lsn != 0) (void)wal->AppendAbort(lsn);  // best-effort compensation
    return applied;
  }
  undo.Commit();
  return Status::Ok();
}

StatusOr<UpdateTrack> Session::TrackFor(const TransactionType& type) {
  std::string key = type.name;
  for (const UpdateSpec& spec : type.updates) {
    key += "|" + spec.relation + ":" + UpdateKindName(spec.kind) + ":" +
           Join(spec.modified_attrs, ",") + ":" +
           std::to_string(static_cast<int>(spec.count));
  }
  auto it = track_cache_.find(key);
  if (it != track_cache_.end()) return it->second;
  AUXVIEW_ASSIGN_OR_RETURN(TxnPlan plan,
                           selector_->BestTrack(plan_.views, type,
                                                options_.optimize));
  track_cache_[key] = plan.track;
  return plan.track;
}

StatusOr<ExecResult> Session::ApplyDml(const Statement& stmt) {
  // With concurrency enabled, the whole statement — victim selection
  // against the live tables, track choice, commit — runs under the commit
  // mutex so it serializes with optimistic TxnSession commits (and the
  // selector's costing entry points stay single-threaded).
  std::unique_lock<std::mutex> funnel;
  if (controller_ != nullptr) {
    funnel = std::unique_lock<std::mutex>(controller_->commit_mutex());
  }
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

  if (!prepared()) {
    AUXVIEW_RETURN_IF_ERROR(ApplyDirect(txn));
    return result;
  }

  AUXVIEW_ASSIGN_OR_RETURN(UpdateTrack track, TrackFor(type));
  if (controller_ != nullptr) {
    AUXVIEW_ASSIGN_OR_RETURN(CommitOutcome outcome,
                             controller_->CommitSerialLocked(txn, type, track));
    if (outcome.kind == CommitOutcome::Kind::kRejected) {
      result.violated_assertion = outcome.detail;
      result.affected = 0;
      return result;
    }
    funnel.unlock();  // Checkpoint retakes the commit lock
    MaybeAutoCheckpoint();
    return result;
  }
  // Assertion enforcement happens inside the staged apply: the verdict is
  // computed against the pre-update state and a violating transaction is
  // rejected before a single row moves (Section 4's "abort before commit").
  Status applied = manager_->ApplyTransaction(txn, type, track);
  if (!applied.ok()) {
    if (applied.code() == StatusCode::kAborted &&
        !manager_->aborted_assertion().empty()) {
      result.violated_assertion = manager_->aborted_assertion();
      result.affected = 0;
      return result;
    }
    return applied;  // injected fault or genuine error — rolled back
  }
  MaybeAutoCheckpoint();
  return result;
}

void Session::MaybeAutoCheckpoint() {
  WriteAheadLog* wal = db_.wal();
  if (wal == nullptr || wal->replaying() || recovering_ || !prepared() ||
      !wal->ShouldAutoCheckpoint()) {
    return;
  }
  const Status st = Checkpoint();
  if (!st.ok()) {
    // Advisory: the statement already committed and the log alone still
    // recovers it — a failed compaction is a metric, not a statement error.
    obs::MetricsRegistry::Global()
        .GetCounter("wal.checkpoint_failures")
        ->Add(1);
  }
}

Status Session::Checkpoint() {
  AUXVIEW_RETURN_IF_ERROR(wal_status_);
  WriteAheadLog* wal = db_.wal();
  if (wal == nullptr) {
    return Status::FailedPrecondition("no write-ahead log attached");
  }
  if (!prepared()) {
    return Status::FailedPrecondition(
        "Checkpoint requires Prepare: a pre-Prepare image would freeze "
        "unrefreshed statistics and recovery could choose different views");
  }
  // Under concurrency the image must be a committed state — hold the funnel
  // while reading the tables.
  std::unique_lock<std::mutex> funnel;
  if (controller_ != nullptr) {
    funnel = std::unique_lock<std::mutex>(controller_->commit_mutex());
  }
  return wal->WriteCheckpoint(BuildCheckpointImage(db_, &catalog_));
}

Status Session::EnableConcurrency() {
  if (!prepared()) {
    return Status::FailedPrecondition(
        "EnableConcurrency requires Prepare: snapshots cover the "
        "materialized views too");
  }
  if (controller_ != nullptr) return Status::Ok();
  controller_ = std::make_unique<ConcurrencyController>(
      &catalog_, &db_, manager_.get(), workload_,
      [this](const TransactionType& type) { return TrackFor(type); });
  return Status::Ok();
}

StatusOr<std::unique_ptr<TxnSession>> Session::OpenSession() {
  if (controller_ == nullptr) {
    return Status::FailedPrecondition(
        "call EnableConcurrency before OpenSession");
  }
  return std::unique_ptr<TxnSession>(
      new TxnSession(this, controller_.get()));
}

Status Session::Recover() {
  AUXVIEW_RETURN_IF_ERROR(wal_status_);
  WriteAheadLog* wal = db_.wal();
  if (wal == nullptr) {
    return Status::FailedPrecondition("no write-ahead log attached");
  }
  if (prepared()) {
    return Status::FailedPrecondition("Recover must run before Prepare");
  }
  WalRecovery rec;
  AUXVIEW_RETURN_IF_ERROR(db_.Recover(&rec));
  recovery_info_ = RecoveryInfo{};
  recovery_info_.recovered = !rec.empty();
  recovery_info_.had_checkpoint = rec.has_checkpoint;
  recovery_info_.last_lsn = rec.last_lsn;
  recovery_info_.truncated_tail_bytes = rec.truncated_tail_bytes;
  if (rec.empty()) return Status::Ok();

  WalReplayGuard replay(wal);
  recovering_ = true;
  Status replayed = [&]() -> Status {
    if (rec.has_checkpoint) {
      // The checkpoint froze the catalog statistics the original Prepare
      // optimized with; restoring them (and skipping the refresh) makes the
      // re-run Prepare see identical inputs, hence identical views.
      for (const TableImage& t : rec.checkpoint.tables) {
        if (t.has_catalog_stats) {
          AUXVIEW_RETURN_IF_ERROR(
              catalog_.SetStats(t.def.name, t.catalog_stats));
        }
      }
      skip_stats_refresh_ = true;
      AUXVIEW_RETURN_IF_ERROR(Prepare());
      for (const WalRecord& r : rec.txns) {
        const TransactionType type =
            DeriveTransactionType(r.txn, workload_, catalog_);
        StatusOr<UpdateTrack> track = TrackFor(type);
        if (!track.ok()) {
          return Status::Internal("wal replay failed at lsn " +
                                  std::to_string(r.lsn) + ": " +
                                  track.status().ToString());
        }
        const Status applied = manager_->ApplyTransaction(r.txn, type, *track);
        if (!applied.ok()) {
          return Status::Internal("wal replay failed at lsn " +
                                  std::to_string(r.lsn) + ": " +
                                  applied.ToString());
        }
        ++recovery_info_.replayed;
      }
    } else {
      // No checkpoint: everything in the log predates Prepare, i.e. load
      // statements — apply them directly, as the original run did.
      for (const WalRecord& r : rec.txns) {
        const Status applied = ApplyDirect(r.txn);
        if (!applied.ok()) {
          return Status::Internal("wal replay failed at lsn " +
                                  std::to_string(r.lsn) + ": " +
                                  applied.ToString());
        }
        ++recovery_info_.replayed;
      }
    }
    return Status::Ok();
  }();
  recovering_ = false;
  AUXVIEW_RETURN_IF_ERROR(replayed);
  obs::MetricsRegistry::Global()
      .GetCounter("wal.recovered_txns")
      ->Add(recovery_info_.replayed);
  if (rec.has_checkpoint) {
    // Fold the replayed suffix into a fresh checkpoint so the next recovery
    // starts from here.
    AUXVIEW_RETURN_IF_ERROR(Checkpoint());
  }
  return Status::Ok();
}

Status Session::Prepare() {
  AUXVIEW_RETURN_IF_ERROR(wal_status_);
  if (prepared()) return Status::FailedPrecondition("already prepared");
  if (binder_.views().empty() && binder_.assertions().empty()) {
    return Status::FailedPrecondition(
        "declare at least one view or assertion before Prepare");
  }
  // Refresh statistics from the loaded data — unless recovery restored the
  // checkpoint-time statistics, which must be optimized with as-is.
  if (!skip_stats_refresh_) {
    for (const std::string& name : db_.TableNames()) {
      AUXVIEW_ASSIGN_OR_RETURN(RelationStats stats, db_.RefreshStats(name));
      AUXVIEW_RETURN_IF_ERROR(catalog_.SetStats(name, stats));
    }
  }

  // One expression DAG, multiple roots (Section 6).
  memo_ = std::make_unique<Memo>();
  std::vector<GroupId> roots;
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
  // Group merges may have collapsed roots.
  for (auto& [name, g] : roots_) g = memo_->Find(g);
  for (GroupId& g : roots) g = memo_->Find(g);

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
  StatusOr<OptimizeResult> plan = [&]() -> StatusOr<OptimizeResult> {
    if (roots.size() == 1 &&
        options_.strategy != Strategy::kExhaustive) {
      memo_->set_root(roots[0]);
      switch (options_.strategy) {
        case Strategy::kShielding:
          return selector_->Shielding(workload_, options_.optimize);
        case Strategy::kSingleTree:
          return selector_->SingleTree(workload_, options_.optimize);
        case Strategy::kHeuristicMarking:
          return selector_->HeuristicMarking(workload_, options_.optimize);
        case Strategy::kGreedy:
          return selector_->Greedy(workload_, options_.optimize);
        default:
          break;
      }
    }
    return selector_->ExhaustiveMultiView(roots, workload_,
                                          options_.optimize);
  }();
  AUXVIEW_RETURN_IF_ERROR(plan.status());
  plan_ = std::move(plan).value();
  for (GroupId g : roots) plan_.views.insert(g);

  manager_ = std::make_unique<ViewManager>(memo_.get(), &catalog_, &db_,
                                           options_.maintain);
  // Group-level rollback of optimizer state: aborted transactions restore
  // any statistics refreshed while they ran.
  manager_->set_mutable_catalog(&catalog_);
  for (const BoundAssertion& assertion : binder_.assertions()) {
    AUXVIEW_ASSIGN_OR_RETURN(GroupId g, GroupOf(assertion.name));
    manager_->DeclareAssertion(assertion.name, g);
  }
  AUXVIEW_RETURN_IF_ERROR(manager_->Materialize(plan_.views));
  // The initial checkpoint: freezes the loaded base tables and refreshed
  // statistics, making the bulk-load log prefix redundant. Skipped during
  // recovery's internal Prepare (Recover writes its own at the end).
  WriteAheadLog* wal = db_.wal();
  if (wal != nullptr && !wal->replaying() && !recovering_) {
    AUXVIEW_RETURN_IF_ERROR(Checkpoint());
  }
  return Status::Ok();
}

StatusOr<GroupId> Session::GroupOf(const std::string& name) const {
  auto it = roots_.find(name);
  if (it == roots_.end()) {
    return Status::NotFound("no such view or assertion: " + name);
  }
  return it->second;
}

StatusOr<Relation> Session::ViewContents(const std::string& name) const {
  if (!prepared()) return Status::FailedPrecondition("call Prepare first");
  AUXVIEW_ASSIGN_OR_RETURN(GroupId g, GroupOf(name));
  return manager_->ViewContents(g);
}

StatusOr<std::vector<AssertionCheck>> Session::CheckAssertions() const {
  if (!prepared()) return Status::FailedPrecondition("call Prepare first");
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

Status Session::CheckConsistency() const {
  if (!prepared()) return Status::FailedPrecondition("call Prepare first");
  return manager_->CheckConsistency();
}

}  // namespace auxview
