#include "storage/database.h"

#include "common/check.h"
#include "maintain/concrete.h"
#include "storage/wal/wal.h"

namespace auxview {

Database::Database() = default;
Database::~Database() = default;

StatusOr<Table*> Database::CreateTable(TableDef def) {
  if (tables_.count(def.name) > 0) {
    return Status::AlreadyExists("table already exists: " + def.name);
  }
  const std::string name = def.name;
  auto table = std::make_unique<Table>(std::move(def), &counter_, label_);
  Table* raw = table.get();
  tables_.emplace(name, std::move(table));
  return raw;
}

Status Database::DropTable(const std::string& name) {
  if (tables_.erase(name) == 0) {
    return Status::NotFound("no such table: " + name);
  }
  return Status::Ok();
}

Table* Database::FindTable(const std::string& name) {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

const Table* Database::FindTable(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

std::vector<std::string> Database::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  return names;
}

StatusOr<RelationStats> Database::RefreshStats(const std::string& name) const {
  const Table* table = FindTable(name);
  if (table == nullptr) return Status::NotFound("no such table: " + name);
  return table->ComputeStats();
}

Status Database::OpenWal(const DatabaseOptions& options) {
  if (wal_ != nullptr) {
    return Status::FailedPrecondition("a write-ahead log is already attached");
  }
  AUXVIEW_ASSIGN_OR_RETURN(wal_, WriteAheadLog::Open(options));
  return Status::Ok();
}

Status Database::Recover(WalRecovery* out) {
  if (wal_ == nullptr) {
    return Status::FailedPrecondition("no write-ahead log attached");
  }
  WalRecovery rec = wal_->TakeRecovery();
  if (rec.has_checkpoint) {
    for (const TableImage& img : rec.checkpoint.tables) {
      Table* table = FindTable(img.def.name);
      if (table == nullptr) {
        AUXVIEW_ASSIGN_OR_RETURN(table, CreateTable(img.def));
      } else if (!table->empty()) {
        return Status::FailedPrecondition(
            "cannot recover into non-empty table: " + img.def.name);
      } else if (table->schema().num_columns() !=
                 img.def.schema.num_columns()) {
        return Status::Internal("recovered schema mismatch for table: " +
                                img.def.name);
      }
      ScopedCountingDisabled uncharged(&counter_);
      for (const auto& [row, count] : img.rows) {
        AUXVIEW_RETURN_IF_ERROR(table->Insert(row, count));
      }
    }
  }
  *out = std::move(rec);
  return Status::Ok();
}

Status Database::ApplyTxnDirect(const ConcreteTxn& txn) {
  for (const TableUpdate& update : txn.updates) {
    Table* table = FindTable(update.relation);
    if (table == nullptr) {
      return Status::NotFound("no such table: " + update.relation);
    }
    ScopedCountingDisabled uncharged(&counter_);
    for (const auto& [row, count] : update.inserts) {
      AUXVIEW_RETURN_IF_ERROR(table->Insert(row, count));
    }
    for (const auto& [row, count] : update.deletes) {
      AUXVIEW_RETURN_IF_ERROR(table->Delete(row, count));
    }
    AUXVIEW_RETURN_IF_ERROR(table->ModifyBatch(update.modifies));
  }
  return Status::Ok();
}

}  // namespace auxview
