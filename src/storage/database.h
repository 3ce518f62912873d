#ifndef AUXVIEW_STORAGE_DATABASE_H_
#define AUXVIEW_STORAGE_DATABASE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "storage/page_counter.h"
#include "storage/table.h"

namespace auxview {

struct ConcreteTxn;
struct DatabaseOptions;
struct WalRecovery;
class WriteAheadLog;

/// Read-only table lookup. The executor resolves Scan leaves through this
/// interface, so a query can run against the live database, an immutable
/// snapshot, or a writer's snapshot-plus-delta overlay (src/concurrency/)
/// with the same operator code.
class TableSource {
 public:
  virtual ~TableSource() = default;

  /// The table serving reads of `name`; nullptr when absent.
  virtual const Table* ResolveTable(const std::string& name) const = 0;
};

/// A collection of stored relations sharing one page-I/O counter. Holds both
/// base relations and materialized views (views are stored tables whose
/// definitions live in the view manager). Optionally backed by a durable
/// write-ahead log (see storage/wal/wal.h).
class Database : public TableSource {
 public:
  Database();
  ~Database() override;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Creates an empty table; fails on duplicates.
  StatusOr<Table*> CreateTable(TableDef def);

  /// Drops a table; fails with NotFound when absent.
  Status DropTable(const std::string& name);

  /// nullptr when absent.
  Table* FindTable(const std::string& name);
  const Table* FindTable(const std::string& name) const;

  const Table* ResolveTable(const std::string& name) const override {
    return FindTable(name);
  }

  bool HasTable(const std::string& name) const {
    return FindTable(name) != nullptr;
  }

  std::vector<std::string> TableNames() const;

  /// Metric scope label. A process hosting several databases labels each one
  /// so per-relation counters stay distinguishable: an unlabeled database
  /// charges `storage.rel.<table>.*`, a labeled one
  /// `storage.rel.<label>.<table>.*` (docs/OBSERVABILITY.md). Must be set
  /// before the first CreateTable; tables created earlier keep their names.
  void set_label(std::string label) { label_ = std::move(label); }
  const std::string& label() const { return label_; }

  PageCounter& counter() { return counter_; }
  const PageCounter& counter() const { return counter_; }

  /// Refreshes catalog-style statistics for table `name` from its contents.
  StatusOr<RelationStats> RefreshStats(const std::string& name) const;

  /// Attaches a write-ahead log rooted at `options.wal_dir`, scanning any
  /// existing durable state. At most one log per database; fails if one is
  /// already attached.
  Status OpenWal(const DatabaseOptions& options);

  /// nullptr when no log is attached.
  WriteAheadLog* wal() { return wal_.get(); }
  const WriteAheadLog* wal() const { return wal_.get(); }

  /// Loads the log's latest checkpoint into this database's tables (creating
  /// them, or filling tables that already exist empty with a matching
  /// schema) and hands back the staged post-checkpoint transactions for the
  /// caller to replay. Unblocks appends.
  Status Recover(WalRecovery* out);

  /// Applies a concrete transaction's updates straight to the stored tables
  /// without charging page I/O — the load/recovery path, not the maintained
  /// commit path.
  Status ApplyTxnDirect(const ConcreteTxn& txn);

 private:
  PageCounter counter_;
  std::string label_;
  std::map<std::string, std::unique_ptr<Table>> tables_;
  std::unique_ptr<WriteAheadLog> wal_;
};

}  // namespace auxview

#endif  // AUXVIEW_STORAGE_DATABASE_H_
