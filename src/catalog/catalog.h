#ifndef AUXVIEW_CATALOG_CATALOG_H_
#define AUXVIEW_CATALOG_CATALOG_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "catalog/fd.h"
#include "catalog/schema.h"
#include "catalog/statistics.h"
#include "common/status.h"

namespace auxview {

/// A secondary (or primary) hash index over a list of attributes.
struct IndexDef {
  std::vector<std::string> attrs;

  std::string ToString() const;
};

/// Definition of a base relation: schema, primary key, indexes, statistics.
struct TableDef {
  std::string name;
  Schema schema;
  /// Primary key attributes (may be empty for keyless relations).
  std::vector<std::string> primary_key;
  std::vector<IndexDef> indexes;
  RelationStats stats;

  /// True if an index with exactly these attributes (in any order) exists.
  bool HasIndexOn(const std::set<std::string>& attrs) const;

  /// Functional dependencies implied by the primary key.
  FdSet Fds() const;
};

/// The schema catalog: base relation definitions keyed by name.
class Catalog {
 public:
  /// Registers a table; fails with AlreadyExists on duplicates.
  Status AddTable(TableDef def);

  /// nullptr when absent.
  const TableDef* FindTable(const std::string& name) const;

  StatusOr<TableDef> GetTable(const std::string& name) const;

  bool HasTable(const std::string& name) const {
    return FindTable(name) != nullptr;
  }

  std::vector<std::string> TableNames() const;

  /// Replaces the statistics of an existing table.
  Status SetStats(const std::string& name, RelationStats stats);

  /// Monotonic version of the catalog's cost-relevant contents; bumped by
  /// every AddTable and SetStats. Consumers that cache values derived from
  /// table statistics (the optimizer's TrackCostCache, see
  /// docs/OPTIMIZER.md) compare epochs to decide when to invalidate.
  uint64_t stats_epoch() const { return stats_epoch_; }

  /// A point-in-time copy of every table's statistics plus the epoch, taken
  /// at transaction start so an aborted transaction's stat refreshes can be
  /// rolled back along with its data (see UndoLog::SnapshotCatalog).
  struct StatsSnapshot {
    uint64_t epoch = 0;
    std::map<std::string, RelationStats> stats;
  };

  StatsSnapshot SnapshotStats() const;

  /// Restores statistics (and the epoch) captured by SnapshotStats. Tables
  /// added since the snapshot keep their current stats — AddTable is not a
  /// transactional operation.
  void RestoreStats(const StatsSnapshot& snapshot);

 private:
  std::map<std::string, TableDef> tables_;
  uint64_t stats_epoch_ = 0;
};

}  // namespace auxview

#endif  // AUXVIEW_CATALOG_CATALOG_H_
