#include "catalog/catalog.h"

#include "common/string_util.h"

namespace auxview {

std::string IndexDef::ToString() const {
  return "INDEX(" + Join(attrs, ", ") + ")";
}

bool TableDef::HasIndexOn(const std::set<std::string>& attrs) const {
  auto matches = [&](const std::vector<std::string>& idx_attrs) {
    if (idx_attrs.size() != attrs.size()) return false;
    for (const std::string& a : idx_attrs) {
      if (attrs.count(a) == 0) return false;
    }
    return true;
  };
  if (!primary_key.empty() && matches(primary_key)) return true;
  for (const IndexDef& idx : indexes) {
    if (matches(idx.attrs)) return true;
  }
  return false;
}

FdSet TableDef::Fds() const {
  FdSet fds;
  if (!primary_key.empty()) {
    std::set<std::string> lhs(primary_key.begin(), primary_key.end());
    std::set<std::string> rhs;
    for (const Column& c : schema.columns()) rhs.insert(c.name);
    fds.Add(std::move(lhs), std::move(rhs));
  }
  return fds;
}

Status Catalog::AddTable(TableDef def) {
  if (tables_.count(def.name) > 0) {
    return Status::AlreadyExists("table already exists: " + def.name);
  }
  tables_.emplace(def.name, std::move(def));
  ++stats_epoch_;
  return Status::Ok();
}

const TableDef* Catalog::FindTable(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

StatusOr<TableDef> Catalog::GetTable(const std::string& name) const {
  const TableDef* def = FindTable(name);
  if (def == nullptr) return Status::NotFound("no such table: " + name);
  return *def;
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, def] : tables_) names.push_back(name);
  return names;
}

Catalog::StatsSnapshot Catalog::SnapshotStats() const {
  StatsSnapshot snapshot;
  snapshot.epoch = stats_epoch_;
  for (const auto& [name, def] : tables_) snapshot.stats[name] = def.stats;
  return snapshot;
}

void Catalog::RestoreStats(const StatsSnapshot& snapshot) {
  for (const auto& [name, stats] : snapshot.stats) {
    auto it = tables_.find(name);
    if (it != tables_.end()) it->second.stats = stats;
  }
  stats_epoch_ = snapshot.epoch;
}

Status Catalog::SetStats(const std::string& name, RelationStats stats) {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no such table: " + name);
  it->second.stats = std::move(stats);
  ++stats_epoch_;
  return Status::Ok();
}

}  // namespace auxview
