#include "storage/table.h"

#include <algorithm>

#include "common/check.h"
#include "common/failpoint.h"
#include "storage/undo_log.h"

namespace auxview {

Table::Table(TableDef def, PageCounter* counter,
             const std::string& metric_scope)
    : def_(std::move(def)), metric_scope_(metric_scope), counter_(counter) {
  AUXVIEW_CHECK(counter_ != nullptr);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const std::string scoped =
      "storage.rel." +
      (metric_scope_.empty() ? "" : metric_scope_ + ".") + def_.name;
  rel_page_reads_ = reg.GetCounter(scoped + ".page_reads");
  rel_page_writes_ = reg.GetCounter(scoped + ".page_writes");
  auto add_index = [&](const std::vector<std::string>& attrs) {
    if (attrs.empty()) return;
    // Skip duplicates (primary key may also be listed as an index).
    for (const IndexState& existing : indexes_) {
      if (existing.attrs == attrs) return;
    }
    IndexState idx;
    idx.attrs = attrs;
    for (const std::string& a : attrs) {
      const int col = def_.schema.IndexOf(a);
      AUXVIEW_CHECK_MSG(col >= 0, ("index attr missing from schema: " + a).c_str());
      idx.col_idxs.push_back(col);
    }
    indexes_.push_back(std::move(idx));
  };
  add_index(def_.primary_key);
  for (const IndexDef& idx : def_.indexes) add_index(idx.attrs);
}

std::unique_ptr<Table> Table::Clone(PageCounter* counter) const {
  // The constructor rebuilds empty index states from the def; copying the
  // populated maps afterwards avoids re-inserting (and re-charging) every
  // row. The clone is a pure value copy: no undo log, no shared state.
  auto clone = std::make_unique<Table>(def_, counter, metric_scope_);
  clone->rows_ = rows_;
  clone->total_count_ = total_count_;
  clone->indexes_ = indexes_;
  return clone;
}

Row Table::ProjectKey(const IndexState& idx, const Row& row) const {
  Row key;
  key.reserve(idx.col_idxs.size());
  for (int col : idx.col_idxs) key.push_back(row[col]);
  return key;
}

void Table::IndexInsert(const Row& row) {
  for (IndexState& idx : indexes_) {
    idx.map[ProjectKey(idx, row)].push_back(row);
  }
}

void Table::IndexErase(const Row& row) {
  RowEq eq;
  for (IndexState& idx : indexes_) {
    auto it = idx.map.find(ProjectKey(idx, row));
    if (it == idx.map.end()) continue;
    auto& rows = it->second;
    rows.erase(std::remove_if(rows.begin(), rows.end(),
                              [&](const Row& r) { return eq(r, row); }),
               rows.end());
    if (rows.empty()) idx.map.erase(it);
  }
}

Status Table::Apply(const Row& row, int64_t count) {
  if (count == 0) return Status::Ok();
  AUXVIEW_FAILPOINT("storage.table.apply");
  if (static_cast<int>(row.size()) != def_.schema.num_columns()) {
    return Status::InvalidArgument("row arity mismatch for table " +
                                   def_.name);
  }
  auto it = rows_.find(row);
  const int64_t old = it == rows_.end() ? 0 : it->second;
  const int64_t next = old + count;
  if (next < 0) {
    return Status::FailedPrecondition("bag multiplicity would go negative in " +
                                      def_.name + " for row " +
                                      RowToString(row));
  }
  // Charge I/O per the paper's update model. One index page per index
  // (read; write only when the index contents change, which they do for
  // inserts/deletes of a distinct row).
  const int64_t tuples = count > 0 ? count : -count;
  ChargeIndexRead(static_cast<int64_t>(indexes_.size()));
  if (count > 0) {
    ChargeTupleWrite(tuples);
  } else {
    ChargeTupleRead(tuples);
    ChargeTupleWrite(tuples);
  }
  // The structural update below is all-or-nothing: the failpoint sits
  // before the first mutation, so a triggered fault leaves the table (rows
  // and indexes) untouched by this call.
  AUXVIEW_FAILPOINT("storage.table.index_update");
  if (old == 0 && next > 0) {
    IndexInsert(row);
    ChargeIndexWrite(static_cast<int64_t>(indexes_.size()));
  } else if (old > 0 && next == 0) {
    IndexErase(row);
    ChargeIndexWrite(static_cast<int64_t>(indexes_.size()));
  }
  if (next == 0) {
    rows_.erase(it);
  } else if (it == rows_.end()) {
    rows_.emplace(row, next);
  } else {
    it->second = next;
  }
  total_count_ += count;
  if (undo_log_ != nullptr) undo_log_->RecordApply(this, row, count);
  return Status::Ok();
}

Status Table::Modify(const Row& old_row, const Row& new_row) {
  return ModifyBatch({{old_row, new_row}});
}

Status Table::ModifyBatch(const std::vector<std::pair<Row, Row>>& pairs) {
  if (pairs.empty()) return Status::Ok();
  AUXVIEW_FAILPOINT("storage.table.modify_batch");
  // Paper's modify model: per index one index-page read for the batch
  // (write only when the indexed attributes change); per tuple one read
  // (old value) + one write.
  ChargeIndexRead(static_cast<int64_t>(indexes_.size()));
  RowEq eq;
  for (const IndexState& idx : indexes_) {
    for (const auto& [old_row, new_row] : pairs) {
      if (!eq(ProjectKey(idx, old_row), ProjectKey(idx, new_row))) {
        ChargeIndexWrite(1);
        break;
      }
    }
  }
  // Two phases — detach every old row at its pre-batch multiplicity, then
  // attach every new row — so the batch is order-independent. One pair's
  // new row may equal another pair's old row (an UPDATE chain such as
  // 27->28, 28->29); per-pair in-place application would merge the moved
  // copy into the pre-existing row and then move both copies, leaving the
  // table diverged from the delta the maintenance layer derived from
  // pre-state counts.
  std::vector<int64_t> counts(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    // A mid-batch fault leaves the earlier pairs detached (and recorded in
    // the undo log) and this pair untouched — the interleaving the
    // rollback sweep exercises.
    AUXVIEW_FAILPOINT("storage.table.modify_pair");
    const Row& old_row = pairs[i].first;
    auto it = rows_.find(old_row);
    if (it == rows_.end()) {
      return Status::NotFound("modify of absent row in " + def_.name + ": " +
                              RowToString(old_row));
    }
    counts[i] = it->second;
    ChargeTupleRead(counts[i]);
    ChargeTupleWrite(counts[i]);
    // Structural update without re-charging. total_count_ tracks each
    // phase (not just the balanced whole) so that a mid-batch fault leaves
    // it consistent with rows_ — the undo log restores both through
    // Apply, which adjusts the count as it re-inserts.
    IndexErase(old_row);
    rows_.erase(it);
    total_count_ -= counts[i];
    if (undo_log_ != nullptr) {
      undo_log_->RecordApply(this, old_row, -counts[i]);
    }
  }
  for (size_t i = 0; i < pairs.size(); ++i) {
    const Row& new_row = pairs[i].second;
    auto [new_it, inserted] = rows_.try_emplace(new_row, 0);
    new_it->second += counts[i];
    total_count_ += counts[i];
    // A pre-existing row (inserted == false) is already indexed; zero-count
    // rows never persist in rows_, so this is exhaustive.
    if (inserted) IndexInsert(new_row);
    if (undo_log_ != nullptr) {
      undo_log_->RecordApply(this, new_row, counts[i]);
    }
  }
  return Status::Ok();
}

int64_t Table::CountOf(const Row& row) const {
  auto it = rows_.find(row);
  return it == rows_.end() ? 0 : it->second;
}

const Table::IndexState* Table::FindIndex(
    const std::vector<std::string>& attrs) const {
  // Best index whose attributes are a subset of the probe attributes
  // (residual attributes are filtered after the fetch); ties prefer more
  // index attributes (more selective).
  const IndexState* best = nullptr;
  for (const IndexState& idx : indexes_) {
    if (idx.attrs.size() > attrs.size()) continue;
    bool subset = true;
    for (const std::string& a : idx.attrs) {
      if (std::find(attrs.begin(), attrs.end(), a) == attrs.end()) {
        subset = false;
        break;
      }
    }
    if (!subset) continue;
    if (best == nullptr || idx.attrs.size() > best->attrs.size()) {
      best = &idx;
    }
  }
  return best;
}

bool Table::HasIndexOn(const std::vector<std::string>& attrs) const {
  return FindIndex(attrs) != nullptr;
}

Table::ResolvedProbe Table::ResolveProbe(
    const std::vector<std::string>& attrs) const {
  ResolvedProbe probe;
  probe.index = FindIndex(attrs);
  if (probe.index != nullptr) {
    const IndexState* idx = probe.index;
    // Key reordering to the index's attribute order (the index may cover
    // only a subset of the probe attributes; the rest filter after the
    // fetch).
    probe.key_positions.reserve(idx->attrs.size());
    for (const std::string& a : idx->attrs) {
      auto pos = std::find(attrs.begin(), attrs.end(), a);
      probe.key_positions.push_back(static_cast<int>(pos - attrs.begin()));
    }
    for (size_t i = 0; i < attrs.size(); ++i) {
      if (std::find(idx->attrs.begin(), idx->attrs.end(), attrs[i]) ==
          idx->attrs.end()) {
        const int col = def_.schema.IndexOf(attrs[i]);
        AUXVIEW_CHECK_MSG(col >= 0, ("lookup attr missing: " + attrs[i]).c_str());
        probe.residual_cols.push_back(col);
        probe.residual_key_pos.push_back(static_cast<int>(i));
      }
    }
    return probe;
  }
  // No index: full scan.
  probe.scan_cols.reserve(attrs.size());
  for (const std::string& a : attrs) {
    const int col = def_.schema.IndexOf(a);
    AUXVIEW_CHECK_MSG(col >= 0, ("lookup attr missing: " + a).c_str());
    probe.scan_cols.push_back(col);
  }
  return probe;
}

std::vector<CountedRow> Table::ProbeOnce(const ResolvedProbe& probe,
                                         const Row& key, bool charged) const {
  std::vector<CountedRow> out;
  if (probe.index != nullptr) {
    const IndexState* idx = probe.index;
    if (charged) ChargeIndexRead(1);
    Row ordered_key(idx->attrs.size());
    for (size_t i = 0; i < idx->attrs.size(); ++i) {
      ordered_key[i] = key[static_cast<size_t>(probe.key_positions[i])];
    }
    auto it = idx->map.find(ordered_key);
    if (it != idx->map.end()) {
      for (const Row& row : it->second) {
        const int64_t count = CountOf(row);
        if (charged) ChargeTupleRead(count);
        bool match = true;
        for (size_t i = 0; i < probe.residual_cols.size(); ++i) {
          if (row[static_cast<size_t>(probe.residual_cols[i])] !=
              key[static_cast<size_t>(probe.residual_key_pos[i])]) {
            match = false;
            break;
          }
        }
        if (match) out.push_back(CountedRow{row, count});
      }
    }
    return out;
  }
  for (const auto& [row, count] : rows_) {
    if (charged) ChargeTupleRead(count);
    bool match = true;
    for (size_t i = 0; i < probe.scan_cols.size(); ++i) {
      if (row[static_cast<size_t>(probe.scan_cols[i])] != key[i]) {
        match = false;
        break;
      }
    }
    if (match) out.push_back(CountedRow{row, count});
  }
  return out;
}

std::vector<CountedRow> Table::Lookup(const std::vector<std::string>& attrs,
                                      const Row& key) const {
  return ProbeOnce(ResolveProbe(attrs), key);
}

std::vector<std::vector<CountedRow>> Table::LookupBatch(
    const std::vector<std::string>& attrs,
    const std::vector<Row>& keys) const {
  std::vector<std::vector<CountedRow>> out;
  out.reserve(keys.size());
  if (keys.empty()) return out;
  const ResolvedProbe probe = ResolveProbe(attrs);
  for (const Row& key : keys) out.push_back(ProbeOnce(probe, key));
  return out;
}

std::vector<std::vector<CountedRow>> Table::LookupBatchUncharged(
    const std::vector<std::string>& attrs,
    const std::vector<Row>& keys) const {
  std::vector<std::vector<CountedRow>> out;
  out.reserve(keys.size());
  if (keys.empty()) return out;
  const ResolvedProbe probe = ResolveProbe(attrs);
  for (const Row& key : keys) {
    out.push_back(ProbeOnce(probe, key, /*charged=*/false));
  }
  return out;
}

std::vector<CountedRow> Table::ScanAll() const {
  std::vector<CountedRow> out;
  out.reserve(rows_.size());
  for (const auto& [row, count] : rows_) {
    ChargeTupleRead(count);
    out.push_back(CountedRow{row, count});
  }
  return out;
}

std::vector<CountedRow> Table::SnapshotUncharged() const {
  std::vector<CountedRow> out;
  out.reserve(rows_.size());
  for (const auto& [row, count] : rows_) {
    out.push_back(CountedRow{row, count});
  }
  return out;
}

std::string Table::Fingerprint() const {
  std::vector<std::string> lines;
  lines.reserve(rows_.size());
  for (const auto& [row, count] : rows_) {
    lines.push_back("row " + RowToString(row) + " x" + std::to_string(count));
  }
  std::sort(lines.begin(), lines.end());
  std::string out = "table " + def_.name + " total=" +
                    std::to_string(total_count_) + "\n";
  for (const std::string& line : lines) out += line + "\n";
  for (const IndexState& idx : indexes_) {
    std::vector<std::string> buckets;
    for (const auto& [key, rows] : idx.map) {
      std::vector<std::string> members;
      members.reserve(rows.size());
      for (const Row& r : rows) members.push_back(RowToString(r));
      std::sort(members.begin(), members.end());
      std::string bucket = "  " + RowToString(key) + " ->";
      for (const std::string& m : members) bucket += " " + m;
      buckets.push_back(std::move(bucket));
    }
    std::sort(buckets.begin(), buckets.end());
    std::string attrs;
    for (const std::string& a : idx.attrs) attrs += a + ",";
    out += "index (" + attrs + ")\n";
    for (const std::string& b : buckets) out += b + "\n";
  }
  return out;
}

RelationStats Table::ComputeStats() const {
  RelationStats stats;
  stats.row_count = static_cast<double>(total_count_);
  for (int c = 0; c < def_.schema.num_columns(); ++c) {
    std::unordered_map<Row, int, RowHash, RowEq> seen;
    for (const auto& [row, count] : rows_) {
      (void)count;
      seen.try_emplace(Row{row[c]}, 1);
    }
    stats.distinct[def_.schema.column(c).name] =
        static_cast<double>(seen.size());
  }
  return stats;
}

}  // namespace auxview
