#include "delta/transaction.h"

#include <algorithm>
#include <unordered_set>

#include "catalog/catalog.h"
#include "common/string_util.h"
#include "maintain/concrete.h"

namespace auxview {

const char* UpdateKindName(UpdateKind kind) {
  switch (kind) {
    case UpdateKind::kInsert:
      return "insert";
    case UpdateKind::kDelete:
      return "delete";
    case UpdateKind::kModify:
      return "modify";
  }
  return "?";
}

const UpdateSpec* TransactionType::SpecFor(const std::string& relation) const {
  for (const UpdateSpec& spec : updates) {
    if (spec.relation == relation) return &spec;
  }
  return nullptr;
}

std::string TransactionType::ToString() const {
  std::string out = name + " (weight " + std::to_string(weight) + "):";
  for (const UpdateSpec& spec : updates) {
    out += " " + std::string(UpdateKindName(spec.kind)) + " " +
           std::to_string(spec.count) + " of " + spec.relation;
    if (!spec.modified_attrs.empty()) {
      out += " [" + Join(spec.modified_attrs, ",") + "]";
    }
  }
  return out;
}

TransactionType SingleModifyTxn(std::string name, std::string relation,
                                std::vector<std::string> modified_attrs,
                                double weight, double count) {
  TransactionType txn;
  txn.name = std::move(name);
  txn.weight = weight;
  UpdateSpec spec;
  spec.relation = std::move(relation);
  spec.kind = UpdateKind::kModify;
  spec.count = count;
  spec.modified_attrs = std::move(modified_attrs);
  txn.updates.push_back(std::move(spec));
  return txn;
}

namespace {

/// True when every deleted row's primary key is inserted again — the shape
/// of a concurrent commit, which folds each staged UPDATE into a delete of
/// the old row and an insert of the new one. False without a primary key.
bool DeletesAreUpdates(const TableUpdate& update, const TableDef& def) {
  std::vector<int> key_cols;
  for (const std::string& attr : def.primary_key) {
    const int col = def.schema.IndexOf(attr);
    if (col < 0) return false;
    key_cols.push_back(col);
  }
  if (key_cols.empty()) return false;
  auto key_of = [&](const Row& row) {
    Row key;
    for (int col : key_cols) key.push_back(row[static_cast<size_t>(col)]);
    return key;
  };
  std::unordered_set<Row, RowHash, RowEq> inserted;
  for (const auto& [row, count] : update.inserts) inserted.insert(key_of(row));
  for (const auto& [row, count] : update.deletes) {
    if (inserted.count(key_of(row)) == 0) return false;
  }
  return true;
}

}  // namespace

TransactionType DeriveTransactionType(
    const ConcreteTxn& txn, const std::vector<TransactionType>& declared,
    const Catalog& catalog) {
  for (const TransactionType& type : declared) {
    if (type.name == txn.type_name) return type;
  }
  TransactionType derived;
  derived.name = txn.type_name;
  for (const TableUpdate& update : txn.updates) {
    if (update.empty()) continue;
    UpdateSpec spec;
    spec.relation = update.relation;
    const TableDef* def = catalog.FindTable(update.relation);
    if (!update.modifies.empty()) {
      spec.kind = UpdateKind::kModify;
      spec.count = static_cast<double>(update.modifies.size());
      // The changed attributes are whatever differs across any pair.
      if (def != nullptr) {
        const auto& columns = def->schema.columns();
        std::vector<bool> changed(columns.size(), false);
        for (const auto& [old_row, new_row] : update.modifies) {
          for (size_t i = 0;
               i < columns.size() && i < old_row.size() && i < new_row.size();
               ++i) {
            if (!(old_row[i] == new_row[i])) changed[i] = true;
          }
        }
        for (size_t i = 0; i < columns.size(); ++i) {
          if (changed[i]) spec.modified_attrs.push_back(columns[i].name);
        }
      }
    } else if (update.deletes.empty() ||
               (!update.inserts.empty() && def != nullptr &&
                DeletesAreUpdates(update, *def))) {
      // Known gap: a folded UPDATE that moves a group's last row to another
      // group is analyzed as inserts too, and leaves the emptied group in a
      // SUM view that has no COUNT.
      spec.kind = UpdateKind::kInsert;
      spec.count = static_cast<double>(update.inserts.size());
    } else {
      // A delete that is not half of an UPDATE can empty an aggregate
      // group, which an insert analysis never checks for.
      spec.kind = UpdateKind::kDelete;
      spec.count =
          static_cast<double>(update.deletes.size() + update.inserts.size());
    }
    derived.updates.push_back(std::move(spec));
  }
  return derived;
}

}  // namespace auxview
