#ifndef AUXVIEW_DELTA_TRANSACTION_H_
#define AUXVIEW_DELTA_TRANSACTION_H_

#include <string>
#include <vector>

namespace auxview {

/// Kinds of base-relation updates a transaction type performs (Section 3.2:
/// insertions, deletions, modifications).
enum class UpdateKind { kInsert, kDelete, kModify };

const char* UpdateKindName(UpdateKind kind);

/// One relation updated by a transaction type.
struct UpdateSpec {
  std::string relation;
  UpdateKind kind = UpdateKind::kModify;
  /// Expected number of tuples touched per transaction (cost estimation).
  double count = 1;
  /// kModify: the attributes whose values change.
  std::vector<std::string> modified_attrs;
  /// The attributes whose values identify the touched tuples; the update
  /// comprises *all* tuples matching those values (drives the completeness
  /// analysis). Empty means the relation's primary key.
  std::vector<std::string> selected_by;
};

/// A transaction type T_i with weight f_i (Section 3.2).
struct TransactionType {
  std::string name;
  double weight = 1;
  std::vector<UpdateSpec> updates;

  /// The update spec touching `relation`, or nullptr.
  const UpdateSpec* SpecFor(const std::string& relation) const;

  std::string ToString() const;
};

/// Convenience constructor: a transaction modifying `count` tuples of one
/// relation (e.g. the paper's ">Emp" / ">Dept").
TransactionType SingleModifyTxn(std::string name, std::string relation,
                                std::vector<std::string> modified_attrs,
                                double weight = 1, double count = 1);

class Catalog;
struct ConcreteTxn;

/// Maps a concrete transaction back to a declared type by name, or — for
/// transactions whose type is not in `declared` (e.g. WAL replay of ad-hoc
/// DML) — derives a one-off spec from its content: one UpdateSpec per
/// touched relation. Modify pairs make it a modify (modified_attrs by
/// diffing the pairs against the schema); a delete that is not the old half
/// of a folded UPDATE (its primary key re-inserted) makes it a delete,
/// since it can empty an aggregate group; anything else is an insert.
/// Recovery uses this so a replayed transaction takes the same maintenance
/// path the original commit took.
TransactionType DeriveTransactionType(
    const ConcreteTxn& txn, const std::vector<TransactionType>& declared,
    const Catalog& catalog);

}  // namespace auxview

#endif  // AUXVIEW_DELTA_TRANSACTION_H_
