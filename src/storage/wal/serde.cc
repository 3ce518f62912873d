#include "storage/wal/serde.h"

#include <cstring>

namespace auxview {
namespace wal {

void ByteWriter::U32(uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<char>(v >> (8 * i)));
}

void ByteWriter::U64(uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<char>(v >> (8 * i)));
}

void ByteWriter::F64(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

void ByteWriter::Str(const std::string& s) {
  U32(static_cast<uint32_t>(s.size()));
  buf_.append(s);
}

bool ByteReader::Need(size_t n) {
  if (!ok_ || static_cast<size_t>(end_ - p_) < n) {
    ok_ = false;
    return false;
  }
  return true;
}

uint8_t ByteReader::U8() {
  if (!Need(1)) return 0;
  return static_cast<uint8_t>(*p_++);
}

uint32_t ByteReader::U32() {
  if (!Need(4)) return 0;
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(*p_++)) << (8 * i);
  }
  return v;
}

uint64_t ByteReader::U64() {
  if (!Need(8)) return 0;
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(*p_++)) << (8 * i);
  }
  return v;
}

double ByteReader::F64() {
  const uint64_t bits = U64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string ByteReader::Str() {
  const uint32_t n = U32();
  if (!Need(n)) return {};
  std::string s(p_, n);
  p_ += n;
  return s;
}

namespace {

/// Value type tags on the wire (stable: never renumber).
enum : uint8_t {
  kTagNull = 0,
  kTagInt64 = 1,
  kTagDouble = 2,
  kTagString = 3,
  kTagBool = 4,
};

}  // namespace

void EncodeValue(ByteWriter* w, const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      w->U8(kTagNull);
      return;
    case ValueType::kInt64:
      w->U8(kTagInt64);
      w->I64(v.int64());
      return;
    case ValueType::kDouble:
      w->U8(kTagDouble);
      w->F64(v.dbl());
      return;
    case ValueType::kString:
      w->U8(kTagString);
      w->Str(v.str());
      return;
    case ValueType::kBool:
      w->U8(kTagBool);
      w->U8(v.boolean() ? 1 : 0);
      return;
  }
}

Value DecodeValue(ByteReader* r) {
  switch (r->U8()) {
    case kTagNull:
      return Value::Null();
    case kTagInt64:
      return Value::Int64(r->I64());
    case kTagDouble:
      return Value::Double(r->F64());
    case kTagString:
      return Value::String(r->Str());
    case kTagBool:
      return Value::Bool(r->U8() != 0);
    default:
      // Unknown tag: poison the reader so the caller's ok() check fails.
      r->U8();
      while (r->ok()) r->U64();
      return Value::Null();
  }
}

void EncodeRow(ByteWriter* w, const Row& row) {
  w->U32(static_cast<uint32_t>(row.size()));
  for (const Value& v : row) EncodeValue(w, v);
}

Row DecodeRow(ByteReader* r) {
  const uint32_t n = r->U32();
  Row row;
  for (uint32_t i = 0; i < n && r->ok(); ++i) row.push_back(DecodeValue(r));
  return row;
}

void EncodeTxn(ByteWriter* w, const ConcreteTxn& txn) {
  w->Str(txn.type_name);
  w->U32(static_cast<uint32_t>(txn.updates.size()));
  for (const TableUpdate& u : txn.updates) {
    w->Str(u.relation);
    w->U32(static_cast<uint32_t>(u.inserts.size()));
    for (const auto& [row, count] : u.inserts) {
      EncodeRow(w, row);
      w->I64(count);
    }
    w->U32(static_cast<uint32_t>(u.deletes.size()));
    for (const auto& [row, count] : u.deletes) {
      EncodeRow(w, row);
      w->I64(count);
    }
    w->U32(static_cast<uint32_t>(u.modifies.size()));
    for (const auto& [old_row, new_row] : u.modifies) {
      EncodeRow(w, old_row);
      EncodeRow(w, new_row);
    }
  }
}

StatusOr<ConcreteTxn> DecodeTxn(ByteReader* r) {
  ConcreteTxn txn;
  txn.type_name = r->Str();
  const uint32_t n_updates = r->U32();
  for (uint32_t i = 0; i < n_updates && r->ok(); ++i) {
    TableUpdate u;
    u.relation = r->Str();
    const uint32_t n_ins = r->U32();
    for (uint32_t k = 0; k < n_ins && r->ok(); ++k) {
      Row row = DecodeRow(r);
      u.inserts.emplace_back(std::move(row), r->I64());
    }
    const uint32_t n_del = r->U32();
    for (uint32_t k = 0; k < n_del && r->ok(); ++k) {
      Row row = DecodeRow(r);
      u.deletes.emplace_back(std::move(row), r->I64());
    }
    const uint32_t n_mod = r->U32();
    for (uint32_t k = 0; k < n_mod && r->ok(); ++k) {
      Row old_row = DecodeRow(r);
      Row new_row = DecodeRow(r);
      u.modifies.emplace_back(std::move(old_row), std::move(new_row));
    }
    txn.updates.push_back(std::move(u));
  }
  if (!r->ok()) return Status::Internal("wal: malformed txn payload");
  return txn;
}

void EncodeStats(ByteWriter* w, const RelationStats& stats) {
  w->F64(stats.row_count);
  w->U32(static_cast<uint32_t>(stats.distinct.size()));
  for (const auto& [attr, d] : stats.distinct) {
    w->Str(attr);
    w->F64(d);
  }
}

RelationStats DecodeStats(ByteReader* r) {
  RelationStats stats;
  stats.row_count = r->F64();
  const uint32_t n = r->U32();
  for (uint32_t i = 0; i < n && r->ok(); ++i) {
    std::string attr = r->Str();
    stats.distinct[attr] = r->F64();
  }
  return stats;
}

void EncodeTableDef(ByteWriter* w, const TableDef& def) {
  w->Str(def.name);
  w->U32(static_cast<uint32_t>(def.schema.num_columns()));
  for (const Column& col : def.schema.columns()) {
    w->Str(col.name);
    w->U8(static_cast<uint8_t>(col.type));
  }
  w->U32(static_cast<uint32_t>(def.primary_key.size()));
  for (const std::string& attr : def.primary_key) w->Str(attr);
  w->U32(static_cast<uint32_t>(def.indexes.size()));
  for (const IndexDef& idx : def.indexes) {
    w->U32(static_cast<uint32_t>(idx.attrs.size()));
    for (const std::string& attr : idx.attrs) w->Str(attr);
  }
  // Checkpoint format v2 reserves an attribute list here; it is always
  // written empty (see DecodeTableDef).
  w->U32(0);
  EncodeStats(w, def.stats);
}

StatusOr<TableDef> DecodeTableDef(ByteReader* r) {
  TableDef def;
  def.name = r->Str();
  const uint32_t n_cols = r->U32();
  std::vector<Column> cols;
  for (uint32_t i = 0; i < n_cols && r->ok(); ++i) {
    Column col;
    col.name = r->Str();
    col.type = static_cast<ValueType>(r->U8());
    cols.push_back(std::move(col));
  }
  if (!r->ok()) return Status::Internal("wal: malformed table def");
  AUXVIEW_ASSIGN_OR_RETURN(def.schema, Schema::Create(std::move(cols)));
  const uint32_t n_pk = r->U32();
  for (uint32_t i = 0; i < n_pk && r->ok(); ++i) {
    def.primary_key.push_back(r->Str());
  }
  const uint32_t n_idx = r->U32();
  for (uint32_t i = 0; i < n_idx && r->ok(); ++i) {
    IndexDef idx;
    const uint32_t n_attrs = r->U32();
    for (uint32_t k = 0; k < n_attrs && r->ok(); ++k) {
      idx.attrs.push_back(r->Str());
    }
    def.indexes.push_back(std::move(idx));
  }
  // The v2 shard-key list: older writers may have filled it; storage is
  // no longer sharded, so it is read and discarded.
  const uint32_t n_shard_key = r->U32();
  for (uint32_t i = 0; i < n_shard_key && r->ok(); ++i) (void)r->Str();
  def.stats = DecodeStats(r);
  if (!r->ok()) return Status::Internal("wal: malformed table def");
  return def;
}

}  // namespace wal
}  // namespace auxview
