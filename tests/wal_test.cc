// The durable delta log: frame format, checksums, torn-tail vs corruption
// semantics, checkpointing, and end-to-end crash recovery proven
// bit-identical via Table::Fingerprint.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/session.h"
#include "common/failpoint.h"
#include "obs/metrics.h"
#include "storage/wal/crc32c.h"
#include "storage/wal/serde.h"
#include "storage/wal/wal.h"

namespace auxview {
namespace {

namespace fs = std::filesystem;

std::string FreshDir() {
  static const std::string root = [] {
    char tmpl[] = "/tmp/auxview_wal_test_XXXXXX";
    const char* dir = ::mkdtemp(tmpl);
    return std::string(dir != nullptr ? dir : "/tmp");
  }();
  static int n = 0;
  return root + "/d" + std::to_string(n++);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
}

std::vector<std::string> SegmentFiles(const std::string& dir) {
  std::vector<std::string> out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal-", 0) == 0) out.push_back(entry.path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

ConcreteTxn MakeTxn(const std::string& tag, int i) {
  ConcreteTxn txn;
  txn.type_name = tag;
  TableUpdate update;
  update.relation = "T";
  update.inserts.emplace_back(
      Row{Value::String(tag + std::to_string(i)), Value::Int64(i),
          Value::Double(i * 1.5)},
      1);
  update.deletes.emplace_back(Row{Value::String("old"), Value::Int64(-i),
                                  Value::Null()},
                              2);
  update.modifies.emplace_back(
      Row{Value::String("a"), Value::Int64(1), Value::Bool(true)},
      Row{Value::String("a"), Value::Int64(2), Value::Bool(false)});
  txn.updates.push_back(std::move(update));
  return txn;
}

// ---------------------------------------------------------------------------
// CRC-32C.

TEST(Crc32cTest, MatchesKnownVectors) {
  // The canonical check value for CRC-32C.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
  // Extend over split inputs equals one-shot.
  const uint32_t partial = ExtendCrc32c(Crc32c("12345", 5), "6789", 4);
  EXPECT_EQ(partial, 0xE3069283u);
  // Sensitivity: one flipped bit changes the sum.
  EXPECT_NE(Crc32c("123456789", 9), Crc32c("123456788", 9));
}

// ---------------------------------------------------------------------------
// Serde.

TEST(WalSerdeTest, TxnRoundTripsAllValueTypes) {
  const ConcreteTxn txn = MakeTxn("roundtrip", 7);
  wal::ByteWriter w;
  wal::EncodeTxn(&w, txn);
  wal::ByteReader r(w.buffer());
  auto decoded = wal::DecodeTxn(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(decoded->type_name, txn.type_name);
  ASSERT_EQ(decoded->updates.size(), 1u);
  const TableUpdate& u = decoded->updates[0];
  EXPECT_EQ(u.relation, "T");
  ASSERT_EQ(u.inserts.size(), 1u);
  EXPECT_TRUE(RowEq()(u.inserts[0].first, txn.updates[0].inserts[0].first));
  EXPECT_EQ(u.inserts[0].second, 1);
  ASSERT_EQ(u.deletes.size(), 1u);
  EXPECT_TRUE(u.deletes[0].first[2].is_null());
  ASSERT_EQ(u.modifies.size(), 1u);
  EXPECT_TRUE(
      RowEq()(u.modifies[0].second, txn.updates[0].modifies[0].second));
}

TEST(WalSerdeTest, TruncatedPayloadFailsCleanly) {
  wal::ByteWriter w;
  wal::EncodeTxn(&w, MakeTxn("trunc", 1));
  for (size_t cut : {size_t{0}, size_t{3}, w.buffer().size() / 2,
                     w.buffer().size() - 1}) {
    wal::ByteReader r(w.buffer().data(), cut);
    EXPECT_FALSE(wal::DecodeTxn(&r).ok()) << "cut at " << cut;
  }
}

// A TableDef as checkpoint format v2 lays it out, with `key_attrs` in the
// attribute list that follows the indexes (earlier builds wrote a
// hash-sharding key there; current ones write it empty).
std::string V2TableDefBytes(const TableDef& def,
                            const std::vector<std::string>& key_attrs) {
  wal::ByteWriter w;
  w.Str(def.name);
  w.U32(static_cast<uint32_t>(def.schema.num_columns()));
  for (const Column& col : def.schema.columns()) {
    w.Str(col.name);
    w.U8(static_cast<uint8_t>(col.type));
  }
  w.U32(static_cast<uint32_t>(def.primary_key.size()));
  for (const std::string& attr : def.primary_key) w.Str(attr);
  w.U32(static_cast<uint32_t>(def.indexes.size()));
  for (const IndexDef& idx : def.indexes) {
    w.U32(static_cast<uint32_t>(idx.attrs.size()));
    for (const std::string& attr : idx.attrs) w.Str(attr);
  }
  w.U32(static_cast<uint32_t>(key_attrs.size()));
  for (const std::string& attr : key_attrs) w.Str(attr);
  wal::EncodeStats(&w, def.stats);
  return w.Take();
}

// Checkpoints written before storage stopped sharding carry a non-empty
// shard key in every TableDef; they must still decode (the key is read and
// dropped), and re-encoding writes the list empty.
TEST(WalSerdeTest, TableDefWithShardKeyDecodesAndDropsTheKey) {
  TableDef def;
  def.name = "Emp";
  def.schema = Schema::Create({{"EName", ValueType::kString},
                               {"DName", ValueType::kString},
                               {"Salary", ValueType::kInt64}})
                   .value();
  def.primary_key = {"EName"};
  def.indexes = {IndexDef{{"DName"}}};
  def.stats.row_count = 30;
  def.stats.distinct = {{"EName", 30}, {"DName", 3}};

  const std::string old_bytes = V2TableDefBytes(def, {"DName"});
  wal::ByteReader r(old_bytes);
  auto decoded = wal::DecodeTableDef(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(decoded->name, def.name);
  EXPECT_EQ(decoded->schema, def.schema);
  EXPECT_EQ(decoded->primary_key, def.primary_key);
  ASSERT_EQ(decoded->indexes.size(), 1u);
  EXPECT_EQ(decoded->indexes[0].attrs, def.indexes[0].attrs);
  EXPECT_EQ(decoded->stats.row_count, 30);
  EXPECT_EQ(decoded->stats.distinct.at("DName"), 3);

  wal::ByteWriter w;
  wal::EncodeTableDef(&w, *decoded);
  EXPECT_EQ(w.buffer(), V2TableDefBytes(def, {}));
}

// ---------------------------------------------------------------------------
// Log scan: append, reopen, replay.

TEST(WalTest, AppendedTxnsSurviveReopenInLsnOrder) {
  const std::string dir = FreshDir();
  {
    auto wal = WriteAheadLog::Open(DatabaseOptions{dir, WalFsync::kCommit, 0});
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    EXPECT_FALSE((*wal)->recovery_pending());
    for (int i = 1; i <= 5; ++i) {
      auto lsn = (*wal)->AppendTxn(MakeTxn("t", i));
      ASSERT_TRUE(lsn.ok()) << lsn.status().ToString();
      EXPECT_EQ(*lsn, static_cast<uint64_t>(i));
    }
  }
  auto wal = WriteAheadLog::Open(DatabaseOptions{dir, WalFsync::kCommit, 0});
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_TRUE((*wal)->recovery_pending());
  // Appends are refused until the staged state is consumed.
  EXPECT_EQ((*wal)->AppendTxn(MakeTxn("refused", 0)).status().code(),
            StatusCode::kFailedPrecondition);
  WalRecovery rec = (*wal)->TakeRecovery();
  EXPECT_FALSE(rec.has_checkpoint);
  ASSERT_EQ(rec.txns.size(), 5u);
  for (size_t i = 0; i < rec.txns.size(); ++i) {
    EXPECT_EQ(rec.txns[i].lsn, i + 1);
    EXPECT_EQ(rec.txns[i].txn.type_name, "t");
  }
  EXPECT_EQ(rec.last_lsn, 5u);
  EXPECT_EQ(rec.truncated_tail_bytes, 0);
  // The log continues where it left off.
  auto lsn = (*wal)->AppendTxn(MakeTxn("more", 6));
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 6u);
}

TEST(WalTest, AbortRecordCancelsItsTransaction) {
  const std::string dir = FreshDir();
  {
    auto wal = WriteAheadLog::Open(DatabaseOptions{dir, WalFsync::kCommit, 0});
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->AppendTxn(MakeTxn("keep", 1)).ok());
    auto doomed = (*wal)->AppendTxn(MakeTxn("doomed", 2));
    ASSERT_TRUE(doomed.ok());
    ASSERT_TRUE((*wal)->AppendAbort(*doomed).ok());
    ASSERT_TRUE((*wal)->AppendTxn(MakeTxn("keep", 3)).ok());
  }
  auto wal = WriteAheadLog::Open(DatabaseOptions{dir, WalFsync::kCommit, 0});
  ASSERT_TRUE(wal.ok());
  WalRecovery rec = (*wal)->TakeRecovery();
  ASSERT_EQ(rec.txns.size(), 2u);
  EXPECT_EQ(rec.txns[0].txn.type_name, "keep");
  EXPECT_EQ(rec.txns[1].txn.type_name, "keep");
  // The abort record consumed an LSN of its own.
  EXPECT_EQ(rec.last_lsn, 4u);
}

TEST(WalTest, TornFinalRecordIsTruncatedWithMetric) {
  const std::string dir = FreshDir();
  {
    auto wal = WriteAheadLog::Open(DatabaseOptions{dir, WalFsync::kCommit, 0});
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->AppendTxn(MakeTxn("whole", 1)).ok());
    ASSERT_TRUE((*wal)->AppendTxn(MakeTxn("torn", 2)).ok());
  }
  auto segments = SegmentFiles(dir);
  ASSERT_EQ(segments.size(), 1u);
  std::string bytes = ReadFile(segments[0]);
  // Tear the second record mid-frame, as a crash mid-write would.
  const std::string torn = bytes.substr(0, bytes.size() - 7);
  WriteFile(segments[0], torn);

  obs::Counter* truncations =
      obs::MetricsRegistry::Global().GetCounter("wal.truncated_tail");
  const int64_t before = truncations->value();
  auto wal = WriteAheadLog::Open(DatabaseOptions{dir, WalFsync::kCommit, 0});
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ(truncations->value(), before + 1);
  WalRecovery rec = (*wal)->TakeRecovery();
  ASSERT_EQ(rec.txns.size(), 1u);
  EXPECT_EQ(rec.txns[0].txn.type_name, "whole");
  EXPECT_GT(rec.truncated_tail_bytes, 0);
  EXPECT_EQ(rec.last_lsn, 1u);
  // The torn bytes are gone from disk; the next open is clean.
  EXPECT_EQ(ReadFile(segments[0]).size(), torn.size() -
                                              static_cast<size_t>(
                                                  rec.truncated_tail_bytes));
  // New appends reuse the reclaimed LSN.
  auto lsn = (*wal)->AppendTxn(MakeTxn("again", 2));
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 2u);
}

TEST(WalTest, ShortHeaderTailIsTruncated) {
  const std::string dir = FreshDir();
  {
    auto wal = WriteAheadLog::Open(DatabaseOptions{dir, WalFsync::kCommit, 0});
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->AppendTxn(MakeTxn("whole", 1)).ok());
  }
  auto segments = SegmentFiles(dir);
  ASSERT_EQ(segments.size(), 1u);
  // A crash that got only 10 bytes of the next header out.
  std::string bytes = ReadFile(segments[0]);
  WriteFile(segments[0], bytes + std::string(10, '\x41'));
  auto wal = WriteAheadLog::Open(DatabaseOptions{dir, WalFsync::kCommit, 0});
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  WalRecovery rec = (*wal)->TakeRecovery();
  ASSERT_EQ(rec.txns.size(), 1u);
  EXPECT_EQ(rec.truncated_tail_bytes, 10);
}

TEST(WalTest, MidLogCorruptionFailsWithLsnAnchoredError) {
  const std::string dir = FreshDir();
  {
    auto wal = WriteAheadLog::Open(DatabaseOptions{dir, WalFsync::kCommit, 0});
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->AppendTxn(MakeTxn("first", 1)).ok());
    ASSERT_TRUE((*wal)->AppendTxn(MakeTxn("second", 2)).ok());
  }
  auto segments = SegmentFiles(dir);
  ASSERT_EQ(segments.size(), 1u);
  std::string bytes = ReadFile(segments[0]);
  // Flip one payload byte of the FIRST record: more log follows, so this is
  // in-place damage, not a torn write — recovery must refuse.
  bytes[30] = static_cast<char>(bytes[30] ^ 0x01);
  WriteFile(segments[0], bytes);
  auto wal = WriteAheadLog::Open(DatabaseOptions{dir, WalFsync::kCommit, 0});
  ASSERT_FALSE(wal.ok());
  const std::string message = wal.status().ToString();
  EXPECT_NE(message.find("CRC mismatch"), std::string::npos) << message;
  EXPECT_NE(message.find("lsn 1"), std::string::npos) << message;
}

TEST(WalTest, CorruptFinalRecordAtEofIsTreatedAsTorn) {
  const std::string dir = FreshDir();
  {
    auto wal = WriteAheadLog::Open(DatabaseOptions{dir, WalFsync::kCommit, 0});
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->AppendTxn(MakeTxn("first", 1)).ok());
    ASSERT_TRUE((*wal)->AppendTxn(MakeTxn("last", 2)).ok());
  }
  auto segments = SegmentFiles(dir);
  std::string bytes = ReadFile(segments[0]);
  // Damage the LAST record's final byte: indistinguishable from a frame
  // that lost its trailing sector, so it truncates rather than fails.
  bytes[bytes.size() - 1] = static_cast<char>(bytes[bytes.size() - 1] ^ 0x01);
  WriteFile(segments[0], bytes);
  auto wal = WriteAheadLog::Open(DatabaseOptions{dir, WalFsync::kCommit, 0});
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  WalRecovery rec = (*wal)->TakeRecovery();
  ASSERT_EQ(rec.txns.size(), 1u);
  EXPECT_EQ(rec.txns[0].txn.type_name, "first");
  EXPECT_GT(rec.truncated_tail_bytes, 0);
}

TEST(WalTest, CorruptCheckpointFileRefusesToOpen) {
  const std::string dir = FreshDir();
  ASSERT_TRUE(fs::create_directories(dir));
  WriteFile(dir + "/checkpoint", "definitely not a checkpoint image");
  auto wal = WriteAheadLog::Open(DatabaseOptions{dir, WalFsync::kCommit, 0});
  ASSERT_FALSE(wal.ok());
  EXPECT_NE(wal.status().ToString().find("corrupt"), std::string::npos);
}

TEST(WalTest, StaleCheckpointTmpIsDiscardedOnOpen) {
  const std::string dir = FreshDir();
  {
    auto wal = WriteAheadLog::Open(DatabaseOptions{dir, WalFsync::kCommit, 0});
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->AppendTxn(MakeTxn("t", 1)).ok());
  }
  // A checkpoint that crashed between tmp-write and rename.
  WriteFile(dir + "/checkpoint.tmp", "half-written image");
  auto wal = WriteAheadLog::Open(DatabaseOptions{dir, WalFsync::kCommit, 0});
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_FALSE(fs::exists(dir + "/checkpoint.tmp"));
  EXPECT_EQ((*wal)->TakeRecovery().txns.size(), 1u);
}

// ---------------------------------------------------------------------------
// Session-level recovery.

constexpr char kDdl[] = R"sql(
CREATE TABLE Emp (EName STRING PRIMARY KEY, DName STRING, Salary INT,
                  INDEX (DName));
CREATE TABLE Dept (DName STRING PRIMARY KEY, MName STRING, Budget INT);
CREATE VIEW SumOfSals (DName, SalSum) AS
  SELECT DName, SUM(Salary) FROM Emp GROUPBY DName;
CREATE ASSERTION DeptConstraint CHECK
  (NOT EXISTS (SELECT Dept.DName FROM Emp, Dept
               WHERE Dept.DName = Emp.DName
               GROUPBY Dept.DName, Budget
               HAVING SUM(Salary) > Budget));
)sql";

std::unique_ptr<Session> MakeWalSession(const std::string& dir) {
  SessionOptions options;
  options.durability.wal_dir = dir;
  options.durability.wal_fsync = WalFsync::kCommit;
  auto session = std::make_unique<Session>(options);
  EXPECT_TRUE(session->Execute(kDdl).ok());
  session->DeclareWorkload({SingleModifyTxn(">Emp", "Emp", {"Salary"}, 2),
                            SingleModifyTxn(">Dept", "Dept", {"Budget"}, 1)});
  return session;
}

void LoadRows(Session* session) {
  for (int d = 0; d < 3; ++d) {
    const std::string dname = "d" + std::to_string(d);
    for (int k = 0; k < 3; ++k) {
      auto r = session->Execute(
          "INSERT INTO Emp VALUES ('" + dname + "e" + std::to_string(k) +
          "', '" + dname + "', " + std::to_string(1000 + 10 * k) + ");");
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
    auto r = session->Execute("INSERT INTO Dept VALUES ('" + dname + "', 'm" +
                              std::to_string(d) + "', 5000);");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
}

std::map<std::string, std::string> FingerprintAll(Session& session) {
  std::map<std::string, std::string> out;
  for (const std::string& name : session.db().TableNames()) {
    out[name] = session.db().FindTable(name)->Fingerprint();
  }
  return out;
}

TEST(SessionRecoveryTest, PreparedSessionRecoversBitIdentical) {
  const std::string dir = FreshDir();
  std::map<std::string, std::string> expected;
  {
    auto session = MakeWalSession(dir);
    LoadRows(session.get());
    Status prepared = session->Prepare();
    ASSERT_TRUE(prepared.ok()) << prepared.ToString();
    for (int i = 0; i < 4; ++i) {
      auto r = session->Execute(
          "UPDATE Emp SET Salary = Salary + 7 WHERE DName = 'd" +
          std::to_string(i % 3) + "';");
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
    expected = FingerprintAll(*session);
  }  // "crash": the process state is gone, only the wal directory remains

  auto revived = MakeWalSession(dir);
  Status recovered = revived->Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.ToString();
  const RecoveryInfo& info = revived->last_recovery();
  EXPECT_TRUE(info.recovered);
  EXPECT_TRUE(info.had_checkpoint);
  EXPECT_EQ(info.replayed, 4);
  EXPECT_TRUE(revived->prepared());
  // Base tables AND materialized views, rows and index buckets alike.
  EXPECT_EQ(FingerprintAll(*revived), expected);
  EXPECT_TRUE(revived->CheckConsistency().ok());
  // The revived session is fully live: DML and assertions still work.
  auto more = revived->Execute(
      "UPDATE Emp SET Salary = 99999 WHERE EName = 'd0e0';");
  ASSERT_TRUE(more.ok());
  EXPECT_TRUE(more->rejected());
}

TEST(SessionRecoveryTest, LoadOnlyLogRecoversWithoutCheckpoint) {
  const std::string dir = FreshDir();
  std::map<std::string, std::string> expected;
  {
    auto session = MakeWalSession(dir);
    LoadRows(session.get());
    expected = FingerprintAll(*session);
  }
  auto revived = MakeWalSession(dir);
  ASSERT_TRUE(revived->Recover().ok());
  EXPECT_FALSE(revived->last_recovery().had_checkpoint);
  EXPECT_EQ(revived->last_recovery().replayed, 12);  // 9 Emp + 3 Dept loads
  EXPECT_FALSE(revived->prepared());
  EXPECT_EQ(FingerprintAll(*revived), expected);
  // The revived session Prepares normally (and checkpoints the result).
  ASSERT_TRUE(revived->Prepare().ok());
  EXPECT_TRUE(revived->CheckConsistency().ok());
}

TEST(SessionRecoveryTest, CheckpointTruncatesTheLogPrefix) {
  const std::string dir = FreshDir();
  auto session = MakeWalSession(dir);
  LoadRows(session.get());
  ASSERT_GE(SegmentFiles(dir).size(), 1u);
  const std::string pre_prepare_segment = SegmentFiles(dir)[0];
  ASSERT_GT(fs::file_size(pre_prepare_segment), 0u);
  ASSERT_TRUE(session->Prepare().ok());  // takes the initial checkpoint
  // The load-era segment is gone; one fresh (empty) segment remains.
  const auto segments = SegmentFiles(dir);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_NE(segments[0], pre_prepare_segment);
  EXPECT_EQ(fs::file_size(segments[0]), 0u);
  EXPECT_TRUE(fs::exists(dir + "/checkpoint"));
}

TEST(SessionRecoveryTest, TornCommitRecordIsDroppedOnRecovery) {
  const std::string dir = FreshDir();
  std::map<std::string, std::string> expected;
  {
    auto session = MakeWalSession(dir);
    LoadRows(session.get());
    ASSERT_TRUE(session->Prepare().ok());
    auto r = session->Execute(
        "UPDATE Emp SET Salary = Salary + 3 WHERE DName = 'd0';");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    expected = FingerprintAll(*session);
    // A second update whose log record tears mid-write: the commit fails
    // cleanly and memory rolls back...
    FailpointRegistry::Global().ArmAfter("wal.append.partial", 1);
    auto torn = session->Execute(
        "UPDATE Emp SET Salary = Salary + 5 WHERE DName = 'd1';");
    FailpointRegistry::Global().DisarmAll();
    ASSERT_FALSE(torn.ok());
    EXPECT_EQ(torn.status().code(), StatusCode::kAborted);
    EXPECT_EQ(FingerprintAll(*session), expected);
  }
  // ...and recovery truncates the torn bytes and lands exactly on the state
  // without it.
  auto revived = MakeWalSession(dir);
  Status recovered = revived->Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.ToString();
  EXPECT_GT(revived->last_recovery().truncated_tail_bytes, 0);
  EXPECT_EQ(revived->last_recovery().replayed, 1);
  EXPECT_EQ(FingerprintAll(*revived), expected);
  EXPECT_TRUE(revived->CheckConsistency().ok());
}

TEST(SessionRecoveryTest, MidLogCorruptionSurfacesLsnAnchoredError) {
  const std::string dir = FreshDir();
  {
    auto session = MakeWalSession(dir);
    LoadRows(session.get());
    ASSERT_TRUE(session->Prepare().ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(session
                      ->Execute("UPDATE Emp SET Salary = Salary + 1 "
                                "WHERE EName = 'd0e0';")
                      .ok());
    }
  }
  const auto segments = SegmentFiles(dir);
  ASSERT_EQ(segments.size(), 1u);
  std::string bytes = ReadFile(segments[0]);
  ASSERT_GT(bytes.size(), 40u);
  bytes[30] = static_cast<char>(bytes[30] ^ 0x01);  // first record's payload
  WriteFile(segments[0], bytes);

  // Session construction scans the log; the open failure is deferred and
  // surfaces on the first call (so it can't use MakeWalSession, whose DDL
  // Execute would already trip it).
  SessionOptions options;
  options.durability.wal_dir = dir;
  Session revived(options);
  Status recovered = revived.Recover();
  ASSERT_FALSE(recovered.ok());
  const std::string message = recovered.ToString();
  EXPECT_NE(message.find("CRC mismatch"), std::string::npos) << message;
  EXPECT_NE(message.find("lsn"), std::string::npos) << message;
}

TEST(SessionRecoveryTest, AutoCheckpointCompactsEveryN) {
  const std::string dir = FreshDir();
  SessionOptions options;
  options.durability.wal_dir = dir;
  options.durability.wal_fsync = WalFsync::kCommit;
  options.durability.wal_checkpoint_every = 2;
  auto session = std::make_unique<Session>(options);
  ASSERT_TRUE(session->Execute(kDdl).ok());
  session->DeclareWorkload({SingleModifyTxn(">Emp", "Emp", {"Salary"}, 2),
                            SingleModifyTxn(">Dept", "Dept", {"Budget"}, 1)});
  LoadRows(session.get());
  ASSERT_TRUE(session->Prepare().ok());
  obs::Counter* checkpoints =
      obs::MetricsRegistry::Global().GetCounter("wal.checkpoints");
  const int64_t before = checkpoints->value();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(session
                    ->Execute("UPDATE Emp SET Salary = Salary + 1 "
                              "WHERE EName = 'd1e1';")
                    .ok());
  }
  // 4 commits at wal_checkpoint_every=2 -> 2 automatic compactions.
  EXPECT_EQ(checkpoints->value(), before + 2);
  // And the log prefix stays trimmed: a single current segment.
  EXPECT_EQ(SegmentFiles(dir).size(), 1u);
}

}  // namespace
}  // namespace auxview
