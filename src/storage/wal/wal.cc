#include "storage/wal/wal.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>

#include "common/failpoint.h"
#include "obs/metrics.h"
#include "storage/database.h"
#include "storage/wal/crc32c.h"
#include "storage/wal/serde.h"

namespace auxview {

namespace {

// Record frame: magic u32 | type u8 | lsn u64 | payload_len u32 | crc u32 |
// payload. The CRC covers type + lsn + payload_len + payload, so a frame
// whose header or body was damaged in place fails the check even when the
// magic survives.
constexpr uint32_t kRecordMagic = 0x314C5741u;  // "AWL1" little-endian
constexpr size_t kHeaderSize = 4 + 1 + 8 + 4 + 4;

constexpr uint8_t kTypeTxn = 1;
constexpr uint8_t kTypeAbort = 2;

constexpr uint32_t kCheckpointMagic = 0x314B4341u;  // "ACK1" little-endian
// v2: TableDef payloads carry an attribute list after the indexes (a
// hash-sharding key in earlier builds). It is written empty and discarded
// on read, so v2 checkpoints from either build recover.
constexpr uint32_t kCheckpointVersion = 2;

constexpr char kCheckpointName[] = "checkpoint";
constexpr char kCheckpointTmpName[] = "checkpoint.tmp";

obs::Counter* WalCounter(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name);
}

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

std::string EncodeFrame(uint8_t type, uint64_t lsn,
                        const std::string& payload) {
  wal::ByteWriter w;
  w.U32(kRecordMagic);
  w.U8(type);
  w.U64(lsn);
  w.U32(static_cast<uint32_t>(payload.size()));
  const uint32_t crc = ExtendCrc32c(
      Crc32c(w.buffer().data() + 4, w.buffer().size() - 4), payload.data(),
      payload.size());
  w.U32(crc);
  std::string frame = w.Take();
  frame.append(payload);
  return frame;
}

StatusOr<std::string> ReadWholeFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::Internal(Errno("wal: open " + path));
  std::string buf;
  char chunk[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Status::Internal(Errno("wal: read " + path));
    }
    if (n == 0) break;
    buf.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  return buf;
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

void EncodeCheckpointImage(wal::ByteWriter* w, const CheckpointImage& image) {
  w->U32(kCheckpointMagic);
  w->U32(kCheckpointVersion);
  w->U64(image.last_lsn);
  w->U64(image.stats_epoch);
  w->U32(static_cast<uint32_t>(image.tables.size()));
  for (const TableImage& t : image.tables) {
    wal::EncodeTableDef(w, t.def);
    w->U8(t.has_catalog_stats ? 1 : 0);
    if (t.has_catalog_stats) wal::EncodeStats(w, t.catalog_stats);
    w->U64(t.rows.size());
    for (const auto& [row, count] : t.rows) {
      wal::EncodeRow(w, row);
      w->I64(count);
    }
  }
}

StatusOr<CheckpointImage> DecodeCheckpointImage(const std::string& buf) {
  if (buf.size() < 12) {
    return Status::Internal("wal: checkpoint file too short");
  }
  // Trailing u32 CRC over everything before it.
  wal::ByteReader tail(buf.data() + buf.size() - 4, 4);
  const uint32_t stored_crc = tail.U32();
  if (Crc32c(buf.data(), buf.size() - 4) != stored_crc) {
    return Status::Internal("wal: checkpoint file failed CRC check");
  }
  wal::ByteReader r(buf.data(), buf.size() - 4);
  if (r.U32() != kCheckpointMagic) {
    return Status::Internal("wal: checkpoint file has bad magic");
  }
  const uint32_t version = r.U32();
  if (version != kCheckpointVersion) {
    return Status::Internal("wal: unsupported checkpoint version " +
                            std::to_string(version));
  }
  CheckpointImage image;
  image.last_lsn = r.U64();
  image.stats_epoch = r.U64();
  const uint32_t n_tables = r.U32();
  for (uint32_t i = 0; i < n_tables && r.ok(); ++i) {
    TableImage t;
    AUXVIEW_ASSIGN_OR_RETURN(t.def, wal::DecodeTableDef(&r));
    t.has_catalog_stats = r.U8() != 0;
    if (t.has_catalog_stats) t.catalog_stats = wal::DecodeStats(&r);
    const uint64_t n_rows = r.U64();
    for (uint64_t k = 0; k < n_rows && r.ok(); ++k) {
      Row row = wal::DecodeRow(&r);
      t.rows.emplace_back(std::move(row), r.I64());
    }
    image.tables.push_back(std::move(t));
  }
  if (!r.ok() || !r.AtEnd()) {
    return Status::Internal("wal: malformed checkpoint image");
  }
  return image;
}

}  // namespace

WriteAheadLog::WriteAheadLog(DatabaseOptions options)
    : options_(std::move(options)) {}

WriteAheadLog::~WriteAheadLog() {
  if (fd_ >= 0) ::close(fd_);
}

std::string WriteAheadLog::SegmentPath(uint64_t first_lsn) const {
  char name[32];
  std::snprintf(name, sizeof(name), "wal-%016llx.log",
                static_cast<unsigned long long>(first_lsn));
  return options_.wal_dir + "/" + name;
}

StatusOr<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(
    const DatabaseOptions& options) {
  if (options.wal_dir.empty()) {
    return Status::InvalidArgument("wal: wal_dir must be non-empty");
  }
  if (::mkdir(options.wal_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::Internal(Errno("wal: mkdir " + options.wal_dir));
  }
  std::unique_ptr<WriteAheadLog> wal(new WriteAheadLog(options));
  AUXVIEW_RETURN_IF_ERROR(wal->ScanOnOpen());
  return wal;
}

Status WriteAheadLog::ScanOnOpen() {
  // A leftover checkpoint.tmp means a checkpoint crashed before its rename;
  // the published checkpoint (if any) is still the authoritative one.
  ::unlink((options_.wal_dir + "/" + kCheckpointTmpName).c_str());

  const std::string ckpt_path = options_.wal_dir + "/" + kCheckpointName;
  if (FileExists(ckpt_path)) {
    AUXVIEW_RETURN_IF_ERROR(LoadCheckpointFile(ckpt_path));
    next_lsn_ = recovery_.checkpoint.last_lsn + 1;
  }

  // Collect segments ordered by their first LSN.
  std::vector<std::pair<uint64_t, std::string>> segments;
  DIR* dir = ::opendir(options_.wal_dir.c_str());
  if (dir == nullptr) {
    return Status::Internal(Errno("wal: opendir " + options_.wal_dir));
  }
  while (struct dirent* ent = ::readdir(dir)) {
    const std::string name = ent->d_name;
    if (name.size() != 24 || name.rfind("wal-", 0) != 0 ||
        name.substr(20) != ".log") {
      continue;
    }
    char* end = nullptr;
    const uint64_t first = std::strtoull(name.c_str() + 4, &end, 16);
    if (end != name.c_str() + 20) continue;
    segments.emplace_back(first, options_.wal_dir + "/" + name);
  }
  ::closedir(dir);
  std::sort(segments.begin(), segments.end());

  uint64_t prev_lsn = 0;
  std::vector<std::pair<uint64_t, ConcreteTxn>> staged;
  for (size_t i = 0; i < segments.size(); ++i) {
    AUXVIEW_RETURN_IF_ERROR(ScanSegment(segments[i].second,
                                        i + 1 == segments.size(), &prev_lsn,
                                        &staged));
  }
  if (prev_lsn != 0) next_lsn_ = std::max(next_lsn_, prev_lsn + 1);

  for (auto& [lsn, txn] : staged) {
    recovery_.txns.push_back(WalRecord{lsn, std::move(txn)});
  }
  recovery_.last_lsn = next_lsn_ - 1;
  recovery_pending_ = !recovery_.empty();

  // Open the tail segment for appending, or start a fresh one.
  if (segments.empty()) {
    AUXVIEW_RETURN_IF_ERROR(OpenSegment(SegmentPath(next_lsn_), false));
  } else {
    AUXVIEW_RETURN_IF_ERROR(OpenSegment(segments.back().second, false));
  }
  return Status::Ok();
}

Status WriteAheadLog::LoadCheckpointFile(const std::string& path) {
  AUXVIEW_ASSIGN_OR_RETURN(std::string buf, ReadWholeFile(path));
  StatusOr<CheckpointImage> image = DecodeCheckpointImage(buf);
  if (!image.ok()) {
    // The checkpoint was published with rename + fsync, so damage here is
    // external corruption, not a torn write — refuse to guess.
    return Status::Internal("wal: " + path + " is corrupt: " +
                            image.status().message());
  }
  recovery_.has_checkpoint = true;
  recovery_.checkpoint = std::move(image).value();
  return Status::Ok();
}

Status WriteAheadLog::ScanSegment(
    const std::string& path, bool last_segment, uint64_t* prev_lsn,
    std::vector<std::pair<uint64_t, ConcreteTxn>>* staged) {
  AUXVIEW_ASSIGN_OR_RETURN(std::string buf, ReadWholeFile(path));
  const uint64_t ckpt_lsn =
      recovery_.has_checkpoint ? recovery_.checkpoint.last_lsn : 0;

  size_t off = 0;
  bool torn = false;
  std::string torn_reason;
  while (off < buf.size()) {
    const size_t rest = buf.size() - off;
    if (rest < kHeaderSize) {
      torn = true;
      torn_reason = "short header";
      break;
    }
    wal::ByteReader header(buf.data() + off, kHeaderSize);
    const uint32_t magic = header.U32();
    const uint8_t type = header.U8();
    const uint64_t lsn = header.U64();
    const uint32_t payload_len = header.U32();
    const uint32_t stored_crc = header.U32();
    if (magic != kRecordMagic) {
      // A torn append truncates the record, it does not rewrite the magic —
      // a full header with a bad magic means in-place damage.
      return Status::Internal(
          "wal: bad record magic in " + path + " at offset " +
          std::to_string(off) + " (last good lsn " + std::to_string(*prev_lsn) +
          ")");
    }
    const size_t frame_size = kHeaderSize + payload_len;
    if (rest < frame_size) {
      if (!last_segment) {
        return Status::Internal(
            "wal: record at lsn " + std::to_string(lsn) + " in " + path +
            " extends past end of a non-final segment");
      }
      torn = true;
      torn_reason = "short payload";
      break;
    }
    const uint32_t crc = ExtendCrc32c(
        Crc32c(buf.data() + off + 4, kHeaderSize - 8),
        buf.data() + off + kHeaderSize, payload_len);
    if (crc != stored_crc) {
      // A frame that ends exactly at EOF of the final segment may simply
      // have lost its last sectors; anything else is mid-log corruption.
      if (last_segment && off + frame_size == buf.size()) {
        torn = true;
        torn_reason = "checksum mismatch on final record";
        break;
      }
      return Status::Internal("wal: CRC mismatch at lsn " +
                              std::to_string(lsn) + " in " + path +
                              " (last good lsn " + std::to_string(*prev_lsn) +
                              ")");
    }
    if (*prev_lsn != 0 && lsn != *prev_lsn + 1) {
      return Status::Internal(
          "wal: LSN gap in " + path + ": expected " +
          std::to_string(*prev_lsn + 1) + ", found " + std::to_string(lsn));
    }
    if (*prev_lsn == 0 && recovery_.has_checkpoint && lsn > ckpt_lsn + 1) {
      return Status::Internal(
          "wal: LSN gap after checkpoint: covered through " +
          std::to_string(ckpt_lsn) + ", log resumes at " + std::to_string(lsn));
    }
    *prev_lsn = lsn;

    wal::ByteReader payload(buf.data() + off + kHeaderSize, payload_len);
    if (type == kTypeTxn) {
      AUXVIEW_ASSIGN_OR_RETURN(ConcreteTxn txn, wal::DecodeTxn(&payload));
      // Records the checkpoint already covers are skipped, not replayed.
      if (lsn > ckpt_lsn) staged->emplace_back(lsn, std::move(txn));
    } else if (type == kTypeAbort) {
      const uint64_t aborted = payload.U64();
      if (!payload.ok()) {
        return Status::Internal("wal: malformed abort record at lsn " +
                                std::to_string(lsn));
      }
      staged->erase(std::remove_if(staged->begin(), staged->end(),
                                   [aborted](const auto& e) {
                                     return e.first == aborted;
                                   }),
                    staged->end());
    } else {
      return Status::Internal("wal: unknown record type " +
                              std::to_string(type) + " at lsn " +
                              std::to_string(lsn));
    }
    off += frame_size;
  }

  if (torn) {
    const int64_t removed = static_cast<int64_t>(buf.size() - off);
    const int fd = ::open(path.c_str(), O_WRONLY);
    if (fd < 0 || ::ftruncate(fd, static_cast<off_t>(off)) != 0) {
      if (fd >= 0) ::close(fd);
      return Status::Internal(Errno("wal: truncating torn tail of " + path));
    }
    ::close(fd);
    std::fprintf(stderr,
                 "auxview wal: truncated torn tail of %s (%s, %lld bytes "
                 "discarded after lsn %llu)\n",
                 path.c_str(), torn_reason.c_str(),
                 static_cast<long long>(removed),
                 static_cast<unsigned long long>(*prev_lsn));
    WalCounter("wal.truncated_tail")->Add(1);
    recovery_.truncated_tail_bytes += removed;
  }
  return Status::Ok();
}

Status WriteAheadLog::CheckWritable() const {
  if (recovery_pending_) {
    return Status::FailedPrecondition(
        "wal: recovered state is pending; run recovery before appending");
  }
  if (fd_ < 0) return Status::FailedPrecondition("wal: no open segment");
  return Status::Ok();
}

Status WriteAheadLog::HealTear() {
  if (pending_tear_offset_ < 0) return Status::Ok();
  if (::ftruncate(fd_, static_cast<off_t>(pending_tear_offset_)) != 0) {
    return Status::Internal(Errno("wal: healing torn tail"));
  }
  offset_ = pending_tear_offset_;
  pending_tear_offset_ = -1;
  return Status::Ok();
}

Status WriteAheadLog::WriteAt(int64_t offset, const char* data, size_t n) {
  size_t written = 0;
  while (written < n) {
    const ssize_t w = ::pwrite(fd_, data + written, n - written,
                               static_cast<off_t>(offset) + written);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(Errno("wal: write " + segment_path_));
    }
    written += static_cast<size_t>(w);
  }
  return Status::Ok();
}

Status WriteAheadLog::Fsync() {
  if (::fsync(fd_) != 0) {
    return Status::Internal(Errno("wal: fsync " + segment_path_));
  }
  WalCounter("wal.fsyncs")->Add(1);
  return Status::Ok();
}

Status WriteAheadLog::FsyncDir() {
  const int fd = ::open(options_.wal_dir.c_str(), O_RDONLY);
  if (fd < 0) return Status::Internal(Errno("wal: open dir for fsync"));
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Status::Internal(Errno("wal: fsync dir"));
  WalCounter("wal.fsyncs")->Add(1);
  return Status::Ok();
}

Status WriteAheadLog::OpenSegment(const std::string& path, bool truncate) {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  int flags = O_CREAT | O_RDWR;
  if (truncate) flags |= O_TRUNC;
  fd_ = ::open(path.c_str(), flags, 0644);
  if (fd_ < 0) return Status::Internal(Errno("wal: open " + path));
  const off_t size = ::lseek(fd_, 0, SEEK_END);
  if (size < 0) return Status::Internal(Errno("wal: lseek " + path));
  segment_path_ = path;
  offset_ = static_cast<int64_t>(size);
  pending_tear_offset_ = -1;
  return Status::Ok();
}

StatusOr<uint64_t> WriteAheadLog::AppendTxn(const ConcreteTxn& txn) {
  AUXVIEW_RETURN_IF_ERROR(CheckWritable());
  AUXVIEW_RETURN_IF_ERROR(HealTear());
  wal::ByteWriter payload;
  wal::EncodeTxn(&payload, txn);
  AUXVIEW_ASSIGN_OR_RETURN(
      const uint64_t lsn,
      AppendRecord(kTypeTxn, payload.buffer(), /*inject_faults=*/true));
  ++appends_since_checkpoint_;
  return lsn;
}

Status WriteAheadLog::AppendAbort(uint64_t aborted_lsn) {
  AUXVIEW_RETURN_IF_ERROR(CheckWritable());
  AUXVIEW_RETURN_IF_ERROR(HealTear());
  wal::ByteWriter payload;
  payload.U64(aborted_lsn);
  AUXVIEW_RETURN_IF_ERROR(
      AppendRecord(kTypeAbort, payload.buffer(), /*inject_faults=*/false)
          .status());
  WalCounter("wal.aborts")->Add(1);
  return Status::Ok();
}

StatusOr<uint64_t> WriteAheadLog::AppendRecord(uint8_t type,
                                               const std::string& payload,
                                               bool inject_faults) {
  const uint64_t lsn = next_lsn_;
  const std::string frame = EncodeFrame(type, lsn, payload);
  const int64_t start = offset_;

  if (inject_faults) {
    const Status torn = FailpointRegistry::Global().Check("wal.append.partial");
    if (!torn.ok()) {
      // Model a mid-write crash: half the frame reaches the file and the
      // record is never completed. The LSN is not consumed. The torn bytes
      // stay on disk — a recovery scan right now sees exactly what a real
      // crash would leave — until the next append heals the tail.
      (void)WriteAt(start, frame.data(), frame.size() / 2);
      offset_ = start + static_cast<int64_t>(frame.size() / 2);
      pending_tear_offset_ = start;
      return torn;
    }
  }

  AUXVIEW_RETURN_IF_ERROR(WriteAt(start, frame.data(), frame.size()));
  offset_ = start + static_cast<int64_t>(frame.size());

  if (options_.wal_fsync == WalFsync::kCommit) {
    Status synced = Status::Ok();
    if (inject_faults) {
      synced = FailpointRegistry::Global().Check("wal.fsync.fail");
    }
    if (synced.ok()) synced = Fsync();
    if (!synced.ok()) {
      // The record never became durable; take it back out so the tail stays
      // clean and the transaction can abort without a compensation record.
      (void)::ftruncate(fd_, static_cast<off_t>(start));
      offset_ = start;
      return synced;
    }
  }

  ++next_lsn_;
  WalCounter("wal.appends")->Add(1);
  WalCounter("wal.bytes")->Add(static_cast<int64_t>(frame.size()));
  return lsn;
}

WalRecovery WriteAheadLog::TakeRecovery() {
  WalRecovery out = std::move(recovery_);
  recovery_ = WalRecovery{};
  recovery_pending_ = false;
  return out;
}

Status WriteAheadLog::WriteCheckpoint(CheckpointImage image) {
  AUXVIEW_RETURN_IF_ERROR(CheckWritable());
  AUXVIEW_RETURN_IF_ERROR(HealTear());
  image.last_lsn = last_lsn();

  // 1. Everything the image claims to cover must be on disk first.
  AUXVIEW_RETURN_IF_ERROR(Fsync());

  // 2. Rotate so the already-written segments become a deletable prefix.
  //    (When no records were appended since the last rotation the "new"
  //    segment is the current empty one.)
  const std::string fresh = SegmentPath(next_lsn_);
  if (fresh != segment_path_) {
    AUXVIEW_RETURN_IF_ERROR(OpenSegment(fresh, false));
    AUXVIEW_RETURN_IF_ERROR(FsyncDir());
  }

  // 3. Serialize the image to a temp file and make it durable.
  wal::ByteWriter w;
  EncodeCheckpointImage(&w, image);
  const uint32_t crc = Crc32c(w.buffer().data(), w.buffer().size());
  w.U32(crc);
  const std::string tmp_path = options_.wal_dir + "/" + kCheckpointTmpName;
  const int tmp_fd = ::open(tmp_path.c_str(), O_CREAT | O_WRONLY | O_TRUNC,
                            0644);
  if (tmp_fd < 0) return Status::Internal(Errno("wal: open " + tmp_path));
  size_t written = 0;
  const std::string& buf = w.buffer();
  while (written < buf.size()) {
    const ssize_t n = ::write(tmp_fd, buf.data() + written,
                              buf.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(tmp_fd);
      return Status::Internal(Errno("wal: write " + tmp_path));
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(tmp_fd) != 0) {
    ::close(tmp_fd);
    return Status::Internal(Errno("wal: fsync " + tmp_path));
  }
  ::close(tmp_fd);
  WalCounter("wal.fsyncs")->Add(1);

  // 4. The crash window the protocol is designed around: a failure here
  //    leaves checkpoint.tmp behind, which the next Open discards.
  AUXVIEW_FAILPOINT("wal.checkpoint.mid");

  // 5. Atomically publish.
  const std::string ckpt_path = options_.wal_dir + "/" + kCheckpointName;
  if (::rename(tmp_path.c_str(), ckpt_path.c_str()) != 0) {
    return Status::Internal(Errno("wal: rename " + tmp_path));
  }
  AUXVIEW_RETURN_IF_ERROR(FsyncDir());

  // 6. The prefix is now redundant: every record it holds has
  //    lsn <= image.last_lsn. A crash between unlinks is fine — the scan
  //    skips covered records by LSN.
  DIR* dir = ::opendir(options_.wal_dir.c_str());
  if (dir != nullptr) {
    std::vector<std::string> stale;
    while (struct dirent* ent = ::readdir(dir)) {
      const std::string name = ent->d_name;
      if (name.size() == 24 && name.rfind("wal-", 0) == 0 &&
          name.substr(20) == ".log" &&
          options_.wal_dir + "/" + name != segment_path_) {
        stale.push_back(options_.wal_dir + "/" + name);
      }
    }
    ::closedir(dir);
    for (const std::string& path : stale) ::unlink(path.c_str());
    if (!stale.empty()) AUXVIEW_RETURN_IF_ERROR(FsyncDir());
  }

  appends_since_checkpoint_ = 0;
  WalCounter("wal.checkpoints")->Add(1);
  return Status::Ok();
}

CheckpointImage BuildCheckpointImage(const Database& db,
                                     const Catalog* catalog) {
  CheckpointImage image;
  if (catalog != nullptr) image.stats_epoch = catalog->stats_epoch();
  for (const std::string& name : db.TableNames()) {
    // Materialized views are derived state: recovery re-creates them from
    // the base tables through the normal Materialize path.
    if (name.rfind("__mv_", 0) == 0) continue;
    const Table* table = db.FindTable(name);
    TableImage t;
    t.def = table->def();
    if (catalog != nullptr) {
      const TableDef* cat_def = catalog->FindTable(name);
      if (cat_def != nullptr) {
        t.has_catalog_stats = true;
        t.catalog_stats = cat_def->stats;
      }
    }
    for (CountedRow& cr : table->SnapshotUncharged()) {
      t.rows.emplace_back(std::move(cr.row), cr.count);
    }
    image.tables.push_back(std::move(t));
  }
  return image;
}

}  // namespace auxview
