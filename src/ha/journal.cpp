#include "ha/journal.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/logging.h"

namespace falkon::ha {
namespace {

constexpr char kSnapMagic[4] = {'F', 'S', 'N', 'P'};
constexpr std::uint32_t kSnapVersionV1 = 1;
constexpr std::uint32_t kSnapVersion = 2;
// v2: magic + u32 version + u64 lsn + u64 epoch + u32 len + u32 crc
constexpr std::size_t kSnapHeaderBytes = 32;
// v1 (no epoch): magic + u32 version + u64 lsn + u32 len + u32 crc
constexpr std::size_t kSnapHeaderBytesV1 = 24;

std::string snapshot_path(const std::string& dir, std::uint64_t lsn) {
  char name[48];
  std::snprintf(name, sizeof(name), "snap-%020llu.snap",
                static_cast<unsigned long long>(lsn));
  return dir + "/" + name;
}

std::uint64_t parse_snapshot_name(const char* name) {
  unsigned long long lsn = 0;
  char tail[8] = {0};
  if (std::sscanf(name, "snap-%20llu.%4s", &lsn, tail) != 2) return 0;
  if (std::strcmp(tail, "snap") != 0) return 0;
  return lsn;
}

void put_u32(std::uint8_t* out, std::uint32_t v) {
  std::memcpy(out, &v, 4);
}

void put_u64(std::uint8_t* out, std::uint64_t v) {
  std::memcpy(out, &v, 8);
}

/// Sorted descending by lsn: newest first.
std::vector<std::pair<std::uint64_t, std::string>> list_snapshots(
    const std::string& dir) {
  std::vector<std::pair<std::uint64_t, std::string>> out;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return out;
  while (dirent* entry = ::readdir(d)) {
    const std::uint64_t lsn = parse_snapshot_name(entry->d_name);
    if (lsn != 0) out.emplace_back(lsn, dir + "/" + entry->d_name);
  }
  ::closedir(d);
  std::sort(out.begin(), out.end(), std::greater<>());
  return out;
}

}  // namespace

Status write_snapshot(const std::string& dir, std::uint64_t lsn,
                      std::uint64_t epoch,
                      const std::vector<std::uint8_t>& payload) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return make_error(ErrorCode::kIoError,
                      "mkdir " + dir + ": " + std::strerror(errno));
  }
  const std::string path = snapshot_path(dir, lsn);
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return make_error(ErrorCode::kIoError,
                      "open " + tmp + ": " + std::strerror(errno));
  }
  std::uint8_t header[kSnapHeaderBytes];
  std::memcpy(header, kSnapMagic, 4);
  put_u32(header + 4, kSnapVersion);
  put_u64(header + 8, lsn);
  put_u64(header + 16, epoch);
  put_u32(header + 24, static_cast<std::uint32_t>(payload.size()));
  put_u32(header + 28, crc32(payload.data(), payload.size()));
  bool ok = ::write(fd, header, sizeof(header)) ==
            static_cast<ssize_t>(sizeof(header));
  ok = ok && ::write(fd, payload.data(), payload.size()) ==
                 static_cast<ssize_t>(payload.size());
  ok = ok && ::fsync(fd) == 0;
  const int err = errno;
  ::close(fd);
  if (!ok) {
    ::unlink(tmp.c_str());
    return make_error(ErrorCode::kIoError,
                      "write " + tmp + ": " + std::strerror(err));
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int rerr = errno;
    ::unlink(tmp.c_str());
    return make_error(ErrorCode::kIoError,
                      "rename " + path + ": " + std::strerror(rerr));
  }
  // Keep the newest two: the one just written plus one fallback in case it
  // is later found corrupt.
  const auto snaps = list_snapshots(dir);
  for (std::size_t i = 2; i < snaps.size(); ++i) {
    ::unlink(snaps[i].second.c_str());
  }
  return ok_status();
}

std::optional<SnapshotInfo> load_latest_snapshot(const std::string& dir) {
  for (const auto& [lsn, path] : list_snapshots(dir)) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) continue;
    // Read the fixed v2 prefix up to the version field, then the rest of
    // whichever header layout the version selects.
    std::uint8_t header[kSnapHeaderBytes];
    if (::read(fd, header, kSnapHeaderBytesV1) !=
        static_cast<ssize_t>(kSnapHeaderBytesV1)) {
      ::close(fd);
      continue;
    }
    std::uint32_t version = 0;
    std::uint64_t stored_lsn = 0;
    std::uint64_t epoch = 0;
    std::uint32_t len = 0;
    std::uint32_t want_crc = 0;
    std::memcpy(&version, header + 4, 4);
    std::memcpy(&stored_lsn, header + 8, 8);
    if (version == kSnapVersionV1) {
      std::memcpy(&len, header + 16, 4);
      std::memcpy(&want_crc, header + 20, 4);
    } else if (version == kSnapVersion) {
      if (::read(fd, header + kSnapHeaderBytesV1,
                 kSnapHeaderBytes - kSnapHeaderBytesV1) !=
          static_cast<ssize_t>(kSnapHeaderBytes - kSnapHeaderBytesV1)) {
        ::close(fd);
        continue;
      }
      std::memcpy(&epoch, header + 16, 8);
      std::memcpy(&len, header + 24, 4);
      std::memcpy(&want_crc, header + 28, 4);
    }
    if (std::memcmp(header, kSnapMagic, 4) != 0 ||
        (version != kSnapVersionV1 && version != kSnapVersion) ||
        stored_lsn != lsn) {
      ::close(fd);
      continue;
    }
    std::vector<std::uint8_t> payload(len);
    std::size_t got = 0;
    while (got < len) {
      const ssize_t n = ::read(fd, payload.data() + got, len - got);
      if (n <= 0) break;
      got += static_cast<std::size_t>(n);
    }
    ::close(fd);
    if (got != len || crc32(payload.data(), len) != want_crc) {
      LOG_WARN("ha", "snapshot %s failed crc check, trying older",
               path.c_str());
      continue;
    }
    return SnapshotInfo{lsn, epoch, std::move(payload)};
  }
  return std::nullopt;
}

std::uint64_t read_log_epoch(const std::string& dir) {
  std::uint64_t epoch = 0;
  std::uint64_t base_lsn = 0;
  if (auto snap = load_latest_snapshot(dir)) {
    epoch = snap->epoch;
    base_lsn = snap->lsn;
  }
  (void)Wal::replay(dir, base_lsn + 1,
                    [&](std::uint64_t, const std::uint8_t* payload,
                        std::size_t size) {
                      auto record = decode_record(payload, size);
                      if (!record.ok()) return false;
                      if (const auto* bump =
                              std::get_if<RecEpoch>(&record.value())) {
                        epoch = std::max(epoch, bump->epoch);
                      }
                      return true;
                    });
  return epoch;
}

// ---------------------------------------------------------------- Journal

Journal::Journal(Options options)
    : options_(std::move(options)), tail_(options_.repl_tail_bytes) {
  if (options_.obs != nullptr) {
    auto& reg = options_.obs->registry();
    m_records_ = &reg.counter("falkon.ha.journal.records");
    m_snapshots_ = &reg.counter("falkon.ha.snapshot.writes");
    m_last_lsn_ = &reg.gauge("falkon.ha.journal.last_lsn");
    m_acked_lsn_ = &reg.gauge("falkon.ha.repl.acked_lsn");
    m_lag_ = &reg.gauge("falkon.ha.repl.lag");
  }
}

Result<std::unique_ptr<Journal>> Journal::open(Options options) {
  std::unique_ptr<Journal> journal(new Journal(std::move(options)));
  std::uint64_t base_lsn = 0;
  if (auto snap = load_latest_snapshot(journal->options_.dir)) {
    auto image = decode_image(snap->payload.data(), snap->payload.size());
    if (!image.ok()) {
      return make_error(image.error().code,
                        "snapshot at lsn " + std::to_string(snap->lsn) + ": " +
                            image.error().message);
    }
    journal->sm_.reset(image.value());
    base_lsn = snap->lsn;
  }

  WalOptions wal_options;
  wal_options.dir = journal->options_.dir;
  wal_options.fsync = journal->options_.fsync;
  wal_options.group_commit_interval_s =
      journal->options_.group_commit_interval_s;
  wal_options.segment_bytes = journal->options_.segment_bytes;
  wal_options.initial_lsn = base_lsn + 1;
  wal_options.obs = journal->options_.obs;
  auto wal = Wal::open(std::move(wal_options));
  if (!wal.ok()) return wal.error();
  journal->wal_ = wal.take();

  // Fold every surviving record past the snapshot into the state machine.
  Status replay_status = ok_status();
  auto replayed = Wal::replay(
      journal->options_.dir, base_lsn + 1,
      [&](std::uint64_t lsn, const std::uint8_t* payload, std::size_t size) {
        auto record = decode_record(payload, size);
        if (!record.ok()) {
          replay_status = make_error(
              record.error().code, "record at lsn " + std::to_string(lsn) +
                                       ": " + record.error().message);
          return false;
        }
        journal->sm_.apply(record.value());
        return true;
      });
  if (!replayed.ok()) return replayed.error();
  if (!replay_status.ok()) return replay_status.error();

  journal->last_lsn_ = std::max(base_lsn, journal->wal_->last_lsn());

  // Epoch fence: first process to append (and fsync) the RecEpoch bump
  // owns the new epoch; everyone else arriving at the same directory sees
  // an epoch >= theirs and must stand down.
  if (journal->options_.promote_epoch != 0) {
    if (journal->sm_.epoch() >= journal->options_.promote_epoch) {
      return make_error(
          ErrorCode::kAlreadyExists,
          "journal already fenced at epoch " +
              std::to_string(journal->sm_.epoch()) + " (wanted " +
              std::to_string(journal->options_.promote_epoch) + ")");
    }
    std::vector<LogRecord> fence{RecEpoch{journal->options_.promote_epoch}};
    journal->append_records(fence);
    if (auto st = journal->wal_->sync(); !st.ok()) {
      return make_error(st.error().code,
                        "epoch fence fsync: " + st.error().message);
    }
  }
  journal->recovered_ = journal->sm_.image();
  if (journal->m_last_lsn_ != nullptr) {
    journal->m_last_lsn_->set(static_cast<double>(journal->last_lsn_));
  }
  LOG_INFO("ha",
           "journal recovered: lsn=%llu records_replayed=%llu torn_tail=%d",
           static_cast<unsigned long long>(journal->last_lsn_),
           static_cast<unsigned long long>(replayed.value().records),
           journal->wal_->recovery_stats().torn_tail ? 1 : 0);
  return journal;
}

Result<std::unique_ptr<Journal>> Journal::open(
    Options options, const core::DispatcherImage& bootstrap_image,
    std::uint64_t bootstrap_lsn) {
  const std::vector<std::uint8_t> payload = encode_image(bootstrap_image);
  if (auto st = write_snapshot(options.dir, bootstrap_lsn,
                               bootstrap_image.epoch, payload);
      !st.ok()) {
    return st.error();
  }
  return open(std::move(options));
}

core::DispatcherImage Journal::recovered_image() const {
  std::lock_guard lock(mu_);
  return recovered_;
}

std::uint64_t Journal::last_lsn() const {
  std::lock_guard lock(mu_);
  return last_lsn_;
}

std::uint64_t Journal::epoch() const {
  std::lock_guard lock(mu_);
  return sm_.epoch();
}

const ReplayStats& Journal::recovery_stats() const {
  return wal_->recovery_stats();
}

Status Journal::sync() { return wal_->sync(); }

Status Journal::snapshot_now() {
  std::lock_guard lock(mu_);
  return snapshot_locked();
}

Status Journal::snapshot_locked() {
  const std::vector<std::uint8_t> payload = encode_image(sm_.image());
  if (auto st = write_snapshot(options_.dir, last_lsn_, sm_.epoch(), payload);
      !st.ok()) {
    return st;
  }
  wal_->compact(last_lsn_);
  records_since_snapshot_ = 0;
  if (m_snapshots_ != nullptr) m_snapshots_->inc();
  return ok_status();
}

void Journal::append_records(std::vector<LogRecord>& records) {
  if (records.empty()) return;
  std::lock_guard lock(mu_);
  // One pass builds the exact segment bytes (concatenated frames), then a
  // single Wal::append_frames call commits the run: one write syscall and
  // one fsync-policy check per batch, and the frame buffer moves into the
  // repl tail wholesale — no per-record tail allocation. Records are
  // encoded before they are applied so apply can move their payloads
  // (task specs, results) into the state machine instead of copying.
  std::vector<std::uint8_t> frames;
  for (LogRecord& record : records) {
    encode_record(record, scratch_writer_);
    Wal::frame_record(frames, scratch_writer_.data().data(),
                      scratch_writer_.size());
    sm_.apply(std::move(record));
  }
  auto lsn = wal_->append_frames(frames.data(), frames.size(), records.size());
  if (lsn.ok()) {
    last_lsn_ = lsn.value();
  } else {
    // Disk trouble must not take the dispatcher down: keep the in-memory
    // LSN sequence advancing so replication stays consistent, and complain.
    last_lsn_ += records.size();
    LOG_ERROR("ha", "wal batch append failed at lsn %llu: %s",
              static_cast<unsigned long long>(last_lsn_),
              lsn.error().message.c_str());
  }
  tail_.push(last_lsn_ - records.size() + 1, records.size(),
             std::move(frames));
  if (m_records_ != nullptr) m_records_->inc(records.size());
  if (m_last_lsn_ != nullptr) {
    m_last_lsn_->set(static_cast<double>(last_lsn_));
  }
  maybe_snapshot_locked(records.size());
}

void Journal::maybe_snapshot_locked(std::uint64_t new_records) {
  // Snapshot cadence scales with the live image: writing an O(state)
  // snapshot every fixed interval turns a large backlog (e.g. 100k queued
  // tasks) into quadratic append cost. Requiring at least k * live_size()
  // records between snapshots caps the amortized snapshot cost at
  // (per-entry image cost) / k per append; recovery replay is bounded by
  // k * live_size records past the snapshot in exchange.
  constexpr std::uint64_t kSnapshotLiveMultiplier = 8;
  records_since_snapshot_ += new_records;
  if (options_.snapshot_every != 0 &&
      records_since_snapshot_ >=
          std::max<std::uint64_t>(options_.snapshot_every,
                                  kSnapshotLiveMultiplier * sm_.live_size())) {
    if (auto st = snapshot_locked(); !st.ok()) {
      LOG_WARN("ha", "periodic snapshot failed: %s",
               st.error().message.c_str());
      records_since_snapshot_ = 0;  // back off a full interval before retry
    }
  }
}

Journal::Batch Journal::fetch(std::uint64_t from_lsn, std::uint32_t max_bytes) {
  std::lock_guard lock(mu_);
  return answer_fetch(tail_, sm_, last_lsn_, from_lsn, max_bytes);
}

void Journal::note_ack(std::uint64_t applied_lsn) {
  std::lock_guard lock(mu_);
  if (m_acked_lsn_ != nullptr) {
    m_acked_lsn_->set(static_cast<double>(applied_lsn));
  }
  if (m_lag_ != nullptr) {
    m_lag_->set(applied_lsn >= last_lsn_
                    ? 0.0
                    : static_cast<double>(last_lsn_ - applied_lsn));
  }
}

}  // namespace falkon::ha
