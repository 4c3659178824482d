// ha::Journal — the durable dispatcher log's storage (docs/HA.md).
//
// Every dispatcher transition becomes one LogRecord. append_records applies
// a run of them to an in-memory StateMachine, writes them to the segmented
// WAL and keeps their frames in the replication tail under one mutex, so the
// WAL order, the state machine and the tail always agree. Periodically
// (snapshot_every records) the current image is written as a snapshot and
// fully-covered WAL segments are compacted, which bounds recovery to one
// snapshot load plus at most snapshot_every record replays per
// segment-rotation interval.
//
// A dispatcher never calls a Journal: ha::AsyncJournal wraps it,
// implements core::StateJournal and core::ReplicationSource, and appends
// from its drain thread. A warm standby pulls the framed tail (a ReplTail
// bounded by repl_tail_bytes) via fetch(), or a full image when it has
// fallen behind the tail.
//
// Lock discipline: mu_ is a leaf. Its callers (the drain thread, a
// replication fetch, status accessors) hold no dispatcher lock.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/journal.h"
#include "ha/repl_tail.h"
#include "ha/state.h"
#include "ha/wal.h"
#include "obs/obs.h"

namespace falkon::ha {

// ---- snapshot files (snap-<lsn>.snap: "FSNP" v2, crc-checked) ----------

struct SnapshotInfo {
  std::uint64_t lsn{0};
  std::uint64_t epoch{0};  // promotion epoch at snapshot time (v1 files: 0)
  std::vector<std::uint8_t> payload;  // encode_image bytes
};

/// Write an image snapshot at `lsn` under `epoch` (temp file + rename:
/// readers never see a partial snapshot) and prune all but the newest two.
Status write_snapshot(const std::string& dir, std::uint64_t lsn,
                      std::uint64_t epoch,
                      const std::vector<std::uint8_t>& payload);

/// Newest snapshot that passes its CRC; corrupt ones are skipped in favour
/// of older ones. nullopt when none is loadable. Reads both the v2 header
/// (with epoch) and legacy v1 (epoch reported as 0).
[[nodiscard]] std::optional<SnapshotInfo> load_latest_snapshot(
    const std::string& dir);

/// Highest epoch recorded in `dir` (newest snapshot header and every
/// RecEpoch past it). This is the promotion fence: a promoting process
/// re-reads it after binding and aborts if someone recorded a higher
/// epoch. 0 when the directory is empty or pre-epoch.
[[nodiscard]] std::uint64_t read_log_epoch(const std::string& dir);

// ---- the journal --------------------------------------------------------

class Journal final {
 public:
  using Batch = core::ReplicationSource::Batch;

  struct Options {
    std::string dir;  // holds wal-*.log segments and snap-*.snap files
    FsyncPolicy fsync{FsyncPolicy::kGroupCommit};
    double group_commit_interval_s{0.02};
    std::uint64_t segment_bytes{8ull << 20};
    /// Write a snapshot + compact every N appended records (0 disables).
    std::uint64_t snapshot_every{4096};
    /// In-memory framed-record tail served to pulling standbys; a follower
    /// further behind than this gets a full snapshot instead.
    std::size_t repl_tail_bytes{4u << 20};
    /// Non-zero: fence recovery to this epoch. open() fails with
    /// kAlreadyExists when the recovered epoch is already >= this
    /// value (another process won the promotion race), otherwise appends
    /// RecEpoch{promote_epoch} and fsyncs it before returning — the append
    /// IS the election commit point for processes sharing the directory.
    std::uint64_t promote_epoch{0};
    obs::Obs* obs{nullptr};
  };

  /// Recover from `dir`: load the newest good snapshot, let Wal::open
  /// repair any torn tail, replay records past the snapshot into the state
  /// machine. An empty directory yields an empty journal at LSN 0.
  static Result<std::unique_ptr<Journal>> open(Options options);

  /// Bootstrap a *fresh* directory from a warm in-memory image at
  /// `last_lsn` (standby promotion without a shared log directory): writes
  /// the image as the base snapshot and starts the WAL at last_lsn + 1.
  static Result<std::unique_ptr<Journal>> open(
      Options options, const core::DispatcherImage& bootstrap_image,
      std::uint64_t bootstrap_lsn);

  /// State reconstructed by open() — feed it to Dispatcher::restore()
  /// before attaching the journal to a live dispatcher.
  [[nodiscard]] core::DispatcherImage recovered_image() const;

  [[nodiscard]] std::uint64_t last_lsn() const;
  /// Current promotion epoch (recovered, possibly bumped by promote_epoch).
  [[nodiscard]] std::uint64_t epoch() const;
  /// Torn-tail / record-count diagnostics from recovery.
  [[nodiscard]] const ReplayStats& recovery_stats() const;

  Status sync();
  /// Force a snapshot + compaction now (tests, clean shutdown).
  Status snapshot_now();

  /// Apply + append a run of records under one mu_ acquisition and one WAL
  /// write (Wal::append_frames); the run's frame buffer then moves into the
  /// replication tail whole. AsyncJournal's drain thread appends each ring
  /// batch this way. Records are consumed (payloads moved into the state
  /// machine after encoding) — the caller's vector holds moved-from records
  /// on return.
  void append_records(std::vector<LogRecord>& records);

  /// Replication (served by AsyncJournal as core::ReplicationSource): the
  /// tail from `from_lsn`, or the full image when the follower is behind it.
  Batch fetch(std::uint64_t from_lsn, std::uint32_t max_bytes);
  /// Follower progress report (ReplAck): feeds the replication-lag gauges.
  void note_ack(std::uint64_t applied_lsn);

 private:
  explicit Journal(Options options);

  Status snapshot_locked();
  /// Bump records_since_snapshot_ by `new_records` and snapshot when the
  /// cadence (scaled by StateMachine::live_size) is due.
  void maybe_snapshot_locked(std::uint64_t new_records);

  Options options_;
  mutable std::mutex mu_;
  std::unique_ptr<Wal> wal_;
  StateMachine sm_;
  core::DispatcherImage recovered_;
  std::uint64_t last_lsn_{0};
  std::uint64_t records_since_snapshot_{0};
  /// Reused record-encode buffer for append_records (guarded by mu_).
  wire::Writer scratch_writer_;
  /// Recent frames served to followers (guarded by mu_).
  ReplTail tail_;

  obs::Counter* m_records_{nullptr};
  obs::Counter* m_snapshots_{nullptr};
  obs::Gauge* m_last_lsn_{nullptr};
  obs::Gauge* m_acked_lsn_{nullptr};
  obs::Gauge* m_lag_{nullptr};
};

}  // namespace falkon::ha
