// ha::ReplTail — the in-memory replication tail (docs/HA.md).
//
// A replication source keeps its most recent records as framed bytes
// (Wal::frame_record, the ReplAppend payload encoding) so a follower's
// ReplFetch is a slice, not a re-encode. The primary's Journal pushes one
// run per append batch; a standby pushes each ReplAppend it applies, so a
// chained follower receives the bytes the primary framed. A follower older
// than the tail gets the source's full image instead (answer_fetch).
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "core/journal.h"
#include "ha/state.h"

namespace falkon::ha {

class ReplTail {
 public:
  /// Runs are dropped oldest-first while the tail holds more than
  /// `max_bytes`; the newest run always stays.
  explicit ReplTail(std::size_t max_bytes) : max_bytes_(max_bytes) {}

  /// Append `count` concatenated frames whose first record is `first_lsn`.
  /// The buffer moves in whole: no per-record allocation or copy.
  void push(std::uint64_t first_lsn, std::uint64_t count,
            std::vector<std::uint8_t> frames);
  void clear();

  /// The frames from `from_lsn` on, cut on a record boundary within
  /// `max_bytes` but always at least one record, into batch.first_lsn,
  /// batch.last_lsn and batch.payload. false: the tail no longer holds
  /// `from_lsn` (or never did) — the follower is behind it.
  bool read(std::uint64_t from_lsn, std::uint32_t max_bytes,
            core::ReplicationSource::Batch& batch) const;

 private:
  struct Run {
    std::uint64_t first_lsn{0};
    std::uint64_t count{0};
    std::vector<std::uint8_t> frames;
  };

  std::size_t max_bytes_;
  std::deque<Run> runs_;
  std::size_t bytes_{0};
};

/// The ReplFetch answer of a source whose state `sm` stands at `last_lsn`
/// and whose recent records `tail` holds: empty when the follower is caught
/// up, a tail slice, or the full image at `last_lsn` when the follower is
/// behind the tail. Stamped with sm's epoch.
[[nodiscard]] core::ReplicationSource::Batch answer_fetch(
    const ReplTail& tail, const StateMachine& sm, std::uint64_t last_lsn,
    std::uint64_t from_lsn, std::uint32_t max_bytes);

}  // namespace falkon::ha
