#include "ha/repl_tail.h"

#include "ha/wal.h"

namespace falkon::ha {

void ReplTail::push(std::uint64_t first_lsn, std::uint64_t count,
                    std::vector<std::uint8_t> frames) {
  bytes_ += frames.size();
  runs_.push_back(Run{first_lsn, count, std::move(frames)});
  while (bytes_ > max_bytes_ && runs_.size() > 1) {
    bytes_ -= runs_.front().frames.size();
    runs_.pop_front();
  }
}

void ReplTail::clear() {
  runs_.clear();
  bytes_ = 0;
}

bool ReplTail::read(std::uint64_t from_lsn, std::uint32_t max_bytes,
                    core::ReplicationSource::Batch& batch) const {
  if (runs_.empty() || runs_.front().first_lsn > from_lsn) return false;
  std::string payload;
  std::uint64_t first = 0;
  std::uint64_t last = 0;
  for (const Run& run : runs_) {
    const std::uint64_t run_last = run.first_lsn + run.count - 1;
    if (run_last < from_lsn) continue;
    // Walk the run's frames: skip those below from_lsn, then take frame by
    // frame so the byte cap lands on a record boundary.
    std::size_t off = 0;
    std::uint64_t lsn = run.first_lsn;
    for (; lsn < from_lsn; ++lsn) {
      off += Wal::frame_size(run.frames.data() + off);
    }
    for (; lsn <= run_last; ++lsn) {
      const std::size_t frame = Wal::frame_size(run.frames.data() + off);
      if (first != 0 && payload.size() + frame > max_bytes) break;
      if (first == 0) first = lsn;
      payload.append(reinterpret_cast<const char*>(run.frames.data() + off),
                     frame);
      off += frame;
      last = lsn;
    }
    if (lsn <= run_last) break;  // the byte cap cut this run
  }
  if (first == 0) return false;
  batch.first_lsn = first;
  batch.last_lsn = last;
  batch.payload = std::move(payload);
  return true;
}

core::ReplicationSource::Batch answer_fetch(const ReplTail& tail,
                                            const StateMachine& sm,
                                            std::uint64_t last_lsn,
                                            std::uint64_t from_lsn,
                                            std::uint32_t max_bytes) {
  core::ReplicationSource::Batch batch;
  batch.epoch = sm.epoch();
  batch.last_lsn = last_lsn;
  if (from_lsn > last_lsn || tail.read(from_lsn, max_bytes, batch)) {
    return batch;
  }
  batch.is_snapshot = true;
  batch.first_lsn = last_lsn;
  const std::vector<std::uint8_t> image = encode_image(sm.image());
  batch.payload.assign(reinterpret_cast<const char*>(image.data()),
                       image.size());
  return batch;
}

}  // namespace falkon::ha
