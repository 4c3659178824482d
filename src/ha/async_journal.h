// ha::AsyncJournal — the dispatcher's journal (docs/HA.md).
//
// Every journaling dispatcher — a primary, a promoted standby, the testkit
// runners — journals through this class; ha::Journal is the storage behind
// it. The hooks run under the dispatcher locks that guard each transition,
// so they only move the LogRecord into a bounded MPSC ring (a Vyukov-style
// sequence-numbered cell array — producers claim a ticket with one
// fetch_add while the dispatcher lock is held, so ring order IS the
// dispatcher's linearisation order). A single drain thread (named
// `journal`) hands the ring to the wrapped Journal in batches; encoding,
// CRC, the WAL write and the journal's fsync policy all happen there, off
// the dispatcher's locks.
//
// Durability contract: StateJournal::barrier() blocks until every record
// enqueued before the call has been handed to the inner journal. The
// dispatcher calls it after releasing its locks and before acknowledging a
// submit, so "submit acked" implies "record reached the WAL" (under
// kGroupCommit that is not fsync-on-ack; that is the policy's contract).
//
// Backpressure: a full ring blocks the producer until the drain frees a
// cell, which is bounded by one batch append.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "ha/journal.h"

namespace falkon::ha {

class AsyncJournal final : public core::StateJournal,
                           public core::ReplicationSource {
 public:
  struct Options {
    /// Ring capacity in records; rounded up to a power of two. A full ring
    /// blocks producers until the drain thread frees a cell.
    std::size_t queue_capacity{4096};
  };

  /// Wraps an opened Journal; the drain thread starts immediately.
  explicit AsyncJournal(std::unique_ptr<Journal> inner);
  AsyncJournal(std::unique_ptr<Journal> inner, Options options);
  /// Drains everything still queued, then stops the thread.
  ~AsyncJournal() override;

  AsyncJournal(const AsyncJournal&) = delete;
  AsyncJournal& operator=(const AsyncJournal&) = delete;

  [[nodiscard]] Journal& inner() { return *inner_; }
  [[nodiscard]] std::uint64_t epoch() const { return inner_->epoch(); }

  /// Records enqueued but not yet appended (observability / tests).
  [[nodiscard]] std::uint64_t backlog() const;

  // core::StateJournal -----------------------------------------------------
  void on_instance_created(InstanceId instance, ClientId client) override;
  void on_instance_destroyed(InstanceId instance) override;
  void on_submit(InstanceId instance, std::uint64_t submit_seq,
                 const std::vector<TaskSpec>& tasks) override;
  void on_assign(ExecutorId executor,
                 const std::vector<TaskId>& tasks) override;
  void on_requeue(const std::vector<TaskId>& tasks, bool retry) override;
  void on_complete(InstanceId instance, const TaskResult& result,
                   bool quarantined) override;
  void on_delivered(InstanceId instance,
                    const std::vector<TaskId>& tasks) override;
  void barrier() override;

  // core::ReplicationSource ------------------------------------------------
  /// Drains the ring first so a follower never observes the journal behind
  /// the dispatcher's acknowledged state.
  Batch fetch(std::uint64_t from_lsn, std::uint32_t max_bytes) override;
  void note_ack(std::uint64_t applied_lsn) override;

 private:
  struct Cell {
    std::atomic<std::uint64_t> seq{0};
    LogRecord record;
  };

  void enqueue(LogRecord record);
  void drain_loop();

  std::unique_ptr<Journal> inner_;
  std::vector<Cell> ring_;
  std::size_t mask_{0};

  /// Next ticket to claim (producers) / next cell to consume (drain).
  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> tail_{0};
  /// Count of records fully handed to inner_ (barrier watermark).
  std::atomic<std::uint64_t> appended_{0};

  std::atomic<bool> stopping_{false};
  /// Wakeup plumbing: drain sleeps on a 1 ms tick when the ring stays
  /// empty; producers wake it early only when the backlog gets deep, and
  /// barrier() callers wake it explicitly (flush_requested_), then sleep
  /// until appended_ catches up to their ticket. The drain skips the
  /// barrier futex entirely while barrier_waiters_ is zero.
  std::mutex wake_mu_;
  std::condition_variable drain_cv_;    // producers -> drain thread
  std::condition_variable barrier_cv_;  // drain thread -> barrier()/dtor
  std::atomic<bool> drain_sleeping_{false};
  std::atomic<bool> flush_requested_{false};
  std::atomic<int> barrier_waiters_{0};

  /// Drain-thread-only scratch: records moved out of the ring for one
  /// Journal::append_records batch (kept across laps to reuse capacity).
  std::vector<LogRecord> batch_;

  std::thread drain_thread_;
};

}  // namespace falkon::ha
