// Durability hooks for the dispatcher (docs/HA.md).
//
// The dispatcher is the paper's single point of failure: a crash loses
// every queued, bundled and in-flight task. StateJournal is the seam that
// fixes this without coupling core to any storage or replication code —
// the dispatcher calls one hook per state transition (submit, assign,
// requeue/retry, complete/quarantine, delivered, instance lifecycle) and
// `falkon::ha` implements them with a segmented write-ahead log, periodic
// snapshots and a warm standby.
//
// Contract: every hook is invoked *before* the transition becomes visible
// to other dispatcher threads (while the lock guarding it is still held),
// and implementations serialise appends internally. That makes the log a
// linearisation of dispatcher history: replaying it in order reconstructs
// the state the dispatcher would expose. Hook implementations must treat
// their own mutex as a leaf lock — they are called under inst_mu_,
// queue_mu_, entry mutexes and instance mutexes, and must never call back
// into the dispatcher.
//
// Follows the nullable-hook discipline of obs::Obs* / fault::FaultInjector*:
// DispatcherConfig::journal == nullptr disables journaling at the cost of
// one predicted branch per transition.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/task.h"

namespace falkon::core {

/// A client instance as reconstructed from the log: its identity, the
/// submit-seq high-water mark (dedup across failover) and the results that
/// completed but were never picked up (the mailbox, re-delivered after a
/// takeover; the client dedups by task id).
struct InstanceImage {
  InstanceId id;
  ClientId client;
  std::uint64_t last_submit_seq{0};
  std::vector<TaskResult> mailbox;
};

/// A non-terminal task. Tasks that were assigned to an executor at crash
/// time are indistinguishable from queued ones after recovery — the
/// executors are gone — so both re-enter the wait queue with their attempt
/// count preserved.
struct QueuedTaskImage {
  InstanceId instance;
  TaskSpec spec;
  int attempts{0};
};

/// Everything needed to restart a dispatcher: Dispatcher::restore() seeds a
/// fresh dispatcher from it, ha::StateMachine folds log records into it,
/// and snapshots serialise it.
struct DispatcherImage {
  /// High-water mark of handed-out instance ids (restored so a promoted
  /// dispatcher never re-issues an id).
  std::uint64_t next_instance_id{0};
  std::vector<InstanceImage> instances;
  /// All non-terminal tasks in submission/requeue order.
  std::vector<QueuedTaskImage> queue;

  // Terminal counters, so status() stays continuous across a takeover.
  std::uint64_t submitted{0};
  std::uint64_t completed{0};
  std::uint64_t failed{0};
  std::uint64_t retried{0};
  std::uint64_t quarantined{0};

  /// Promotion epoch the state was produced under (monotone across
  /// failovers; 0 = pre-epoch state). Fencing, not payload: the dispatcher
  /// never inspects it, but services reject stale-epoch peers with it.
  std::uint64_t epoch{0};
};

/// Journaling hooks, one per dispatcher state transition. See the ordering
/// contract in the file comment.
class StateJournal {
 public:
  virtual ~StateJournal() = default;

  virtual void on_instance_created(InstanceId instance, ClientId client) = 0;
  virtual void on_instance_destroyed(InstanceId instance) = 0;
  /// `submit_seq` is the client's dedup sequence (0: client not using dedup).
  virtual void on_submit(InstanceId instance, std::uint64_t submit_seq,
                         const std::vector<TaskSpec>& tasks) = 0;
  /// Tasks handed to an executor in one bundle.
  virtual void on_assign(ExecutorId executor,
                         const std::vector<TaskId>& tasks) = 0;
  /// Tasks returned to the wait queue; `retry` when the attempt counter was
  /// bumped (failure retry / replay timeout) as opposed to a blameless
  /// executor removal.
  virtual void on_requeue(const std::vector<TaskId>& tasks, bool retry) = 0;
  /// Terminal result (success, permanent failure, or quarantine).
  virtual void on_complete(InstanceId instance, const TaskResult& result,
                           bool quarantined) = 0;
  /// Results handed to the client by wait_results: they leave the mailbox
  /// and must not be re-delivered after recovery.
  virtual void on_delivered(InstanceId instance,
                            const std::vector<TaskId>& tasks) = 0;

  /// Durability barrier: returns once every hook invoked before this call
  /// has reached the journal's storage (per its fsync policy).
  /// ha::AsyncJournal, the one storage-backed journal, drains its queue
  /// here. Journals that finish their work inside the hook (test fakes, a
  /// benchmark's null journal) keep the default no-op. Called OUTSIDE
  /// dispatcher locks — unlike the hooks, barrier() may block.
  virtual void barrier() {}
};

/// Server side of log shipping: the warm standby pulls record batches (or a
/// full snapshot when it is too far behind) through this interface, which
/// the TCP service exposes as the ReplFetch/ReplAppend/ReplSnapshot
/// messages (docs/HA.md).
class ReplicationSource {
 public:
  /// Either a run of framed log records [first_lsn, last_lsn] or, when the
  /// requested position fell behind the in-memory tail, a full state
  /// snapshot at `last_lsn`. An empty payload with is_snapshot == false
  /// means the follower is already caught up.
  struct Batch {
    bool is_snapshot{false};
    std::uint64_t first_lsn{0};
    std::uint64_t last_lsn{0};
    std::string payload;
    /// Source's current epoch, stamped on the Repl* reply.
    std::uint64_t epoch{0};
  };

  virtual ~ReplicationSource() = default;

  virtual Batch fetch(std::uint64_t from_lsn, std::uint32_t max_bytes) = 0;

  /// Follower progress report (ReplAck); drives replication-lag metrics.
  virtual void note_ack(std::uint64_t applied_lsn) { (void)applied_lsn; }
};

}  // namespace falkon::core
