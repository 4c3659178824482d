#include "ha/async_journal.h"

#include <chrono>

#include "common/thread_pool.h"

namespace falkon::ha {
namespace {

std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

AsyncJournal::AsyncJournal(std::unique_ptr<Journal> inner)
    : AsyncJournal(std::move(inner), Options()) {}

AsyncJournal::AsyncJournal(std::unique_ptr<Journal> inner, Options options)
    : inner_(std::move(inner)),
      ring_(round_up_pow2(options.queue_capacity < 2 ? 2
                                                     : options.queue_capacity)),
      mask_(ring_.size() - 1) {
  // Vyukov sequencing: cell i is writable when seq == ticket, readable when
  // seq == ticket + 1; the drain thread resets it to ticket + ring size.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    ring_[i].seq.store(i, std::memory_order_relaxed);
  }
  drain_thread_ = std::thread([this] {
    set_thread_name("journal");
    drain_loop();
  });
}

AsyncJournal::~AsyncJournal() {
  barrier();  // nothing enqueued after this: the dispatcher is detached
  stopping_.store(true, std::memory_order_release);
  {
    std::lock_guard lock(wake_mu_);
    drain_cv_.notify_all();
  }
  if (drain_thread_.joinable()) drain_thread_.join();
}

std::uint64_t AsyncJournal::backlog() const {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t appended = appended_.load(std::memory_order_acquire);
  return head > appended ? head - appended : 0;
}

void AsyncJournal::enqueue(LogRecord record) {
  const std::uint64_t ticket =
      head_.fetch_add(1, std::memory_order_acq_rel);
  Cell& cell = ring_[ticket & mask_];
  // Ring full (drain lagging a whole lap): wait for our cell to free up.
  // Spin briefly, then yield — bounded by inner append latency.
  for (int spins = 0;
       cell.seq.load(std::memory_order_acquire) != ticket; ++spins) {
    if (spins > 128) std::this_thread::yield();
  }
  cell.record = std::move(record);
  cell.seq.store(ticket + 1, std::memory_order_release);
  // Wake the drain only when the backlog gets deep: a sleeping drain picks
  // up a shallow trickle on its own 1 ms tick, and a futex round trip per
  // record is exactly the hot-path cost this class exists to remove (on a
  // single-core host it also donates the producer's timeslice away).
  // barrier() wakes the drain explicitly, so ack latency never rides the
  // tick.
  if (drain_sleeping_.load(std::memory_order_acquire) &&
      ticket + 1 - appended_.load(std::memory_order_acquire) >=
          ring_.size() / 4) {
    std::lock_guard lock(wake_mu_);
    drain_cv_.notify_one();
  }
}

void AsyncJournal::drain_loop() {
  std::uint64_t next = 0;
  for (;;) {
    // Drain a batch: move every ready cell out (producers blocked on a
    // full ring resume immediately), hand the whole run to the inner
    // journal as one append_frames write, and publish the barrier
    // watermark plus its futex wakeup once per batch, not per record.
    batch_.clear();
    for (std::uint64_t claimed = next; batch_.size() < 256; ++claimed) {
      Cell& cell = ring_[claimed & mask_];
      if (cell.seq.load(std::memory_order_acquire) != claimed + 1) break;
      batch_.push_back(std::move(cell.record));
      cell.record = LogRecord{};  // drop payload before freeing the cell
      cell.seq.store(claimed + ring_.size(), std::memory_order_release);
    }
    if (!batch_.empty()) {
      inner_->append_records(batch_);
      next += batch_.size();
      appended_.store(next, std::memory_order_release);
      if (barrier_waiters_.load(std::memory_order_acquire) > 0) {
        std::lock_guard lock(wake_mu_);
        barrier_cv_.notify_all();
      }
      continue;
    }
    // Ring empty: spin a little for the common submit burst, then sleep.
    Cell& cell = ring_[next & mask_];
    bool got = false;
    for (int spins = 0; spins < 64; ++spins) {
      if (cell.seq.load(std::memory_order_acquire) == next + 1) {
        got = true;
        break;
      }
    }
    if (got) continue;
    if (stopping_.load(std::memory_order_acquire) &&
        head_.load(std::memory_order_acquire) == next) {
      return;
    }
    std::unique_lock lock(wake_mu_);
    drain_sleeping_.store(true, std::memory_order_release);
    drain_cv_.wait_for(lock, std::chrono::milliseconds(1), [&] {
      return cell.seq.load(std::memory_order_acquire) == next + 1 ||
             flush_requested_.load(std::memory_order_acquire) ||
             stopping_.load(std::memory_order_acquire);
    });
    drain_sleeping_.store(false, std::memory_order_release);
    flush_requested_.store(false, std::memory_order_release);
  }
}

void AsyncJournal::barrier() {
  const std::uint64_t target = head_.load(std::memory_order_acquire);
  if (appended_.load(std::memory_order_acquire) >= target) return;
  barrier_waiters_.fetch_add(1, std::memory_order_acq_rel);
  {
    std::unique_lock lock(wake_mu_);
    flush_requested_.store(true, std::memory_order_release);
    drain_cv_.notify_one();
    barrier_cv_.wait(lock, [&] {
      return appended_.load(std::memory_order_acquire) >= target;
    });
  }
  barrier_waiters_.fetch_sub(1, std::memory_order_acq_rel);
}

// ---- StateJournal hooks: move the record into the ring -------------------

void AsyncJournal::on_instance_created(InstanceId instance, ClientId client) {
  enqueue(RecInstanceCreated{instance, client});
}

void AsyncJournal::on_instance_destroyed(InstanceId instance) {
  enqueue(RecInstanceDestroyed{instance});
}

void AsyncJournal::on_submit(InstanceId instance, std::uint64_t submit_seq,
                             const std::vector<TaskSpec>& tasks) {
  enqueue(RecSubmit{instance, submit_seq, tasks});
}

void AsyncJournal::on_assign(ExecutorId executor,
                             const std::vector<TaskId>& tasks) {
  enqueue(RecAssign{executor, tasks});
}

void AsyncJournal::on_requeue(const std::vector<TaskId>& tasks, bool retry) {
  enqueue(RecRequeue{tasks, retry});
}

void AsyncJournal::on_complete(InstanceId instance, const TaskResult& result,
                               bool quarantined) {
  enqueue(RecComplete{instance, result, quarantined});
}

void AsyncJournal::on_delivered(InstanceId instance,
                                const std::vector<TaskId>& tasks) {
  enqueue(RecDelivered{instance, tasks});
}

// ---- ReplicationSource ---------------------------------------------------

AsyncJournal::Batch AsyncJournal::fetch(std::uint64_t from_lsn,
                                        std::uint32_t max_bytes) {
  barrier();  // followers must never see the journal behind acked state
  return inner_->fetch(from_lsn, max_bytes);
}

void AsyncJournal::note_ack(std::uint64_t applied_lsn) {
  inner_->note_ack(applied_lsn);
}

}  // namespace falkon::ha
