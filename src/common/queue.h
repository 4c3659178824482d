// Thread-safe blocking queue: the job queue behind ThreadPool (the
// dispatcher's notification engine, the RPC handler pool). The dispatcher's
// wait queue is core::WaitQueue, guarded by the dispatcher's own lock.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <vector>

#include "common/result.h"

namespace falkon {

/// Unbounded MPMC FIFO with close() semantics. After close(), pops drain the
/// remaining elements and then fail with kClosed; pushes fail immediately.
template <class T>
class BlockingQueue {
 public:
  Status push(T item) {
    {
      std::lock_guard lock(mu_);
      if (closed_) return make_error(ErrorCode::kClosed, "queue closed");
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
    return ok_status();
  }

  Status push_all(std::vector<T> items) {
    {
      std::lock_guard lock(mu_);
      if (closed_) return make_error(ErrorCode::kClosed, "queue closed");
      for (auto& item : items) items_.push_back(std::move(item));
    }
    cv_.notify_all();
    return ok_status();
  }

  /// Blocking pop; fails with kClosed once the queue is closed and drained.
  Result<T> pop() {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return !items_.empty() || closed_; });
    return pop_locked();
  }

  /// Pop with a timeout; kTimeout if nothing arrives in time.
  Result<T> pop_for(double seconds) {
    std::unique_lock lock(mu_);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                              std::chrono::duration<double>(seconds));
    if (!cv_.wait_until(lock, deadline,
                        [&] { return !items_.empty() || closed_; })) {
      return Error{ErrorCode::kTimeout, "queue pop timed out"};
    }
    return pop_locked();
  }

  /// Non-blocking pop.
  std::optional<T> try_pop() {
    std::lock_guard lock(mu_);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// Pop up to `max_items` at once (task bundling support).
  std::vector<T> pop_batch(std::size_t max_items) {
    std::lock_guard lock(mu_);
    std::vector<T> batch;
    while (!items_.empty() && batch.size() < max_items) {
      batch.push_back(std::move(items_.front()));
      items_.pop_front();
    }
    return batch;
  }

  void close() {
    {
      std::lock_guard lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    std::lock_guard lock(mu_);
    return closed_;
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mu_);
    return items_.size();
  }

  [[nodiscard]] bool empty() const { return size() == 0; }

 private:
  Result<T> pop_locked() {
    if (items_.empty()) return Error{ErrorCode::kClosed, "queue closed"};
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> items_;
  bool closed_{false};
};

}  // namespace falkon
