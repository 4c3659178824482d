// Fixed-size thread pool.
//
// Used by the dispatcher's notification engine (paper section 3.2: "a pool
// of threads operate to send out notifications") and by the RPC server for
// handling concurrent connections.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/queue.h"

namespace falkon {

/// Name the calling thread by its role (visible in /proc/self/task/*/comm,
/// top -H and debuggers). Linux keeps the first 15 characters.
void set_thread_name(const std::string& name);

class ThreadPool {
 public:
  /// Every worker thread is named `name`.
  explicit ThreadPool(std::size_t num_threads, std::string name = "pool");
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a job; fails with kClosed after shutdown() was called.
  Status submit(std::function<void()> job);

  /// Stop accepting jobs, run what is queued, join all workers. Idempotent.
  void shutdown();

  [[nodiscard]] std::size_t size() const { return workers_.size(); }
  [[nodiscard]] std::size_t pending() const { return jobs_.size(); }

 private:
  void worker_loop();

  BlockingQueue<std::function<void()>> jobs_;
  std::vector<std::thread> workers_;
  std::string name_;
};

}  // namespace falkon
