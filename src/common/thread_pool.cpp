#include "common/thread_pool.h"

#include <pthread.h>

#include <utility>

namespace falkon {

void set_thread_name(const std::string& name) {
  (void)::pthread_setname_np(::pthread_self(), name.substr(0, 15).c_str());
}

ThreadPool::ThreadPool(std::size_t num_threads, std::string name)
    : name_(std::move(name)) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] {
      set_thread_name(name_);
      worker_loop();
    });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

Status ThreadPool::submit(std::function<void()> job) {
  return jobs_.push(std::move(job));
}

void ThreadPool::shutdown() {
  jobs_.close();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    auto job = jobs_.pop();
    if (!job.ok()) return;  // closed and drained
    job.value()();
  }
}

}  // namespace falkon
