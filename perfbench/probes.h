// Measurement from outside the program: decorators around the public seams
// (DispatcherClient, TaskEngine, StateJournal) that forward every call
// unchanged and time it, plus per-task timestamps and per-thread CPU
// clocks. Only the traced pass installs the decorators; the timed pass runs
// the bare stack.
#pragma once

#include <pthread.h>
#include <time.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/client.h"
#include "core/journal.h"
#include "core/task_engine.h"

namespace perfbench {

/// Seconds on the steady clock; every timestamp the benchmark takes, in every
/// thread, uses this one clock.
inline double now_s() {
  using namespace std::chrono;
  return duration<double>(steady_clock::now().time_since_epoch()).count();
}

/// CPU seconds consumed so far by the calling thread.
inline double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// CPU clocks of a set of threads, read from another thread. Threads join
/// the set once and must stay alive while total_s() is read.
class ThreadClocks {
 public:
  void add_current() {
    clockid_t id{};
    if (pthread_getcpuclockid(pthread_self(), &id) != 0) return;
    std::lock_guard lock(mu_);
    clocks_.push_back(id);
  }

  [[nodiscard]] double total_s() const {
    std::lock_guard lock(mu_);
    double total = 0.0;
    for (clockid_t id : clocks_) {
      timespec ts{};
      if (clock_gettime(id, &ts) == 0) {
        total += static_cast<double>(ts.tv_sec) +
                 static_cast<double>(ts.tv_nsec) * 1e-9;
      }
    }
    return total;
  }

 private:
  mutable std::mutex mu_;
  std::vector<clockid_t> clocks_;
};

/// Per-task timestamps of one pass: when each task was due (load generator), when
/// its engine started and ended (executor work thread). Slots are indexed
/// by task id modulo the capacity, which must cover every task in flight.
class TaskStamps {
 public:
  TaskStamps(std::uint64_t base, std::size_t capacity)
      : base_(base),
        capacity_(capacity),
        due_(std::make_unique<std::atomic<double>[]>(capacity)),
        start_(std::make_unique<std::atomic<double>[]>(capacity)),
        end_(std::make_unique<std::atomic<double>[]>(capacity)) {}

  void set_due(std::uint64_t id, double t) { at(due_, id).store(t, kRelaxed); }
  void set_engine(std::uint64_t id, double start, double end) {
    at(start_, id).store(start, kRelaxed);
    at(end_, id).store(end, kRelaxed);
  }
  [[nodiscard]] double due(std::uint64_t id) const { return at(due_, id).load(kRelaxed); }
  [[nodiscard]] double start(std::uint64_t id) const { return at(start_, id).load(kRelaxed); }
  [[nodiscard]] double end(std::uint64_t id) const { return at(end_, id).load(kRelaxed); }

 private:
  static constexpr auto kRelaxed = std::memory_order_relaxed;
  using Slots = std::unique_ptr<std::atomic<double>[]>;

  [[nodiscard]] std::atomic<double>& at(const Slots& slots,
                                        std::uint64_t id) const {
    return slots[(id - base_) % capacity_];
  }

  std::uint64_t base_;
  std::size_t capacity_;
  Slots due_, start_, end_;
};

/// DispatcherClient decorator: times submit() (the ack waits on the
/// journal barrier) and counts results per wait_results() call.
class ClientProbe final : public falkon::core::DispatcherClient {
 public:
  explicit ClientProbe(falkon::core::DispatcherClient& inner) : inner_(inner) {}

  falkon::Result<falkon::InstanceId> create_instance(
      falkon::ClientId client) override {
    return inner_.create_instance(client);
  }
  falkon::Result<std::uint64_t> submit(
      falkon::InstanceId instance,
      std::vector<falkon::TaskSpec> tasks) override {
    const double start = now_s();
    auto accepted = inner_.submit(instance, std::move(tasks));
    const double ms = (now_s() - start) * 1e3;
    std::lock_guard lock(mu_);
    submit_ms_.push_back(ms);
    return accepted;
  }
  falkon::Result<std::vector<falkon::TaskResult>> wait_results(
      falkon::InstanceId instance, std::uint32_t max_results,
      double timeout_s) override {
    auto results = inner_.wait_results(instance, max_results, timeout_s);
    std::lock_guard lock(mu_);
    ++waits_;
    if (results.ok()) results_ += results.value().size();
    return results;
  }
  falkon::Status destroy_instance(falkon::InstanceId instance) override {
    return inner_.destroy_instance(instance);
  }
  falkon::Result<falkon::core::DispatcherStatus> status() override {
    return inner_.status();
  }

  /// Forget what was recorded so far (end of warm-up).
  void clear() {
    std::lock_guard lock(mu_);
    submit_ms_.clear();
    waits_ = 0;
    results_ = 0;
  }
  [[nodiscard]] std::vector<double> submit_ms() const {
    std::lock_guard lock(mu_);
    return submit_ms_;
  }
  [[nodiscard]] double results_per_wait() const {
    std::lock_guard lock(mu_);
    return waits_ == 0 ? 0.0 : static_cast<double>(results_) / static_cast<double>(waits_);
  }

 private:
  falkon::core::DispatcherClient& inner_;
  mutable std::mutex mu_;
  std::vector<double> submit_ms_;
  std::uint64_t waits_{0};
  std::uint64_t results_{0};
};

/// TaskEngine decorator: stamps each task's engine start and end, and
/// enrols the executor work thread that runs it in `threads`.
class EngineProbe final : public falkon::core::TaskEngine {
 public:
  EngineProbe(std::unique_ptr<falkon::core::TaskEngine> inner,
              TaskStamps& stamps, ThreadClocks& threads)
      : inner_(std::move(inner)), stamps_(stamps), threads_(threads) {}

  [[nodiscard]] falkon::TaskResult run(const falkon::TaskSpec& task) override {
    // One work thread per executor, and each serves one engine.
    thread_local bool enrolled = false;
    if (!enrolled) {
      threads_.add_current();
      enrolled = true;
    }
    const double start = now_s();
    falkon::TaskResult result = inner_->run(task);
    stamps_.set_engine(task.id.value, start, now_s());
    return result;
  }

 private:
  std::unique_ptr<falkon::core::TaskEngine> inner_;
  TaskStamps& stamps_;
  ThreadClocks& threads_;
};

/// A journal that keeps nothing. Behind a JournalProbe it lets a traced
/// stack without durability price the journal seam alone.
class NullJournal final : public falkon::core::StateJournal {
 public:
  void on_instance_created(falkon::InstanceId, falkon::ClientId) override {}
  void on_instance_destroyed(falkon::InstanceId) override {}
  void on_submit(falkon::InstanceId, std::uint64_t,
                 const std::vector<falkon::TaskSpec>&) override {}
  void on_assign(falkon::ExecutorId, const std::vector<falkon::TaskId>&) override {}
  void on_requeue(const std::vector<falkon::TaskId>&, bool) override {}
  void on_complete(falkon::InstanceId, const falkon::TaskResult&, bool) override {}
  void on_delivered(falkon::InstanceId, const std::vector<falkon::TaskId>&) override {}
};

/// StateJournal decorator: wall time of every hook (they run under
/// dispatcher locks) and of every barrier() (a submit ack waits on it).
class JournalProbe final : public falkon::core::StateJournal {
 public:
  explicit JournalProbe(falkon::core::StateJournal& inner) : inner_(inner) {}

  void on_instance_created(falkon::InstanceId instance,
                           falkon::ClientId client) override {
    const double start = now_s();
    inner_.on_instance_created(instance, client);
    hook_done(start);
  }
  void on_instance_destroyed(falkon::InstanceId instance) override {
    const double start = now_s();
    inner_.on_instance_destroyed(instance);
    hook_done(start);
  }
  void on_submit(falkon::InstanceId instance, std::uint64_t submit_seq,
                 const std::vector<falkon::TaskSpec>& tasks) override {
    const double start = now_s();
    inner_.on_submit(instance, submit_seq, tasks);
    hook_done(start);
  }
  void on_assign(falkon::ExecutorId executor,
                 const std::vector<falkon::TaskId>& tasks) override {
    const double start = now_s();
    inner_.on_assign(executor, tasks);
    hook_done(start);
  }
  void on_requeue(const std::vector<falkon::TaskId>& tasks,
                  bool retry) override {
    const double start = now_s();
    inner_.on_requeue(tasks, retry);
    hook_done(start);
  }
  void on_complete(falkon::InstanceId instance,
                   const falkon::TaskResult& result,
                   bool quarantined) override {
    const double start = now_s();
    inner_.on_complete(instance, result, quarantined);
    hook_done(start);
  }
  void on_delivered(falkon::InstanceId instance,
                    const std::vector<falkon::TaskId>& tasks) override {
    const double start = now_s();
    inner_.on_delivered(instance, tasks);
    hook_done(start);
  }
  void barrier() override {
    const double start = now_s();
    inner_.barrier();
    const double ms = (now_s() - start) * 1e3;
    std::lock_guard lock(mu_);
    barrier_ms_.push_back(ms);
  }

  struct Hooks {
    std::uint64_t calls{0};
    std::uint64_t ns{0};
  };
  [[nodiscard]] Hooks hooks() const {
    return {hook_calls_.load(std::memory_order_relaxed),
            hook_ns_.load(std::memory_order_relaxed)};
  }
  /// Barrier times recorded from index `from` on.
  [[nodiscard]] std::vector<double> barrier_ms(std::size_t from = 0) const {
    std::lock_guard lock(mu_);
    if (from >= barrier_ms_.size()) return {};
    return {barrier_ms_.begin() + static_cast<std::ptrdiff_t>(from),
            barrier_ms_.end()};
  }
  [[nodiscard]] std::size_t barriers() const {
    std::lock_guard lock(mu_);
    return barrier_ms_.size();
  }

 private:
  void hook_done(double start) {
    hook_calls_.fetch_add(1, std::memory_order_relaxed);
    hook_ns_.fetch_add(static_cast<std::uint64_t>((now_s() - start) * 1e9),
                       std::memory_order_relaxed);
  }

  falkon::core::StateJournal& inner_;
  std::atomic<std::uint64_t> hook_calls_{0};
  std::atomic<std::uint64_t> hook_ns_{0};
  mutable std::mutex mu_;
  std::vector<double> barrier_ms_;
};

}  // namespace perfbench
