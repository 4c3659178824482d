#include "core/executor.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace falkon::core {

ExecutorRuntime::ExecutorRuntime(Clock& clock, DispatcherLink& link,
                                 TaskEngine& engine, ExecutorOptions options)
    : clock_(clock), link_(link), engine_(engine), options_(options) {
  if (options_.obs != nullptr) {
    obs::Registry& reg = options_.obs->registry();
    tracer_ = &options_.obs->tracer();
    m_tasks_ = &reg.counter("falkon.executor.tasks_executed");
    m_notifications_ = &reg.counter("falkon.executor.notifications");
    m_empty_polls_ = &reg.counter("falkon.executor.empty_polls");
    m_exec_time_ = &reg.histogram("falkon.executor.exec_time_s", 1e-6, 1e4);
  }
}

ExecutorRuntime::~ExecutorRuntime() { stop(); }

Status ExecutorRuntime::start() {
  wire::RegisterRequest request;
  request.node_id = options_.node_id;
  request.host = options_.host;
  request.slots = 1;
  request.allocation_id = options_.allocation_id;

  fault::Backoff backoff(options_.backoff, options_.node_id.value + 1);
  Status last_error = ok_status();
  for (int attempt = 0; attempt <= options_.register_retries; ++attempt) {
    if (attempt > 0 && !interruptible_sleep(backoff.next_s())) {
      return make_error(ErrorCode::kCancelled, "stopped during registration");
    }
    auto registered = link_.register_executor(request);
    if (registered.ok()) {
      id_value_.store(registered.value().value, std::memory_order_release);
      running_.store(true);
      thread_ = std::thread([this] {
        set_thread_name("exec");
        work_loop();
      });
      if (options_.heartbeat_interval_s > 0) {
        heartbeat_thread_ = std::thread([this] { heartbeat_loop(); });
      }
      return ok_status();
    }
    last_error = registered.error();
    LOG_DEBUG("executor", "registration attempt %d failed: %s", attempt + 1,
              registered.error().str().c_str());
  }
  return last_error;
}

void ExecutorRuntime::notify(std::uint64_t resource_key) {
  {
    std::lock_guard lock(mu_);
    if (resource_key == kReleaseResourceKey) {
      stop_requested_.store(true);
    } else {
      notified_ = true;
    }
  }
  cv_.notify_all();
  {
    std::lock_guard lock(stats_mu_);
    ++stats_.notifications;
  }
  if (m_notifications_) m_notifications_->inc();
}

void ExecutorRuntime::request_stop() {
  stop_requested_.store(true);
  cv_.notify_all();
}

void ExecutorRuntime::stop() {
  request_stop();
  join();
}

void ExecutorRuntime::join() {
  if (thread_.joinable()) thread_.join();
  // The work loop has exited; release the heartbeat thread too so a dead
  // executor stops beaconing (a crashed one must look dead to the detector).
  stop_requested_.store(true);
  cv_.notify_all();
  if (heartbeat_thread_.joinable()) heartbeat_thread_.join();
}

ExecutorStats ExecutorRuntime::stats() const {
  std::lock_guard lock(stats_mu_);
  return stats_;
}

void ExecutorRuntime::set_exit_listener(
    std::function<void(ExecutorId)> listener) {
  std::lock_guard lock(stats_mu_);
  exit_listener_ = std::move(listener);
}

bool ExecutorRuntime::try_reregister() {
  wire::RegisterRequest request;
  request.node_id = options_.node_id;
  request.host = options_.host;
  request.slots = 1;
  request.allocation_id = options_.allocation_id;

  // Reuse the link-retry budget: re-registration is the recovery tail of a
  // failed link call, and register_retries may be 0 on runtimes that only
  // opted into link retries.
  const int budget = std::max(options_.register_retries, options_.link_retries);
  fault::Backoff backoff(options_.backoff, options_.node_id.value + 1);
  for (int attempt = 0; attempt <= budget; ++attempt) {
    if (attempt > 0 && !interruptible_sleep(backoff.next_s())) return false;
    auto registered = link_.register_executor(request);
    if (registered.ok()) {
      id_value_.store(registered.value().value, std::memory_order_release);
      {
        std::lock_guard lock(stats_mu_);
        ++stats_.reregistrations;
      }
      LOG_INFO("executor", "re-registered after dispatcher failover: id=%llu",
               static_cast<unsigned long long>(registered.value().value));
      return true;
    }
  }
  return false;
}

bool ExecutorRuntime::interruptible_sleep(double model_s) {
  if (model_s <= 0) return !stop_requested_.load();
  const double real_s = model_s / clock_.rate();
  std::unique_lock lock(mu_);
  cv_.wait_for(lock, std::chrono::duration<double>(real_s),
               [&] { return stop_requested_.load(); });
  return !stop_requested_.load();
}

template <class Call>
auto ExecutorRuntime::call_with_retry(Call&& call) -> decltype(call()) {
  auto result = call();
  if (result.ok() || options_.link_retries <= 0) return result;
  fault::Backoff backoff(options_.backoff, id().value + 1);
  for (int attempt = 0; attempt < options_.link_retries; ++attempt) {
    {
      std::lock_guard lock(stats_mu_);
      ++stats_.link_retries;
    }
    if (!interruptible_sleep(backoff.next_s())) return result;
    result = call();
    if (result.ok()) return result;
  }
  return result;
}

void ExecutorRuntime::heartbeat_loop() {
  while (!stop_requested_.load() && running_.load()) {
    if (!interruptible_sleep(options_.heartbeat_interval_s)) return;
    if (crashed_.load() || !running_.load()) return;
    if (link_.heartbeat(id()).ok()) {
      std::lock_guard lock(stats_mu_);
      ++stats_.heartbeats_sent;
    }
  }
}

void ExecutorRuntime::work_loop() {
  std::string exit_reason = "stopped";
  std::vector<TaskSpec> pending;  // pre-fetched bundle
  double idle_since = clock_.now_s();  // for poll-mode idle accounting
  const std::uint32_t pull_size =
      options_.adaptive_bundle ? wire::kAdaptiveBundle : options_.max_bundle;
  const std::uint32_t want_size = options_.adaptive_bundle
                                      ? wire::kAdaptiveWant
                                      : options_.piggyback_tasks;

  for (;;) {
    bool dispatcher_gone = false;
    bool executed_any = false;
    // Drain available work.
    for (;;) {
      if (stop_requested_.load() || crashed_.load()) break;
      std::vector<TaskSpec> tasks;
      if (!pending.empty()) {
        tasks = std::move(pending);
        pending.clear();
      } else {
        auto work =
            call_with_retry([&] { return link_.get_work(id(), pull_size); });
        if (!work.ok()) {
          // kNotFound means a dispatcher answered but doesn't know us — a
          // promoted standby took over (docs/HA.md). Re-register under a
          // fresh id and keep working.
          if (work.error().code == ErrorCode::kNotFound && try_reregister()) {
            continue;
          }
          dispatcher_gone = true;
          exit_reason = "dispatcher unreachable";
          break;
        }
        tasks = work.take();
      }
      if (tasks.empty()) {
        {
          std::lock_guard lock(stats_mu_);
          ++stats_.empty_polls;
        }
        if (m_empty_polls_) m_empty_polls_->inc();
        break;
      }

      // Pre-fetch (section 6): grab the next bundle before executing, so
      // dispatch latency overlaps with execution.
      if (options_.prefetch) {
        auto next = link_.get_work(id(), pull_size);
        if (next.ok()) pending = next.take();
      }

      std::vector<TaskResult> results;
      results.reserve(tasks.size());
      for (const auto& task : tasks) {
        if (options_.fault != nullptr) {
          const fault::Outcome outcome =
              options_.fault->sample(fault::Site::kExecutorTask);
          if (outcome.action == fault::Action::kCrash) {
            // Simulated process death: vanish mid-task without delivering a
            // result or deregistering. The dispatcher's failure detector
            // must notice and requeue everything we held.
            crashed_.store(true);
            break;
          }
          if (outcome.action == fault::Action::kHang) {
            // Wedge for param model-seconds holding the task: only the
            // replay timeout can recover it (heartbeats keep flowing).
            if (!interruptible_sleep(outcome.param)) break;
            continue;  // task swallowed, never completed nor delivered
          }
          if (outcome.action == fault::Action::kSlow ||
              outcome.action == fault::Action::kDelay) {
            if (!interruptible_sleep(outcome.param)) break;
          }
        }
        const double start = clock_.now_s();
        TaskResult result = engine_.run(task);
        result.task_id = task.id;
        result.executor_id = id();
        const double elapsed = clock_.now_s() - start;
        {
          std::lock_guard lock(stats_mu_);
          ++stats_.tasks_executed;
          stats_.busy_time_s += elapsed;
        }
        if (tracer_) {
          tracer_->record(task.id, obs::Stage::kExec, start, start + elapsed,
                          id().value);
        }
        if (m_tasks_) {
          m_tasks_->inc();
          m_exec_time_->record(elapsed);
        }
        executed_any = true;
        results.push_back(std::move(result));
      }
      if (crashed_.load()) break;

      if (results.empty()) continue;  // every task hung: nothing to deliver
      const std::uint32_t want = stop_requested_.load() ? 0 : want_size;
      auto results_shared =
          std::make_shared<std::vector<TaskResult>>(std::move(results));
      auto ack = call_with_retry([&] {
        return link_.deliver_results(id(), *results_shared, want);
      });
      if (!ack.ok()) {
        if (ack.error().code == ErrorCode::kNotFound && try_reregister()) {
          // Failover mid-delivery: the promoted dispatcher recovered these
          // tasks from the journal and will re-dispatch them, so the stale
          // results (and any pre-fetched bundle) are dropped — the client
          // still sees each completion exactly once.
          pending.clear();
          continue;
        }
        dispatcher_gone = true;
        exit_reason = "result delivery failed";
        break;
      }
      // Piggy-backed tasks ({7}) short-circuit the notify/get-work round
      // trip: execute them immediately next iteration.
      if (!ack.value().empty()) {
        if (pending.empty()) {
          pending = ack.take();
        } else {
          for (auto& t : ack.value()) pending.push_back(std::move(t));
        }
      } else if (pending.empty() && want > 0 &&
                 options_.poll_interval_s <= 0) {
        // An empty ack to a delivery that asked for work already answered
        // this pull: the dispatcher idled us and notifies us once work is
        // queued for us. A get-work now would only come back empty.
        break;
      }
    }

    if (dispatcher_gone || stop_requested_.load() || crashed_.load()) break;
    if (executed_any) idle_since = clock_.now_s();
    // Poll and probe modes enforce the idle timeout across wakeup rounds
    // (the probe only governs the wait when shorter than the idle budget).
    if ((options_.poll_interval_s > 0 ||
         (options_.takeover_probe_s > 0 &&
          options_.takeover_probe_s < options_.idle_timeout_s)) &&
        options_.idle_timeout_s > 0 &&
        clock_.now_s() - idle_since >= options_.idle_timeout_s) {
      exit_reason = "idle timeout";
      break;
    }
    if (!wait_for_wakeup()) {
      if (stop_requested_.load()) break;
      exit_reason = "idle timeout";
      break;  // distributed release policy fired
    }
  }

  if (crashed_.load()) exit_reason = "crashed (injected)";
  // A crashed executor dies silently — no goodbye to the dispatcher.
  if (exit_reason != "dispatcher unreachable" && !crashed_.load()) {
    (void)link_.deregister(id(), exit_reason);
  }
  running_.store(false);
  std::function<void(ExecutorId)> listener;
  {
    std::lock_guard lock(stats_mu_);
    listener = exit_listener_;
  }
  if (listener) listener(id());
  LOG_DEBUG("executor", "executor %llu exited: %s",
            static_cast<unsigned long long>(id().value), exit_reason.c_str());
}

bool ExecutorRuntime::wait_for_wakeup() {
  std::unique_lock lock(mu_);
  const auto ready = [&] { return notified_ || stop_requested_.load(); };
  if (options_.poll_interval_s > 0) {
    // Polling mode: wake up after the poll interval regardless of
    // notifications (a notification still short-circuits the wait). The
    // idle timeout is enforced by the caller across poll rounds.
    const double real_interval = options_.poll_interval_s / clock_.rate();
    (void)cv_.wait_for(lock, std::chrono::duration<double>(real_interval),
                       ready);
  } else if (options_.takeover_probe_s > 0 &&
             (options_.idle_timeout_s <= 0 ||
              options_.takeover_probe_s < options_.idle_timeout_s)) {
    // Push mode with a takeover probe: wake at most every probe interval
    // and report "work may be available" so the loop issues one get_work.
    // A promoted standby that doesn't know us answers it with kNotFound,
    // which triggers re-registration (docs/HA.md) — without the probe an
    // idle push-mode executor would wait here forever after a failover.
    // The idle timeout (necessarily longer than the probe here) is
    // enforced by the caller across probe rounds.
    const double real_probe = options_.takeover_probe_s / clock_.rate();
    (void)cv_.wait_for(lock, std::chrono::duration<double>(real_probe), ready);
  } else if (options_.idle_timeout_s > 0) {
    // idle_timeout_s is model time; convert to a real wait.
    const double real_timeout = options_.idle_timeout_s / clock_.rate();
    if (!cv_.wait_for(lock, std::chrono::duration<double>(real_timeout),
                      ready)) {
      return false;  // idle timeout elapsed: distributed release
    }
  } else {
    cv_.wait(lock, ready);
  }
  notified_ = false;
  return !stop_requested_.load();
}

}  // namespace falkon::core
