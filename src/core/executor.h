// The Falkon executor runtime (paper sections 3.2-3.3).
//
// Lifecycle: register with the dispatcher; wait for a notification {3};
// pull work {4,5}; execute; deliver results {6}; receive the ack with
// optionally piggy-backed next tasks {7}; repeat. Under the distributed
// resource-release policy the executor deregisters itself after a
// configured idle time.
//
// The runtime talks to the dispatcher through a DispatcherLink so the same
// loop runs in-process (direct calls) and across TCP (RPC + notification
// channel).
#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "common/clock.h"
#include "common/ids.h"
#include "common/result.h"
#include "common/task.h"
#include "core/task_engine.h"
#include "fault/backoff.h"
#include "fault/fault.h"
#include "obs/obs.h"
#include "wire/message.h"

namespace falkon::core {

class DataPlane;

using wire::kReleaseResourceKey;

/// Executor's view of the dispatcher.
class DispatcherLink {
 public:
  virtual ~DispatcherLink() = default;

  virtual Result<ExecutorId> register_executor(
      const wire::RegisterRequest& request) = 0;
  virtual Result<std::vector<TaskSpec>> get_work(ExecutorId executor,
                                                 std::uint32_t max_tasks) = 0;
  /// Deliver results; returns piggy-backed next tasks (may be empty).
  virtual Result<std::vector<TaskSpec>> deliver_results(
      ExecutorId executor, std::vector<TaskResult> results,
      std::uint32_t want_tasks) = 0;
  virtual Status deregister(ExecutorId executor, const std::string& reason) = 0;
  /// Liveness beacon; links without a control channel can keep the no-op
  /// default (the dispatcher then falls back to replay timeouts alone).
  virtual Status heartbeat(ExecutorId executor) {
    (void)executor;
    return ok_status();
  }
};

struct ExecutorOptions {
  NodeId node_id;
  std::string host{"localhost"};
  AllocationId allocation_id;
  /// Tasks pulled per exchange (dispatcher-executor bundling; paper uses 1).
  std::uint32_t max_bundle{1};
  /// Piggy-back request size on result delivery (0 disables; paper enables).
  std::uint32_t piggyback_tasks{1};
  /// Adaptive wire bundling: ignore max_bundle/piggyback_tasks and send the
  /// wire::kAdaptiveBundle / wire::kAdaptiveWant sentinels instead, letting
  /// the dispatcher size each bundle from current queue depth (capped by
  /// DispatcherConfig::max_adaptive_bundle and max_bundle_runtime_s).
  bool adaptive_bundle{false};
  /// Distributed release policy: deregister after this much idle model time
  /// (<= 0: never release — Falkon-inf).
  double idle_timeout_s{0.0};
  /// Pre-fetching (paper section 6 future work): request the next task
  /// while the current one still runs, overlapping dispatch latency with
  /// execution.
  bool prefetch{false};
  /// Firewall-bypass polling mode (paper section 6: "We have implemented a
  /// polling mechanism to bypass any firewall issues on executors"): when
  /// > 0 the executor never waits for push notifications — it polls
  /// get_work every poll_interval_s of model time instead, trading
  /// responsiveness and dispatcher load for needing only outbound
  /// connections. 0 = hybrid push/pull (the paper's preferred model).
  double poll_interval_s{0.0};
  /// Push-mode takeover probe (docs/HA.md): in hybrid push/pull mode an
  /// idle executor waits on notifications — but a freshly promoted standby
  /// knows no executor ids and can never notify it. Waking at most every
  /// this many model seconds to issue one get_work turns the standby's
  /// kNotFound answer into a re-registration, bounding how long an idle
  /// executor can stay stranded after a failover. 0 disables the probe
  /// (pre-HA behaviour); ignored in polling mode, which already wakes.
  double takeover_probe_s{1.0};

  /// Observability context; nullptr disables instrumentation at zero cost.
  obs::Obs* obs{nullptr};

  /// Data-diffusion plane (docs/DATA.md): when set, the TCP transport
  /// piggybacks this plane's cache digest on registration and heartbeats
  /// and drains its eviction notices. The runtime itself never touches it —
  /// staging happens inside the task engine. Must outlive the executor.
  DataPlane* data{nullptr};

  // ---- failure detection & recovery (docs/FAULTS.md) ----

  /// Send a heartbeat to the dispatcher every this many seconds of model
  /// time (0 disables; pair with DispatcherConfig::heartbeat_timeout_s).
  double heartbeat_interval_s{0.0};
  /// Retry a failed get_work/deliver_results this many times (with
  /// exponential backoff) before declaring the dispatcher unreachable.
  /// 0 = fail fast (the original behaviour).
  int link_retries{0};
  /// Retry a failed registration this many times with the same backoff.
  int register_retries{0};
  /// Backoff schedule for link and registration retries.
  fault::BackoffConfig backoff;
  /// Fault injection (crash / hang / slow-node at Site::kExecutorTask);
  /// nullptr in production.
  fault::FaultInjector* fault{nullptr};
};

struct ExecutorStats {
  std::uint64_t tasks_executed{0};
  std::uint64_t notifications{0};
  std::uint64_t empty_polls{0};
  std::uint64_t link_retries{0};    // failed link calls that were retried
  std::uint64_t heartbeats_sent{0};
  /// Successful re-registrations after the dispatcher forgot us (a promoted
  /// standby knows no executor ids — docs/HA.md failover sequence).
  std::uint64_t reregistrations{0};
  double busy_time_s{0.0};
};

class ExecutorRuntime {
 public:
  ExecutorRuntime(Clock& clock, DispatcherLink& link, TaskEngine& engine,
                  ExecutorOptions options);
  ~ExecutorRuntime();

  ExecutorRuntime(const ExecutorRuntime&) = delete;
  ExecutorRuntime& operator=(const ExecutorRuntime&) = delete;

  /// Register and start the work loop on a background thread.
  Status start();

  /// Notification entry point {3}: wakes the work loop. A
  /// kReleaseResourceKey asks the executor to shut down (centralized
  /// release policy).
  void notify(std::uint64_t resource_key);

  /// Ask the loop to finish the current task and stop (does not join).
  void request_stop();

  /// Stop and join.
  void stop();

  /// Blocks until the loop exited (self-release or stop). Returns reason.
  void join();

  [[nodiscard]] ExecutorId id() const {
    return ExecutorId{id_value_.load(std::memory_order_acquire)};
  }
  [[nodiscard]] bool running() const { return running_.load(); }
  /// True after an injected crash killed the runtime (the executor exited
  /// without deregistering — exactly what a real worker death looks like).
  [[nodiscard]] bool crashed() const { return crashed_.load(); }
  [[nodiscard]] ExecutorStats stats() const;

  /// Invoked (from the runtime's thread) right after the loop exits;
  /// used by the provisioner to track self-released executors.
  void set_exit_listener(std::function<void(ExecutorId)> listener);

 private:
  void work_loop();
  void heartbeat_loop();
  /// Wait for a notification or idle timeout; true = work may be available,
  /// false = stop (released or shutting down).
  bool wait_for_wakeup();
  /// Interruptible real-time sleep of `model_s` model seconds; returns
  /// early (false) if a stop was requested meanwhile.
  bool interruptible_sleep(double model_s);
  /// Run a link call, retrying up to options_.link_retries times with
  /// exponential backoff on failure.
  template <class Call>
  auto call_with_retry(Call&& call) -> decltype(call());
  /// Register again after the dispatcher forgot us (failover to a promoted
  /// standby). On success updates id().
  bool try_reregister();

  Clock& clock_;
  DispatcherLink& link_;
  TaskEngine& engine_;
  ExecutorOptions options_;

  /// Atomic because the heartbeat thread and transports read id() while
  /// the work thread may swap it during a failover re-registration.
  std::atomic<std::uint64_t> id_value_{0};
  std::thread thread_;
  std::thread heartbeat_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> crashed_{false};

  std::mutex mu_;
  std::condition_variable cv_;
  bool notified_{false};

  mutable std::mutex stats_mu_;
  ExecutorStats stats_;
  std::function<void(ExecutorId)> exit_listener_;

  // Observability handles (null when options_.obs is null).
  obs::Tracer* tracer_{nullptr};
  obs::Counter* m_tasks_{nullptr};
  obs::Counter* m_notifications_{nullptr};
  obs::Counter* m_empty_polls_{nullptr};
  obs::Histogram* m_exec_time_{nullptr};
};

}  // namespace falkon::core
