#include "testkit/runners.h"

#include <cstdlib>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "core/client.h"
#include "core/data_plane.h"
#include "core/policies.h"
#include "core/service.h"
#include "core/service_tcp.h"
#include "core/task_engine.h"
#include "ha/async_journal.h"
#include "ha/failover_client.h"
#include "ha/journal.h"
#include "ha/standby.h"
#include "net/socket.h"
#include "sim/sim_falkon.h"

namespace falkon::testkit {
namespace {

/// Ring sized for the largest generated workload at a generous retry
/// budget; Tracer::complete() still guards every checker.
constexpr std::size_t kTraceCapacity = 1 << 17;

obs::ObsConfig trace_config() {
  obs::ObsConfig config;
  config.tracing = true;
  config.trace_capacity = kTraceCapacity;
  return config;
}

void nap_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// Locality wait bound for data-bearing specs — small enough that I12
/// keeps the run moving, large enough that deferrals genuinely happen.
constexpr double kLocalityWaitS = 0.25;

core::DispatcherConfig dispatcher_config(const WorkloadSpec& spec,
                                         obs::Obs& obs,
                                         fault::FaultInjector* injector) {
  core::DispatcherConfig config;
  config.replay.response_timeout_s = spec.replay_timeout_s;
  config.replay.max_retries = spec.max_retries;
  config.piggyback = spec.piggyback;
  config.max_tasks_per_dispatch = spec.max_tasks_per_dispatch;
  config.max_bundle_runtime_s = spec.max_bundle_runtime_s;
  config.max_adaptive_bundle = spec.max_adaptive_bundle;
  config.obs = &obs;
  // Background recovery always on: the sweep drives replay timeouts for
  // fault-free specs too (where it simply never fires) and renotify covers
  // lost push frames.
  config.sweep_interval_s = 0.05;
  config.renotify_timeout_s = 0.3;
  if (spec.faulty()) {
    config.heartbeat_timeout_s = 0.6;
    config.quarantine_threshold = 6;
    config.fault = injector;
  }
  return config;
}

core::ExecutorOptions executor_options(const WorkloadSpec& spec,
                                       std::uint64_t node, obs::Obs& obs,
                                       fault::FaultInjector* injector) {
  core::ExecutorOptions options;
  options.node_id = NodeId{node};
  // The registered host seeds peer data_source endpoints on data runs, and
  // the socket layer speaks numeric IPv4 only — the "localhost" default
  // would fail every loopback P2P fetch over to the shared FS.
  options.host = "127.0.0.1";
  options.max_bundle = spec.executor_bundle;
  options.piggyback_tasks = spec.piggyback ? spec.executor_bundle : 0;
  options.adaptive_bundle = spec.adaptive_bundle;
  options.obs = &obs;
  if (spec.faulty()) {
    options.heartbeat_interval_s = 0.15;
    options.link_retries = 6;
    options.register_retries = 6;
    options.backoff.base_s = 0.02;
    options.backoff.max_s = 0.2;
    options.fault = injector;
  }
  return options;
}

std::vector<TaskSpec> make_tasks(const WorkloadSpec& spec) {
  std::vector<TaskSpec> tasks;
  tasks.reserve(static_cast<std::size_t>(spec.task_count));
  for (std::uint64_t i = 1; i <= spec.task_count; ++i) {
    if (spec.data_objects > 0) {
      // Data-bearing workload: every task reads one of `data_objects`
      // shared-FS objects (round-robin), small enough that the modeled
      // staging time keeps threaded runs fast.
      TaskSpec task = make_data_task(
          TaskId{i}, spec.task_length_s, DataLocation::kSharedFs,
          IoMode::kRead, /*input_bytes=*/256ULL << 10, /*output_bytes=*/0);
      task.data_object =
          "obj-" + std::to_string(i % static_cast<std::uint64_t>(
                                          spec.data_objects));
      task.capture_output = false;
      tasks.push_back(std::move(task));
    } else {
      tasks.push_back(make_sleep_task(TaskId{i}, spec.task_length_s));
    }
  }
  return tasks;
}

void fill_terminal_status(RunHistory& history,
                          const core::DispatcherStatus& status) {
  history.submitted = status.submitted;
  history.completed = status.completed;
  history.failed = status.failed;
  history.retried = status.retried;
  history.quarantined = status.quarantined;
  history.suspicions = status.suspicions;
  history.queued_at_end = status.queued;
  history.dispatched_at_end = status.dispatched;
}

/// Poll `status()` until every submitted task is terminal, supervising the
/// fleet via `respawn(slot)` and sampling the quarantine counter for I6.
/// Returns false on deadline (run_error is set).
template <class StatusFn, class RespawnFn>
bool drive_to_quiesce(RunHistory& history, const WorkloadSpec& spec,
                      double deadline_s, const StatusFn& status,
                      const RespawnFn& respawn) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(static_cast<long>(deadline_s * 1000));
  for (;;) {
    const core::DispatcherStatus now = status();
    history.quarantine_series.push_back(now.quarantined);
    if (now.submitted >= spec.task_count &&
        now.completed + now.failed >= now.submitted) {
      return true;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      history.run_error =
          "stalled: completed=" + std::to_string(now.completed) +
          " failed=" + std::to_string(now.failed) +
          " queued=" + std::to_string(now.queued) +
          " dispatched=" + std::to_string(now.dispatched) + " of " +
          std::to_string(spec.task_count);
      return false;
    }
    if (spec.supervise) {
      for (int slot = 0; slot < spec.executors; ++slot) respawn(slot);
    }
    nap_ms(5);
  }
}

}  // namespace

RunHistory run_sim(const WorkloadSpec& spec) {
  obs::Obs obs{trace_config()};
  const fault::FaultPlan plan = fault_plan(spec);
  std::unique_ptr<fault::FaultInjector> injector;
  if (spec.faulty()) {
    injector = std::make_unique<fault::FaultInjector>(plan, &obs);
  }

  sim::SimFalkonConfig config;
  config.executors = spec.executors;
  config.task_count = spec.task_count;
  config.task_length_s = spec.task_length_s;
  config.client_bundle = spec.client_bundle;
  config.piggyback = spec.piggyback;
  config.seed = spec.seed;
  config.replay_timeout_s = spec.replay_timeout_s;
  config.max_retries = spec.max_retries;
  config.obs = &obs;
  config.fault = injector.get();

  const sim::SimFalkonResult result = sim::simulate_falkon(config);

  RunHistory history;
  history.backend = "sim";
  history.submitted = spec.task_count;
  history.completed = result.completed;
  history.failed = result.failed;
  history.retried = result.retried;
  history.max_retries = spec.max_retries;
  if (injector) history.injected_faults = injector->total_injected();
  history.events = obs.tracer().snapshot();
  history.trace_complete = obs.tracer().complete();
  return history;
}

RunHistory run_inproc(const WorkloadSpec& spec) {
  RunHistory history;
  history.backend = "inproc";
  history.max_retries = spec.max_retries;

  obs::Obs obs{trace_config()};
  const fault::FaultPlan plan = fault_plan(spec);
  std::unique_ptr<fault::FaultInjector> injector;
  if (spec.faulty()) {
    injector = std::make_unique<fault::FaultInjector>(plan, &obs);
  }

  RealClock clock;
  core::Dispatcher dispatcher(clock,
                              dispatcher_config(spec, obs, injector.get()));
  core::LocalDispatcherClient client(dispatcher);

  // Fleet with supervision: a slot whose runtime exited (injected crash or
  // false suspicion) is respawned as a fresh executor.
  std::uint64_t next_node = 1;
  std::vector<std::unique_ptr<core::LocalExecutorHarness>> fleet(
      static_cast<std::size_t>(spec.executors));
  const auto respawn = [&](int slot) {
    auto& cell = fleet[static_cast<std::size_t>(slot)];
    if (cell && cell->runtime().running()) return;
    cell.reset();
    auto harness = std::make_unique<core::LocalExecutorHarness>(
        clock, dispatcher, std::make_unique<core::SleepEngine>(clock),
        executor_options(spec, next_node++, obs, injector.get()));
    if (harness->start().ok()) cell = std::move(harness);
  };
  for (int slot = 0; slot < spec.executors; ++slot) respawn(slot);

  const auto instance = client.create_instance(ClientId{1});
  if (!instance.ok()) {
    history.run_error = "create_instance: " + instance.error().str();
    return history;
  }

  // Client-dispatcher bundling {1,2}.
  const std::vector<TaskSpec> tasks = make_tasks(spec);
  for (std::size_t at = 0; at < tasks.size();
       at += static_cast<std::size_t>(spec.client_bundle)) {
    const std::size_t end = std::min(
        tasks.size(), at + static_cast<std::size_t>(spec.client_bundle));
    auto accepted = client.submit(
        instance.value(), {tasks.begin() + static_cast<long>(at),
                           tasks.begin() + static_cast<long>(end)});
    if (!accepted.ok()) {
      history.run_error = "submit: " + accepted.error().str();
      return history;
    }
  }

  drive_to_quiesce(history, spec, /*deadline_s=*/60.0,
                   [&] { return dispatcher.status(); }, respawn);

  // Pick up every routed result (failures included — replay exhaustion and
  // quarantine also deliver a terminal TaskResult).
  int idle_polls = 0;
  while (history.run_error.empty() &&
         history.result_ids.size() < spec.task_count && idle_polls < 5) {
    auto batch = client.wait_results(instance.value(), 256, 0.2);
    if (!batch.ok() || batch.value().empty()) {
      ++idle_polls;
      continue;
    }
    idle_polls = 0;
    for (const auto& result : batch.value()) {
      history.result_ids.push_back(result.task_id.value);
    }
  }

  const core::DispatcherStatus status = dispatcher.status();
  for (auto& harness : fleet) harness.reset();
  dispatcher.shutdown();

  if (injector) history.injected_faults = injector->total_injected();
  fill_terminal_status(history, status);
  history.events = obs.tracer().snapshot();
  history.trace_complete = obs.tracer().complete();
  return history;
}

RunHistory run_tcp(const WorkloadSpec& spec, double deadline_s) {
  RunHistory history;
  history.backend = "tcp";
  history.max_retries = spec.max_retries;

  obs::Obs obs{trace_config()};
  const fault::FaultPlan plan = fault_plan(spec);
  std::unique_ptr<fault::FaultInjector> injector;
  if (spec.faulty()) {
    injector = std::make_unique<fault::FaultInjector>(plan, &obs);
  }

  RealClock clock;
  const bool data_run = spec.data_objects > 0;
  core::DispatcherConfig dconfig = dispatcher_config(spec, obs, injector.get());
  std::unique_ptr<core::DispatchPolicy> policy;
  if (data_run) {
    // Data-bearing specs run the locality router end to end: the
    // good-cache-compute policy plus the I12 wait bound.
    dconfig.max_locality_wait_s = kLocalityWaitS;
    policy = std::make_unique<core::GoodCacheComputePolicy>();
  }
  core::Dispatcher dispatcher(clock, dconfig, std::move(policy));
  core::TcpDispatcherServer server(dispatcher, &obs);
  if (auto status = server.start(0, injector.get()); !status.ok()) {
    history.run_error = "server start: " + status.error().str();
    return history;
  }

  const iomodel::IoModel io_model;
  std::uint64_t next_node = 1;
  // Data runs: one cache plane per fleet slot, advertising over the real
  // wire and serving peer fetches. Declared before the fleet so every
  // plane outlives the harness (and engine) that references it.
  std::vector<std::unique_ptr<core::DataPlane>> planes(
      static_cast<std::size_t>(spec.executors));
  std::vector<std::unique_ptr<core::TcpExecutorHarness>> fleet(
      static_cast<std::size_t>(spec.executors));
  const auto respawn = [&](int slot) {
    auto& cell = fleet[static_cast<std::size_t>(slot)];
    if (cell && cell->runtime().running()) return;
    cell.reset();
    core::ExecutorOptions eopts =
        executor_options(spec, next_node++, obs, injector.get());
    std::unique_ptr<core::TaskEngine> engine;
    core::P2pDataEngine* data_engine = nullptr;
    if (data_run) {
      auto& plane = planes[static_cast<std::size_t>(slot)];
      plane = std::make_unique<core::DataPlane>(
          core::DataPlaneOptions{.obs = &obs});
      auto owned = std::make_unique<core::P2pDataEngine>(
          clock, io_model, spec.executors, *plane, &obs);
      data_engine = owned.get();
      engine = std::move(owned);
      eopts.data = plane.get();
    } else {
      engine = std::make_unique<core::SleepEngine>(clock);
    }
    auto harness = std::make_unique<core::TcpExecutorHarness>(
        clock, "127.0.0.1", server.rpc_port(),
        std::move(engine), eopts);
    if (harness->start().ok()) {
      if (data_engine != nullptr) {
        data_engine->set_actor(harness->runtime().id().value);
      }
      cell = std::move(harness);
    }
  };
  for (int slot = 0; slot < spec.executors; ++slot) respawn(slot);

  // Client over real TCP. The client stub carries no injector, so requests
  // always reach the dispatcher — but the server may drop reply frames
  // (Site::kRpcReply), so reads retry on a fresh connection and submits are
  // confirmed through the (idempotent) status call instead of re-sending.
  std::unique_ptr<core::TcpDispatcherClient> client;
  const auto redial = [&]() -> bool {
    for (int attempt = 0; attempt < 100; ++attempt) {
      auto connected =
          core::TcpDispatcherClient::connect("127.0.0.1", server.rpc_port());
      if (connected.ok()) {
        client = connected.take();
        return true;
      }
      nap_ms(10);
    }
    return false;
  };
  const auto reliable = [&](const auto& fn) -> bool {
    for (int attempt = 0; attempt < 200; ++attempt) {
      if (client == nullptr && !redial()) break;
      if (fn(*client)) return true;
      client.reset();
      nap_ms(10);
    }
    return false;
  };

  InstanceId instance;
  if (!reliable([&](core::TcpDispatcherClient& c) {
        auto created = c.create_instance(ClientId{1});
        if (created.ok()) instance = created.value();
        return created.ok();
      })) {
    history.run_error = "create_instance never succeeded";
    return history;
  }

  const std::vector<TaskSpec> tasks = make_tasks(spec);
  std::uint64_t confirmed = 0;
  for (std::size_t at = 0; at < tasks.size();
       at += static_cast<std::size_t>(spec.client_bundle)) {
    const std::size_t end = std::min(
        tasks.size(), at + static_cast<std::size_t>(spec.client_bundle));
    if (client == nullptr && !redial()) break;
    // Send once; a lost reply must not trigger a blind re-send (that would
    // duplicate task ids). The status poll below confirms acceptance.
    (void)client->submit(instance, {tasks.begin() + static_cast<long>(at),
                                    tasks.begin() + static_cast<long>(end)});
    confirmed += end - at;
    const std::uint64_t want = confirmed;
    if (!reliable([&](core::TcpDispatcherClient& c) {
          auto status = c.status();
          return status.ok() && status.value().submitted >= want;
        })) {
      history.run_error = "submit of bundle at " + std::to_string(at) +
                          " never confirmed";
      return history;
    }
  }

  drive_to_quiesce(history, spec, deadline_s,
                   [&] { return dispatcher.status(); }, respawn);

  int idle_polls = 0;
  while (history.run_error.empty() &&
         history.result_ids.size() < spec.task_count && idle_polls < 8) {
    std::vector<TaskResult> batch;
    const bool got = reliable([&](core::TcpDispatcherClient& c) {
      auto results = c.wait_results(instance, 256, 0.2);
      if (!results.ok()) return false;
      batch = std::move(results.value());
      return true;
    });
    if (!got || batch.empty()) {
      ++idle_polls;
      continue;
    }
    idle_polls = 0;
    for (const auto& result : batch) {
      history.result_ids.push_back(result.task_id.value);
    }
  }

  const core::DispatcherStatus status = dispatcher.status();
  // Orderly fleet teardown while the server still answers deregisters.
  for (auto& harness : fleet) harness.reset();

  if (data_run) {
    const core::Dispatcher::DataStats data = dispatcher.data_stats();
    history.data_run = true;
    history.max_locality_wait_s = dconfig.max_locality_wait_s;
    history.stale_route_errors = data.stale_routes;
    history.locality_overwait = data.locality_overwait;
    history.data_evictions = data.evictions;
    history.digest_stale =
        obs.registry().counter("falkon.data.digest_stale").value();
  }

  dispatcher.shutdown();
  server.stop();

  if (injector) history.injected_faults = injector->total_injected();
  fill_terminal_status(history, status);
  history.events = obs.tracer().snapshot();
  history.trace_complete = obs.tracer().complete();
  return history;
}

namespace {

/// Self-deleting scratch directory holding the HA run's journals.
class ScratchDir {
 public:
  ScratchDir() {
    char pattern[] = "/tmp/falkon_tk_XXXXXX";
    if (const char* made = ::mkdtemp(pattern)) path_ = made;
  }
  ~ScratchDir() {
    if (!path_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(path_, ec);
    }
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Reserve a free loopback port: bind ephemeral, note it, release. The
/// election mesh needs every standby's port known before any is built.
std::uint16_t reserve_port() {
  auto listener = net::TcpListener::bind(0);
  if (!listener.ok()) return 0;
  const std::uint16_t port = listener.value().port();
  listener.value().close();
  return port;
}

}  // namespace

RunHistory run_tcp_ha(const WorkloadSpec& spec, const HaRunOptions& ha) {
  RunHistory history;
  history.backend = "tcp-ha";
  history.ha_run = true;
  // Takeover requeues re-dispatch in-flight tasks outside the retry
  // budget, so the per-task kGetWork count is not I5-accountable here.
  history.max_retries = -1;

  obs::Obs obs{trace_config()};
  const fault::FaultPlan plan = fault_plan(spec);
  std::unique_ptr<fault::FaultInjector> injector;
  if (spec.faulty()) {
    injector = std::make_unique<fault::FaultInjector>(plan, &obs);
  }

  ScratchDir scratch;
  if (scratch.path().empty()) {
    history.run_error = "mkdtemp failed";
    return history;
  }
  const std::string primary_dir = scratch.path() + "/primary";
  std::error_code ec;
  std::filesystem::create_directories(primary_dir, ec);

  RealClock clock;

  // Primary: a dispatcher journaling through AsyncJournal.
  ha::Journal::Options jopts = {};
  jopts.dir = primary_dir;
  jopts.obs = &obs;
  auto opened = ha::Journal::open(jopts);
  if (!opened.ok()) {
    history.run_error = "journal open: " + opened.error().str();
    return history;
  }
  auto journal = std::make_unique<ha::AsyncJournal>(opened.take());
  const std::uint64_t primary_epoch = journal->epoch();

  core::DispatcherConfig dconfig = dispatcher_config(spec, obs, injector.get());
  dconfig.journal = journal.get();
  auto dispatcher = std::make_unique<core::Dispatcher>(clock, dconfig);
  auto server = std::make_unique<core::TcpDispatcherServer>(*dispatcher, &obs);
  if (auto status = server->start(0, injector.get()); !status.ok()) {
    history.run_error = "server start: " + status.error().str();
    return history;
  }
  server->set_replication_source(journal.get());
  server->set_epoch(primary_epoch);
  history.primary_epochs.push_back(primary_epoch);
  const std::uint16_t rpc_port = server->rpc_port();

  // Standby fleet: full election mesh, every standby fencing through the
  // primary's (shared, same-host) log directory.
  const int standby_count = std::max(1, ha.standbys);
  std::vector<std::uint16_t> election_ports(
      static_cast<std::size_t>(standby_count));
  for (auto& port : election_ports) port = reserve_port();
  std::vector<std::unique_ptr<ha::Standby>> standbys;
  for (int i = 0; i < standby_count; ++i) {
    ha::StandbyOptions sopts;
    sopts.primary_host = "127.0.0.1";
    sopts.primary_rpc_port = rpc_port;
    sopts.rank = static_cast<std::uint32_t>(i);
    sopts.election_port = election_ports[static_cast<std::size_t>(i)];
    for (int j = 0; j < standby_count; ++j) {
      if (j == i) continue;
      sopts.peers.push_back({"127.0.0.1",
                             election_ports[static_cast<std::size_t>(j)],
                             static_cast<std::uint32_t>(j)});
    }
    sopts.takeover_rpc_port = rpc_port;
    sopts.shared_log_dir = primary_dir;
    sopts.standby_dir = scratch.path() + "/standby" + std::to_string(i);
    std::filesystem::create_directories(sopts.standby_dir, ec);
    sopts.poll_interval_s = 0.02;
    sopts.failover_after_s = 0.35;
    sopts.dispatcher = dispatcher_config(spec, obs, injector.get());
    sopts.obs = &obs;
    sopts.fault = injector.get();
    auto standby = std::make_unique<ha::Standby>(clock, std::move(sopts));
    if (auto status = standby->start(); !status.ok()) {
      history.run_error = "standby start: " + status.error().str();
      return history;
    }
    standbys.push_back(std::move(standby));
  }

  std::uint64_t next_node = 1;
  std::vector<std::unique_ptr<core::TcpExecutorHarness>> fleet(
      static_cast<std::size_t>(spec.executors));
  const auto respawn = [&](int slot) {
    auto& cell = fleet[static_cast<std::size_t>(slot)];
    if (cell && cell->runtime().running()) return;
    cell.reset();
    core::ExecutorOptions eopts =
        executor_options(spec, next_node++, obs, injector.get());
    // Survive the takeover window: a generous link budget so in-flight
    // calls ride out the downtime, and a fast takeover probe so push-mode
    // executors rediscover the promoted dispatcher without polling.
    eopts.link_retries = std::max(eopts.link_retries, 8);
    eopts.register_retries = std::max(eopts.register_retries, 8);
    eopts.backoff.base_s = 0.02;
    eopts.backoff.max_s = 0.2;
    eopts.takeover_probe_s = 0.1;
    auto harness = std::make_unique<core::TcpExecutorHarness>(
        clock, "127.0.0.1", rpc_port,
        std::make_unique<core::SleepEngine>(clock), eopts);
    if (harness->start().ok()) cell = std::move(harness);
  };
  for (int slot = 0; slot < spec.executors; ++slot) respawn(slot);

  // The failover client carries the epoch protocol and submit_seq
  // idempotence; one submit call per bundle is exactly-once end to end.
  ha::FailoverClientOptions copts;
  copts.host = "127.0.0.1";
  copts.rpc_port = rpc_port;
  copts.obs = &obs;
  ha::FailoverClient client(copts);

  auto created = client.create_instance(ClientId{1});
  if (!created.ok()) {
    history.run_error = "create_instance: " + created.error().str();
    return history;
  }
  const InstanceId instance = created.value();

  const std::vector<TaskSpec> tasks = make_tasks(spec);
  for (std::size_t at = 0; at < tasks.size();
       at += static_cast<std::size_t>(spec.client_bundle)) {
    const std::size_t end = std::min(
        tasks.size(), at + static_cast<std::size_t>(spec.client_bundle));
    auto accepted = client.submit(
        instance, {tasks.begin() + static_cast<long>(at),
                   tasks.begin() + static_cast<long>(end)});
    if (!accepted.ok()) {
      history.run_error = "submit: " + accepted.error().str();
      return history;
    }
  }

  // Drive to quiesce with the kill schedule folded in. Promotions are
  // recorded the moment they are observed so primary_epochs keeps serving
  // order (I9).
  const std::uint64_t kill_at =
      spec.kill_primary_after > 0
          ? static_cast<std::uint64_t>(spec.kill_primary_after *
                                       static_cast<double>(spec.task_count))
          : std::numeric_limits<std::uint64_t>::max();
  bool primary_killed = spec.kill_primary_after <= 0;
  bool winner_killed = !ha.kill_winner_too || standby_count < 2;
  int winner = -1;
  std::chrono::steady_clock::time_point winner_seen{};
  std::vector<bool> recorded(standbys.size(), false);
  const auto record_promotions = [&] {
    for (std::size_t i = 0; i < standbys.size(); ++i) {
      if (recorded[i] || standbys[i] == nullptr || !standbys[i]->promoted()) {
        continue;
      }
      recorded[i] = true;
      history.primary_epochs.push_back(standbys[i]->epoch());
      if (winner < 0) winner = static_cast<int>(i);
    }
  };

  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(static_cast<long>(ha.deadline_s * 1000));
  core::DispatcherStatus last{};
  for (;;) {
    if (auto status = client.status(); status.ok()) last = status.value();
    history.quarantine_series.push_back(last.quarantined);
    record_promotions();

    if (!primary_killed && last.completed >= kill_at) {
      // Kill the primary: stop serving, then release the journal (the
      // AsyncJournal destructor drains) so the election winner can fence
      // and recover the shared directory.
      server->stop();
      server.reset();
      dispatcher->shutdown();
      dispatcher.reset();
      journal.reset();
      primary_killed = true;
    }

    if (primary_killed && !winner_killed && winner >= 0) {
      if (winner_seen == std::chrono::steady_clock::time_point{}) {
        winner_seen = std::chrono::steady_clock::now();
      } else if (std::chrono::steady_clock::now() - winner_seen >
                 std::chrono::milliseconds(300)) {
        auto& victim = standbys[static_cast<std::size_t>(winner)];
        victim->stop();
        if (victim->dispatcher() != nullptr) {
          victim->dispatcher()->shutdown();
        }
        victim.reset();  // releases the shared dir for the next winner
        winner_killed = true;
        winner = -1;
      }
    }

    if (primary_killed && winner_killed &&
        last.submitted >= spec.task_count &&
        last.completed + last.failed >= last.submitted) {
      break;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      history.run_error =
          "stalled: completed=" + std::to_string(last.completed) +
          " failed=" + std::to_string(last.failed) +
          " queued=" + std::to_string(last.queued) +
          " dispatched=" + std::to_string(last.dispatched) + " of " +
          std::to_string(spec.task_count);
      break;
    }
    if (spec.supervise) {
      for (int slot = 0; slot < spec.executors; ++slot) respawn(slot);
    }
    nap_ms(5);
  }
  record_promotions();

  // Collect every result through the failover client (dedups re-delivery
  // across the takeover; I10 demands one per submitted task).
  int idle_polls = 0;
  while (history.run_error.empty() &&
         history.result_ids.size() < spec.task_count && idle_polls < 10) {
    auto batch = client.wait_results(instance, 256, 0.2);
    if (!batch.ok() || batch.value().empty()) {
      ++idle_polls;
      continue;
    }
    idle_polls = 0;
    for (const auto& result : batch.value()) {
      history.result_ids.push_back(result.task_id.value);
    }
  }

  core::DispatcherStatus final_status = last;
  if (auto status = client.status(); status.ok()) final_status = status.value();
  record_promotions();

  // Orderly teardown: fleet first (deregister against whoever serves),
  // then standbys, then whatever remains of the original primary.
  for (auto& harness : fleet) harness.reset();
  for (auto& standby : standbys) {
    if (standby == nullptr) continue;
    standby->stop();
    if (standby->dispatcher() != nullptr) standby->dispatcher()->shutdown();
    standby.reset();
  }
  if (server != nullptr) server->stop();
  server.reset();
  if (dispatcher != nullptr) dispatcher->shutdown();
  dispatcher.reset();
  journal.reset();

  if (injector) history.injected_faults = injector->total_injected();
  fill_terminal_status(history, final_status);
  history.events = obs.tracer().snapshot();
  history.trace_complete = obs.tracer().complete();
  return history;
}

}  // namespace falkon::testkit
