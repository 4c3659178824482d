// Executor runtime and in-process end-to-end tests: the full
// register/notify/get-work/execute/deliver loop, piggy-backing, idle-timeout
// self-release (distributed release policy), pre-fetching, and the shell
// engine.
#include <gtest/gtest.h>

#include "common/clock.h"
#include "core/client.h"
#include "core/service.h"

namespace falkon::core {
namespace {

InProcFalkon::EngineFactory noop_factory() {
  return [](Clock&) { return std::make_unique<NoopEngine>(); };
}

InProcFalkon::EngineFactory sleep_factory() {
  return [](Clock& clock) { return std::make_unique<SleepEngine>(clock); };
}

std::vector<TaskSpec> sleep_tasks(int count, double duration = 0.0) {
  std::vector<TaskSpec> tasks;
  for (int i = 1; i <= count; ++i) {
    tasks.push_back(make_sleep_task(TaskId{static_cast<std::uint64_t>(i)},
                                    duration));
  }
  return tasks;
}

TEST(ExecutorEndToEnd, SingleExecutorRunsAllTasks) {
  RealClock clock;
  InProcFalkon falkon(clock, DispatcherConfig{});
  ASSERT_TRUE(falkon.add_executors(1, noop_factory(), ExecutorOptions{}).ok());

  auto session = FalkonSession::open(falkon.client(), ClientId{1});
  ASSERT_TRUE(session.ok());
  auto results = session.value()->run(sleep_tasks(50), /*deadline_s=*/30.0);
  ASSERT_TRUE(results.ok()) << results.error().str();
  EXPECT_EQ(results.value().size(), 50u);
  for (const auto& result : results.value()) EXPECT_TRUE(result.success());
  EXPECT_EQ(falkon.dispatcher().status().completed, 50u);
}

TEST(ExecutorEndToEnd, ManyExecutorsShareTheQueue) {
  RealClock clock;
  InProcFalkon falkon(clock, DispatcherConfig{});
  ASSERT_TRUE(falkon.add_executors(8, noop_factory(), ExecutorOptions{}).ok());

  auto session = FalkonSession::open(falkon.client(), ClientId{1});
  ASSERT_TRUE(session.ok());
  auto results = session.value()->run(sleep_tasks(400), 30.0);
  ASSERT_TRUE(results.ok()) << results.error().str();
  EXPECT_EQ(results.value().size(), 400u);

  // Exactly-once: all 400 distinct ids present.
  std::set<std::uint64_t> ids;
  for (const auto& result : results.value()) ids.insert(result.task_id.value);
  EXPECT_EQ(ids.size(), 400u);

  // Work was actually spread: the executors together ran 400 tasks.
  std::uint64_t executed = 0;
  for (const auto& stats : falkon.executor_stats()) {
    executed += stats.tasks_executed;
  }
  EXPECT_EQ(executed, 400u);
}

TEST(ExecutorEndToEnd, ScaledClockCompressesSleepTasks) {
  ScaledClock clock(1000.0);  // 1 model second = 1 real millisecond
  InProcFalkon falkon(clock, DispatcherConfig{});
  ASSERT_TRUE(falkon.add_executors(4, sleep_factory(), ExecutorOptions{}).ok());

  auto session = FalkonSession::open(falkon.client(), ClientId{1});
  ASSERT_TRUE(session.ok());
  // 20 x "sleep 10" on 4 executors = 50 model seconds of serial work,
  // i.e. ~50 ms of real time.
  auto results = session.value()->run(sleep_tasks(20, 10.0),
                                      /*deadline_s=*/60000.0);
  ASSERT_TRUE(results.ok()) << results.error().str();
  EXPECT_EQ(results.value().size(), 20u);
  for (const auto& result : results.value()) {
    EXPECT_GE(result.exec_time_s, 9.0);  // model seconds
  }
}

TEST(ExecutorEndToEnd, IdleTimeoutReleasesExecutor) {
  RealClock clock;
  InProcFalkon falkon(clock, DispatcherConfig{});
  ExecutorOptions options;
  options.idle_timeout_s = 0.05;  // 50 ms real
  ASSERT_TRUE(falkon.add_executors(2, noop_factory(), options).ok());
  EXPECT_EQ(falkon.dispatcher().status().registered_executors, 2u);

  // No work arrives: both executors must deregister themselves.
  for (int i = 0; i < 200; ++i) {
    if (falkon.dispatcher().status().registered_executors == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(falkon.dispatcher().status().registered_executors, 0u);
}

TEST(ExecutorEndToEnd, BusyExecutorDoesNotIdleOut) {
  RealClock clock;
  InProcFalkon falkon(clock, DispatcherConfig{});
  ExecutorOptions options;
  options.idle_timeout_s = 0.10;
  ASSERT_TRUE(falkon.add_executors(1, noop_factory(), options).ok());

  auto session = FalkonSession::open(falkon.client(), ClientId{1});
  ASSERT_TRUE(session.ok());
  // Trickle work every 30 ms for ~0.5 s: the executor must stay registered
  // because activity resets its idle clock.
  for (int burst = 0; burst < 15; ++burst) {
    std::vector<TaskSpec> one;
    one.push_back(make_sleep_task(TaskId{static_cast<std::uint64_t>(1000 + burst)}, 0.0));
    ASSERT_TRUE(session.value()->submit(std::move(one)).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    ASSERT_EQ(falkon.dispatcher().status().registered_executors, 1u)
        << "burst " << burst;
  }
  auto results = session.value()->wait(15, 10.0);
  ASSERT_TRUE(results.ok());
}

TEST(ExecutorEndToEnd, CentralizedReleaseStopsExecutor) {
  RealClock clock;
  InProcFalkon falkon(clock, DispatcherConfig{});
  ASSERT_TRUE(falkon.add_executors(1, noop_factory(), ExecutorOptions{}).ok());
  ASSERT_EQ(falkon.dispatcher().status().registered_executors, 1u);

  auto released = falkon.dispatcher().request_release(1);
  ASSERT_EQ(released.size(), 1u);
  for (int i = 0; i < 200; ++i) {
    if (falkon.dispatcher().status().registered_executors == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(falkon.dispatcher().status().registered_executors, 0u);
}

TEST(ExecutorEndToEnd, PrefetchStillCompletesEverything) {
  RealClock clock;
  InProcFalkon falkon(clock, DispatcherConfig{});
  ExecutorOptions options;
  options.prefetch = true;
  ASSERT_TRUE(falkon.add_executors(2, noop_factory(), options).ok());
  auto session = FalkonSession::open(falkon.client(), ClientId{1});
  ASSERT_TRUE(session.ok());
  auto results = session.value()->run(sleep_tasks(100), 30.0);
  ASSERT_TRUE(results.ok()) << results.error().str();
  std::set<std::uint64_t> ids;
  for (const auto& result : results.value()) ids.insert(result.task_id.value);
  EXPECT_EQ(ids.size(), 100u);
}

TEST(ExecutorEndToEnd, DispatcherExecutorBundling) {
  RealClock clock;
  DispatcherConfig config;
  config.max_tasks_per_dispatch = 10;  // allow bundles to executors
  InProcFalkon falkon(clock, config);
  ExecutorOptions options;
  options.max_bundle = 10;
  options.piggyback_tasks = 10;
  ASSERT_TRUE(falkon.add_executors(2, noop_factory(), options).ok());
  auto session = FalkonSession::open(falkon.client(), ClientId{1});
  ASSERT_TRUE(session.ok());
  auto results = session.value()->run(sleep_tasks(500), 30.0);
  ASSERT_TRUE(results.ok()) << results.error().str();
  EXPECT_EQ(results.value().size(), 500u);
}

TEST(ExecutorEndToEnd, ShallowTrickleNeverStrandsWork) {
  // Adaptive executors with the takeover probe off and no renotify sweep:
  // only notifications move work here. A wake-up lost between a submit and
  // a pull — the notification budget counts work an executor has been
  // woken for — would strand tasks until the idle deadline.
  RealClock clock;
  InProcFalkon falkon(clock, DispatcherConfig{});
  ExecutorOptions options;
  options.adaptive_bundle = true;
  options.takeover_probe_s = 0.0;
  ASSERT_TRUE(falkon.add_executors(4, noop_factory(), options).ok());
  auto session = FalkonSession::open(falkon.client(), ClientId{1});
  ASSERT_TRUE(session.ok());
  std::uint64_t next = 1;
  for (int round = 0; round < 400; ++round) {
    std::vector<TaskSpec> tasks;
    for (int i = 0; i < 1 + (round * 7) % 40; ++i) {
      tasks.push_back(make_sleep_task(TaskId{next++}, 0.0));
    }
    ASSERT_TRUE(session.value()->submit(std::move(tasks)).ok());
    if (round % 4 == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  auto results = session.value()->wait(next - 1, /*deadline_s=*/10.0);
  ASSERT_TRUE(results.ok()) << results.error().str();
  std::set<std::uint64_t> ids;
  for (const auto& result : results.value()) ids.insert(result.task_id.value);
  EXPECT_EQ(ids.size(), next - 1);
}

/// DispatcherLink double: serves `queued` to the next get-work, answers
/// every delivery with an empty ack, and counts the get-work calls.
class CountingLink final : public DispatcherLink {
 public:
  Result<ExecutorId> register_executor(const wire::RegisterRequest&) override {
    return ExecutorId{1};
  }
  Result<std::vector<TaskSpec>> get_work(ExecutorId, std::uint32_t) override {
    std::lock_guard lock(mu);
    ++get_works;
    std::vector<TaskSpec> out;
    out.swap(queued);
    return out;
  }
  Result<std::vector<TaskSpec>> deliver_results(ExecutorId,
                                                std::vector<TaskResult> results,
                                                std::uint32_t) override {
    std::lock_guard lock(mu);
    delivered += results.size();
    cv.notify_all();
    return std::vector<TaskSpec>{};
  }
  Status deregister(ExecutorId, const std::string&) override {
    return ok_status();
  }

  /// Waits until `n` results were delivered, then briefly for any get-work
  /// the executor would send after the ack; returns the get-work count.
  int get_works_after(std::size_t n) {
    std::unique_lock lock(mu);
    cv.wait_for(lock, std::chrono::seconds(5), [&] { return delivered >= n; });
    lock.unlock();
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    lock.lock();
    return get_works;
  }

  std::mutex mu;
  std::condition_variable cv;
  std::vector<TaskSpec> queued;
  std::size_t delivered{0};
  int get_works{0};
};

TEST(ExecutorRuntimeLoop, EmptyAckToAWorkRequestEndsThePull) {
  RealClock clock;
  CountingLink link;
  link.queued = sleep_tasks(3);
  NoopEngine engine;
  ExecutorOptions options;
  options.takeover_probe_s = 0.0;
  ExecutorRuntime runtime(clock, link, engine, options);
  ASSERT_TRUE(runtime.start().ok());
  // The start-up pull took the bundle; the empty ack to its delivery (which
  // asked for a piggy-backed task) left the executor idle, so it waits for
  // a notification instead of polling once more.
  EXPECT_EQ(link.get_works_after(3), 1);
  {
    std::lock_guard lock(link.mu);
    link.queued = sleep_tasks(2);
  }
  runtime.notify(1);
  EXPECT_EQ(link.get_works_after(5), 2);
  runtime.stop();
}

TEST(ExecutorRuntimeLoop, DeliveryWithoutAWorkRequestPullsAgain) {
  RealClock clock;
  CountingLink link;
  link.queued = sleep_tasks(3);
  NoopEngine engine;
  ExecutorOptions options;
  options.takeover_probe_s = 0.0;
  options.piggyback_tasks = 0;  // deliveries ask for nothing
  ExecutorRuntime runtime(clock, link, engine, options);
  ASSERT_TRUE(runtime.start().ok());
  // The empty ack answered no pull, so the executor asks for work itself.
  EXPECT_EQ(link.get_works_after(3), 2);
  runtime.stop();
}

TEST(ShellEngine, RunsRealProcessAndCapturesOutput) {
  ShellEngine engine;
  TaskSpec task;
  task.id = TaskId{1};
  task.executable = "/bin/sh";
  task.args = {"-c", "echo out-street; echo err-street 1>&2; exit 3"};
  task.capture_output = true;
  auto result = engine.run(task);
  EXPECT_EQ(result.exit_code, 3);
  EXPECT_EQ(result.state, TaskState::kFailed);
  EXPECT_NE(result.stdout_data.find("out-street"), std::string::npos);
  EXPECT_NE(result.stderr_data.find("err-street"), std::string::npos);
}

TEST(ShellEngine, EnvAndWorkingDirApplied) {
  ShellEngine engine;
  TaskSpec task;
  task.id = TaskId{2};
  task.executable = "/bin/sh";
  task.args = {"-c", "echo $FALKON_TEST_VAR; pwd"};
  task.env = {{"FALKON_TEST_VAR", "falkon-works"}};
  task.working_dir = "/tmp";
  task.capture_output = true;
  auto result = engine.run(task);
  EXPECT_TRUE(result.success());
  EXPECT_NE(result.stdout_data.find("falkon-works"), std::string::npos);
  EXPECT_NE(result.stdout_data.find("/tmp"), std::string::npos);
}

TEST(ShellEngine, MissingExecutableFailsCleanly) {
  ShellEngine engine;
  TaskSpec task;
  task.id = TaskId{3};
  task.executable = "/no/such/binary";
  auto result = engine.run(task);
  EXPECT_EQ(result.exit_code, 127);
  EXPECT_EQ(result.state, TaskState::kFailed);
}

TEST(ShellEngine, EndToEndThroughFalkon) {
  RealClock clock;
  InProcFalkon falkon(clock, DispatcherConfig{});
  ASSERT_TRUE(falkon
                  .add_executors(2,
                                 [](Clock&) {
                                   return std::make_unique<ShellEngine>();
                                 },
                                 ExecutorOptions{})
                  .ok());
  auto session = FalkonSession::open(falkon.client(), ClientId{1});
  ASSERT_TRUE(session.ok());

  std::vector<TaskSpec> tasks;
  for (int i = 1; i <= 10; ++i) {
    TaskSpec task;
    task.id = TaskId{static_cast<std::uint64_t>(i)};
    task.executable = "/bin/sh";
    task.args = {"-c", "echo task-" + std::to_string(i)};
    task.capture_output = true;
    tasks.push_back(std::move(task));
  }
  auto results = session.value()->run(std::move(tasks), 30.0);
  ASSERT_TRUE(results.ok()) << results.error().str();
  ASSERT_EQ(results.value().size(), 10u);
  for (const auto& result : results.value()) {
    EXPECT_TRUE(result.success());
    EXPECT_NE(result.stdout_data.find("task-"), std::string::npos);
  }
}

/// Time moves only by sleeping, so a run's exec_time_s is exactly the
/// modelled I/O plus compute time, whatever the host's scheduler does.
class SleepOnlyClock final : public Clock {
 public:
  [[nodiscard]] double now_s() const override { return now_s_; }
  void sleep_s(double seconds) override { now_s_ += seconds; }

 private:
  double now_s_{0.0};
};

TEST(DataStagingEngine, CacheHitsSkipSharedFsCosts) {
  SleepOnlyClock clock;
  iomodel::IoModel model;
  DataStagingEngine engine(clock, model, /*concurrency=*/128,
                           /*cache_capacity_bytes=*/1ULL << 30);
  TaskSpec task = make_data_task(TaskId{1}, 0.0, DataLocation::kSharedFs,
                                 IoMode::kRead, 100 << 20, 0);
  task.data_object = "hot";
  const auto cold = engine.run(task);
  task.id = TaskId{2};
  const auto warm = engine.run(task);
  EXPECT_EQ(engine.cache_hits(), 1u);
  EXPECT_EQ(engine.cache_misses(), 1u);
  // The cached run reads from local disk: much faster under contention.
  EXPECT_LT(warm.exec_time_s, cold.exec_time_s * 0.5);
}

}  // namespace
}  // namespace falkon::core
