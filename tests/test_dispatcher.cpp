// Dispatcher unit tests: the wait queue's order guarantees, the
// factory/instance client API, the hybrid push/pull executor protocol,
// piggy-backing, the replay policy, and exactly-once result delivery
// (paper sections 3.2-3.4).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <numeric>
#include <thread>

#include "common/clock.h"
#include "core/dispatcher.h"
#include "core/wait_queue.h"

namespace falkon::core {
namespace {

/// Records notifications instead of waking a real executor.
struct RecordingSink final : ExecutorSink {
  std::atomic<int> notifications{0};
  std::atomic<std::uint64_t> last_key{0};
  void notify(ExecutorId, std::uint64_t resource_key) override {
    last_key.store(resource_key);
    notifications.fetch_add(1);
  }
};

std::vector<TaskSpec> sleep_tasks(std::uint64_t first_id, int count,
                                  double duration = 0.0) {
  std::vector<TaskSpec> tasks;
  for (int i = 0; i < count; ++i) {
    tasks.push_back(make_sleep_task(TaskId{first_id + static_cast<std::uint64_t>(i)},
                                    duration));
  }
  return tasks;
}

TaskResult success_for(const TaskSpec& spec) {
  TaskResult result;
  result.task_id = spec.id;
  result.exit_code = 0;
  result.state = TaskState::kCompleted;
  return result;
}

// ---- the wait queue: runs, requeues and window picks ----

WaitQueue::Meta meta_of(std::uint64_t instance) {
  return WaitQueue::Meta{InstanceId{instance}, 0.0, 0, {}};
}

/// Task ids in queue order, emptying the queue.
std::vector<std::uint64_t> drain_ids(WaitQueue& queue) {
  std::vector<std::uint64_t> ids;
  while (!queue.empty()) ids.push_back(queue.take().spec.id.value);
  return ids;
}

TEST(WaitQueue, FifoHoldsAcrossRuns) {
  WaitQueue queue;
  queue.push_back(sleep_tasks(1, 3), meta_of(1));
  queue.push_back(sleep_tasks(4, 2), meta_of(2));
  queue.push_back(sleep_tasks(6, 1), meta_of(1));
  EXPECT_EQ(queue.size(), 6u);
  std::vector<const TaskSpec*> window;
  queue.window(64, window);
  ASSERT_EQ(window.size(), 6u);
  for (std::size_t i = 0; i < window.size(); ++i) {
    EXPECT_EQ(window[i]->id, TaskId{i + 1});
  }
  const std::vector<std::uint64_t> instances = {1, 1, 1, 2, 2, 1};
  for (std::uint64_t id = 1; id <= 6; ++id) {
    ASSERT_EQ(queue.front().id, TaskId{id});
    WaitQueue::Task task = queue.take();
    EXPECT_EQ(task.spec.id, TaskId{id});
    EXPECT_EQ(task.meta.instance, InstanceId{instances[id - 1]});
    EXPECT_EQ(queue.size(), 6u - id);
  }
  EXPECT_TRUE(queue.empty());
}

TEST(WaitQueue, FrontRequeueLandsAheadOfAPartlyUsedRun) {
  WaitQueue queue;
  queue.push_back(sleep_tasks(1, 4), meta_of(1));
  ASSERT_EQ(queue.take().spec.id, TaskId{1});
  WaitQueue::Task retry{make_sleep_task(TaskId{99}, 0.0),
                        WaitQueue::Meta{InstanceId{2}, 5.0, 3, {7, 8}}};
  queue.requeue(std::move(retry), /*front=*/true);
  queue.requeue(WaitQueue::Task{make_sleep_task(TaskId{50}, 0.0), meta_of(1)},
                /*front=*/false);
  EXPECT_EQ(queue.size(), 5u);
  EXPECT_EQ(queue.front().id, TaskId{99});
  EXPECT_EQ(queue.front_meta().attempts, 3);
  WaitQueue::Task head = queue.take();
  EXPECT_EQ(head.meta.instance, InstanceId{2});
  EXPECT_DOUBLE_EQ(head.meta.enqueue_s, 5.0);
  EXPECT_EQ(head.meta.killers, (std::vector<std::uint64_t>{7, 8}));
  EXPECT_EQ(drain_ids(queue), (std::vector<std::uint64_t>{2, 3, 4, 50}));
}

TEST(WaitQueue, TakeShiftsOnlyTheTasksAheadAndKeepsTheHead) {
  WaitQueue queue;
  queue.push_back(sleep_tasks(1, 2), meta_of(1));
  queue.push_back(sleep_tasks(3, 6), meta_of(2));
  // Index 3 is the second task of the second run: the window spans runs.
  WaitQueue::Task picked = queue.take(3);
  EXPECT_EQ(picked.spec.id, TaskId{4});
  EXPECT_EQ(picked.meta.instance, InstanceId{2});
  EXPECT_EQ(queue.size(), 7u);
  EXPECT_EQ(queue.front().id, TaskId{1});
  // A pick inside the head run keeps the head too.
  EXPECT_EQ(queue.take(1).spec.id, TaskId{2});
  EXPECT_EQ(queue.front().id, TaskId{1});
  // The last task of a run empties it; the run behind moves up.
  EXPECT_EQ(queue.take(0).spec.id, TaskId{1});
  EXPECT_EQ(queue.front().id, TaskId{3});
  EXPECT_EQ(queue.front_meta().instance, InstanceId{2});
  EXPECT_EQ(queue.take(4).spec.id, TaskId{8});
  EXPECT_EQ(drain_ids(queue), (std::vector<std::uint64_t>{3, 5, 6, 7}));
}

TEST(WaitQueue, DropInstanceKeepsSizeExact) {
  WaitQueue queue;
  queue.push_back(sleep_tasks(1, 3), meta_of(1));
  queue.push_back(sleep_tasks(11, 2), meta_of(2));
  queue.push_back(sleep_tasks(4, 3), meta_of(1));
  queue.push_back(sleep_tasks(13, 2), meta_of(2));
  ASSERT_EQ(queue.take().spec.id, TaskId{1});  // first run partly used
  EXPECT_EQ(queue.drop_instance(InstanceId{1}), 5u);
  EXPECT_EQ(queue.size(), 4u);
  EXPECT_EQ(queue.drop_instance(InstanceId{3}), 0u);
  EXPECT_EQ(queue.size(), 4u);
  EXPECT_EQ(drain_ids(queue), (std::vector<std::uint64_t>{11, 12, 13, 14}));
}

TEST(WaitQueue, EmptyPushAddsNothing) {
  WaitQueue queue;
  queue.push_back({}, meta_of(1));
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
  std::vector<const TaskSpec*> window;
  queue.window(64, window);
  EXPECT_TRUE(window.empty());
  queue.push_back(sleep_tasks(1, 1), meta_of(1));
  queue.push_back({}, meta_of(2));
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.drop_instance(InstanceId{2}), 0u);
  EXPECT_EQ(drain_ids(queue), (std::vector<std::uint64_t>{1}));
}

class DispatcherTest : public ::testing::Test {
 protected:
  DispatcherTest() : dispatcher_(clock_, DispatcherConfig{}) {}

  ExecutorId add_executor(std::shared_ptr<RecordingSink> sink = nullptr) {
    if (!sink) sink = std::make_shared<RecordingSink>();
    sinks_.push_back(sink);
    wire::RegisterRequest request;
    request.host = "test";
    auto id = dispatcher_.register_executor(request, sink);
    EXPECT_TRUE(id.ok());
    return id.value();
  }

  InstanceId make_instance() {
    auto instance = dispatcher_.create_instance(ClientId{1});
    EXPECT_TRUE(instance.ok());
    return instance.value();
  }

  ManualClock clock_;
  Dispatcher dispatcher_;
  std::vector<std::shared_ptr<RecordingSink>> sinks_;
};

TEST_F(DispatcherTest, FactoryInstanceLifecycle) {
  auto a = dispatcher_.create_instance(ClientId{1});
  auto b = dispatcher_.create_instance(ClientId{2});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a.value(), b.value());
  EXPECT_TRUE(dispatcher_.destroy_instance(a.value()).ok());
  EXPECT_FALSE(dispatcher_.destroy_instance(a.value()).ok());  // double free
  auto submit = dispatcher_.submit(a.value(), sleep_tasks(1, 1));
  ASSERT_FALSE(submit.ok());
  EXPECT_EQ(submit.error().code, ErrorCode::kNotFound);
}

TEST_F(DispatcherTest, SubmitGetWorkDeliverRoundtrip) {
  const InstanceId instance = make_instance();
  const ExecutorId executor = add_executor();

  ASSERT_TRUE(dispatcher_.submit(instance, sleep_tasks(1, 3)).ok());
  EXPECT_EQ(dispatcher_.status().queued, 3u);

  auto work = dispatcher_.get_work(executor, 1);
  ASSERT_TRUE(work.ok());
  ASSERT_EQ(work.value().size(), 1u);
  EXPECT_EQ(work.value()[0].id, TaskId{1});
  EXPECT_EQ(dispatcher_.status().dispatched, 1u);
  EXPECT_EQ(dispatcher_.status().busy_executors, 1u);

  auto outcome = dispatcher_.deliver_results(
      executor, {success_for(work.value()[0])}, /*want_tasks=*/0);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().acknowledged, 1u);
  EXPECT_EQ(dispatcher_.status().completed, 1u);

  auto results = dispatcher_.wait_results(instance, 10, 0.01);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results.value().size(), 1u);
  EXPECT_EQ(results.value()[0].task_id, TaskId{1});
}

TEST_F(DispatcherTest, NotificationSentWhenWorkArrives) {
  auto sink = std::make_shared<RecordingSink>();
  add_executor(sink);
  const InstanceId instance = make_instance();
  ASSERT_TRUE(dispatcher_.submit(instance, sleep_tasks(1, 1)).ok());
  // The notification engine is asynchronous (thread pool).
  for (int i = 0; i < 200 && sink->notifications.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(sink->notifications.load(), 1);
}

TEST_F(DispatcherTest, PiggybackDeliversNextTaskWithAck) {
  const InstanceId instance = make_instance();
  const ExecutorId executor = add_executor();
  ASSERT_TRUE(dispatcher_.submit(instance, sleep_tasks(1, 2)).ok());

  auto work = dispatcher_.get_work(executor, 1);
  ASSERT_TRUE(work.ok());
  auto outcome = dispatcher_.deliver_results(
      executor, {success_for(work.value()[0])}, /*want_tasks=*/1);
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome.value().piggyback.size(), 1u);
  EXPECT_EQ(outcome.value().piggyback[0].id, TaskId{2});
  // Executor stays busy: the piggy-backed task is in flight.
  EXPECT_EQ(dispatcher_.status().busy_executors, 1u);
}

TEST_F(DispatcherTest, PiggybackDisabledByConfig) {
  DispatcherConfig config;
  config.piggyback = false;
  Dispatcher dispatcher(clock_, config);
  auto instance = dispatcher.create_instance(ClientId{1});
  wire::RegisterRequest reg;
  auto executor =
      dispatcher.register_executor(reg, std::make_shared<RecordingSink>());
  ASSERT_TRUE(instance.ok() && executor.ok());
  ASSERT_TRUE(dispatcher.submit(instance.value(), sleep_tasks(1, 2)).ok());
  auto work = dispatcher.get_work(executor.value(), 1);
  ASSERT_TRUE(work.ok());
  auto outcome = dispatcher.deliver_results(
      executor.value(), {success_for(work.value()[0])}, /*want_tasks=*/1);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome.value().piggyback.empty());
}

TEST_F(DispatcherTest, FailedTaskIsRetriedThenReported) {
  DispatcherConfig config;
  config.replay.max_retries = 2;
  Dispatcher dispatcher(clock_, config);
  auto instance = dispatcher.create_instance(ClientId{1});
  wire::RegisterRequest reg;
  auto executor =
      dispatcher.register_executor(reg, std::make_shared<RecordingSink>());
  ASSERT_TRUE(instance.ok() && executor.ok());
  ASSERT_TRUE(dispatcher.submit(instance.value(), sleep_tasks(7, 1)).ok());

  // Fail the task max_retries + 1 times.
  for (int attempt = 0; attempt < 3; ++attempt) {
    auto work = dispatcher.get_work(executor.value(), 1);
    ASSERT_TRUE(work.ok());
    ASSERT_EQ(work.value().size(), 1u) << "attempt " << attempt;
    TaskResult failure = success_for(work.value()[0]);
    failure.exit_code = 1;
    failure.state = TaskState::kFailed;
    ASSERT_TRUE(
        dispatcher.deliver_results(executor.value(), {failure}, 0).ok());
  }
  const auto status = dispatcher.status();
  EXPECT_EQ(status.retried, 2u);
  EXPECT_EQ(status.failed, 1u);
  EXPECT_EQ(status.queued, 0u);

  // The failure is reported to the client exactly once.
  auto results = dispatcher.wait_results(instance.value(), 10, 0.01);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results.value().size(), 1u);
  EXPECT_EQ(results.value()[0].state, TaskState::kFailed);
}

TEST_F(DispatcherTest, ReplayTimeoutRequeuesAndDropsLateDuplicate) {
  DispatcherConfig config;
  config.replay.response_timeout_s = 10.0;
  config.replay.max_retries = 3;
  Dispatcher dispatcher(clock_, config);
  auto instance = dispatcher.create_instance(ClientId{1});
  wire::RegisterRequest reg;
  auto slow = dispatcher.register_executor(reg, std::make_shared<RecordingSink>());
  auto fast = dispatcher.register_executor(reg, std::make_shared<RecordingSink>());
  ASSERT_TRUE(instance.ok() && slow.ok() && fast.ok());
  ASSERT_TRUE(dispatcher.submit(instance.value(), sleep_tasks(1, 1)).ok());

  auto work = dispatcher.get_work(slow.value(), 1);
  ASSERT_TRUE(work.ok());
  ASSERT_EQ(work.value().size(), 1u);

  EXPECT_EQ(dispatcher.check_replays(), 0);  // not yet overdue
  clock_.advance(11.0);
  EXPECT_EQ(dispatcher.check_replays(), 1);  // requeued
  EXPECT_EQ(dispatcher.status().queued, 1u);

  // The fast executor picks it up and completes it.
  auto retry = dispatcher.get_work(fast.value(), 1);
  ASSERT_TRUE(retry.ok());
  ASSERT_EQ(retry.value().size(), 1u);
  ASSERT_TRUE(dispatcher
                  .deliver_results(fast.value(), {success_for(retry.value()[0])}, 0)
                  .ok());

  // The slow executor's late duplicate is dropped.
  auto late = dispatcher.deliver_results(slow.value(),
                                         {success_for(work.value()[0])}, 0);
  ASSERT_TRUE(late.ok());
  EXPECT_EQ(late.value().acknowledged, 0u);
  EXPECT_EQ(dispatcher.status().completed, 1u);

  auto results = dispatcher.wait_results(instance.value(), 10, 0.01);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results.value().size(), 1u);  // exactly once
}

TEST_F(DispatcherTest, ReplayDeadlineWaitsForTheWholeBundle) {
  // An executor reports a bundle only after running all of it, so a task's
  // deadline counts the bundle's summed estimate, not its own: four 1 s
  // tasks under a 2 s response timeout are due at +6 s, not +3 s.
  DispatcherConfig config;
  config.max_tasks_per_dispatch = 4;
  config.replay.response_timeout_s = 2.0;
  config.replay.max_retries = 3;
  Dispatcher dispatcher(clock_, config);
  auto instance = dispatcher.create_instance(ClientId{1});
  auto executor = dispatcher.register_executor(
      wire::RegisterRequest{}, std::make_shared<RecordingSink>());
  ASSERT_TRUE(instance.ok() && executor.ok());
  ASSERT_TRUE(
      dispatcher.submit(instance.value(), sleep_tasks(1, 4, 1.0)).ok());
  auto work = dispatcher.get_work(executor.value(), 4);
  ASSERT_TRUE(work.ok());
  ASSERT_EQ(work.value().size(), 4u);

  clock_.advance(3.5);
  EXPECT_EQ(dispatcher.check_replays(), 0);
  EXPECT_EQ(dispatcher.status().dispatched, 4u);
  clock_.advance(3.0);
  EXPECT_EQ(dispatcher.check_replays(), 4);
  EXPECT_EQ(dispatcher.status().queued, 4u);
  EXPECT_EQ(dispatcher.status().dispatched, 0u);
}

TEST_F(DispatcherTest, DeregisterRequeuesInflightTasks) {
  const InstanceId instance = make_instance();
  const ExecutorId executor = add_executor();
  ASSERT_TRUE(dispatcher_.submit(instance, sleep_tasks(1, 1)).ok());
  auto work = dispatcher_.get_work(executor, 1);
  ASSERT_TRUE(work.ok());
  ASSERT_EQ(work.value().size(), 1u);
  ASSERT_TRUE(dispatcher_.deregister_executor(executor, "test").ok());
  EXPECT_EQ(dispatcher_.status().queued, 1u);
  EXPECT_EQ(dispatcher_.status().registered_executors, 0u);
}

TEST_F(DispatcherTest, RequestReleaseNotifiesIdleExecutorsOnly) {
  auto sink_idle = std::make_shared<RecordingSink>();
  auto sink_busy = std::make_shared<RecordingSink>();
  add_executor(sink_idle);
  const ExecutorId busy = add_executor(sink_busy);
  const InstanceId instance = make_instance();
  ASSERT_TRUE(dispatcher_.submit(instance, sleep_tasks(1, 1)).ok());
  ASSERT_TRUE(dispatcher_.get_work(busy, 1).ok());

  auto released = dispatcher_.request_release(5);
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(sink_idle->last_key.load(), kReleaseResourceKey);
  // A released executor is not offered further work.
  auto more = dispatcher_.request_release(5);
  EXPECT_TRUE(more.empty());
}

TEST_F(DispatcherTest, BundledSubmitKeepsFifoOrder) {
  const InstanceId instance = make_instance();
  const ExecutorId executor = add_executor();
  ASSERT_TRUE(dispatcher_.submit(instance, sleep_tasks(1, 100)).ok());
  DispatcherConfig config;
  for (std::uint64_t expected = 1; expected <= 100; ++expected) {
    auto work = dispatcher_.get_work(executor, 1);
    ASSERT_TRUE(work.ok());
    ASSERT_EQ(work.value().size(), 1u);
    EXPECT_EQ(work.value()[0].id, TaskId{expected});
    ASSERT_TRUE(dispatcher_
                    .deliver_results(executor, {success_for(work.value()[0])}, 0)
                    .ok());
  }
}

TEST_F(DispatcherTest, CompletionListenerSeesEveryResult) {
  std::atomic<int> seen{0};
  dispatcher_.set_completion_listener(
      [&](const TaskResult&, double) { seen.fetch_add(1); });
  const InstanceId instance = make_instance();
  const ExecutorId executor = add_executor();
  ASSERT_TRUE(dispatcher_.submit(instance, sleep_tasks(1, 5)).ok());
  for (int i = 0; i < 5; ++i) {
    auto work = dispatcher_.get_work(executor, 1);
    ASSERT_TRUE(work.ok());
    ASSERT_TRUE(dispatcher_
                    .deliver_results(executor, {success_for(work.value()[0])}, 0)
                    .ok());
  }
  EXPECT_EQ(seen.load(), 5);
}

TEST_F(DispatcherTest, QueueAndOverheadTimingsUseClock) {
  const InstanceId instance = make_instance();
  const ExecutorId executor = add_executor();
  ASSERT_TRUE(dispatcher_.submit(instance, sleep_tasks(1, 1)).ok());
  clock_.advance(5.0);  // task waits 5 s in the queue
  auto work = dispatcher_.get_work(executor, 1);
  ASSERT_TRUE(work.ok());
  clock_.advance(2.0);  // 2 s round trip on the executor
  TaskResult result = success_for(work.value()[0]);
  result.exec_time_s = 1.5;
  ASSERT_TRUE(dispatcher_.deliver_results(executor, {result}, 0).ok());

  auto results = dispatcher_.wait_results(instance, 1, 0.01);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results.value().size(), 1u);
  EXPECT_DOUBLE_EQ(results.value()[0].queue_time_s, 5.0);
  EXPECT_DOUBLE_EQ(results.value()[0].overhead_s, 0.5);  // 2.0 - 1.5
}

TEST_F(DispatcherTest, DestroyInstanceDropsQueuedTasks) {
  const InstanceId instance = make_instance();
  ASSERT_TRUE(dispatcher_.submit(instance, sleep_tasks(1, 10)).ok());
  ASSERT_TRUE(dispatcher_.destroy_instance(instance).ok());
  EXPECT_EQ(dispatcher_.status().queued, 0u);
}

TEST_F(DispatcherTest, DestroyInstanceKeepsTheSurvivorsOrder) {
  const InstanceId doomed = make_instance();
  const InstanceId survivor = make_instance();
  const ExecutorId executor = add_executor();
  ASSERT_TRUE(dispatcher_.submit(doomed, sleep_tasks(1, 3)).ok());
  ASSERT_TRUE(dispatcher_.submit(survivor, sleep_tasks(11, 3)).ok());
  ASSERT_TRUE(dispatcher_.submit(doomed, sleep_tasks(4, 3)).ok());
  ASSERT_TRUE(dispatcher_.submit(survivor, sleep_tasks(14, 3)).ok());
  auto first = dispatcher_.get_work(executor, 1);  // task 1 leaves the queue
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first.value().size(), 1u);
  EXPECT_EQ(first.value()[0].id, TaskId{1});
  ASSERT_TRUE(dispatcher_.destroy_instance(doomed).ok());
  EXPECT_EQ(dispatcher_.status().queued, 6u);
  // The in-flight task's result is discarded with its instance.
  ASSERT_TRUE(
      dispatcher_.deliver_results(executor, {success_for(first.value()[0])}, 0)
          .ok());
  for (std::uint64_t expected : {11, 12, 13, 14, 15, 16}) {
    auto work = dispatcher_.get_work(executor, 1);
    ASSERT_TRUE(work.ok());
    ASSERT_EQ(work.value().size(), 1u);
    EXPECT_EQ(work.value()[0].id, TaskId{expected});
    ASSERT_TRUE(
        dispatcher_.deliver_results(executor, {success_for(work.value()[0])}, 0)
            .ok());
  }
  EXPECT_EQ(dispatcher_.status().queued, 0u);
  auto results = dispatcher_.wait_results(survivor, 100, 0.01);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results.value().size(), 6u);
}

TEST_F(DispatcherTest, LocalityPickReachesIntoTheSecondSubmit) {
  Dispatcher dispatcher(clock_, DispatcherConfig{},
                        std::make_unique<DataAwarePolicy>());
  wire::RegisterRequest warm;
  warm.host = "warm";
  warm.cached = {"object-a"};
  auto holder =
      dispatcher.register_executor(warm, std::make_shared<RecordingSink>());
  auto cold = dispatcher.register_executor(wire::RegisterRequest{},
                                           std::make_shared<RecordingSink>());
  auto instance = dispatcher.create_instance(ClientId{1});
  ASSERT_TRUE(holder.ok() && cold.ok() && instance.ok());
  ASSERT_TRUE(dispatcher.submit(instance.value(), sleep_tasks(1, 3)).ok());
  std::vector<TaskSpec> second = sleep_tasks(4, 3);
  second[1].data_object = "object-a";  // task 5, window index 4
  ASSERT_TRUE(dispatcher.submit(instance.value(), std::move(second)).ok());
  ASSERT_EQ(dispatcher.status().queued, 6u);

  auto pulled = dispatcher.get_work(holder.value(), 1);
  ASSERT_TRUE(pulled.ok());
  ASSERT_EQ(pulled.value().size(), 1u);
  EXPECT_EQ(pulled.value()[0].id, TaskId{5});
  EXPECT_TRUE(pulled.value()[0].expect_cached);
  EXPECT_EQ(dispatcher.status().queued, 5u);

  std::uint64_t queued = 5;
  for (std::uint64_t expected : {1, 2, 3, 4, 6}) {
    auto work = dispatcher.get_work(cold.value(), 1);
    ASSERT_TRUE(work.ok());
    ASSERT_EQ(work.value().size(), 1u);
    EXPECT_EQ(work.value()[0].id, TaskId{expected});
    EXPECT_EQ(dispatcher.status().queued, --queued);
    ASSERT_TRUE(dispatcher
                    .deliver_results(cold.value(),
                                     {success_for(work.value()[0])}, 0)
                    .ok());
  }
  EXPECT_EQ(dispatcher.data_stats().stale_routes, 0u);
}

TEST_F(DispatcherTest, RestoreKeepsQueueOrderAndAttempts) {
  DispatcherConfig config;
  config.replay.max_retries = 2;
  Dispatcher dispatcher(clock_, config);
  DispatcherImage image;
  image.next_instance_id = 1;
  image.instances.push_back(InstanceImage{InstanceId{1}, ClientId{1}, 0, {}});
  // Attempts per task: 1 and 2 fresh, 3 and 4 out of retries, 5 fresh.
  const std::vector<int> attempts = {0, 0, 2, 2, 0};
  for (std::size_t i = 0; i < attempts.size(); ++i) {
    image.queue.push_back(QueuedTaskImage{
        InstanceId{1}, make_sleep_task(TaskId{i + 1}, 0.0), attempts[i]});
  }
  image.submitted = attempts.size();
  dispatcher.restore(image);
  EXPECT_EQ(dispatcher.status().queued, 5u);
  auto executor = dispatcher.register_executor(
      wire::RegisterRequest{}, std::make_shared<RecordingSink>());
  ASSERT_TRUE(executor.ok());

  // Every task fails once, in restored order.
  for (std::uint64_t expected = 1; expected <= 5; ++expected) {
    auto work = dispatcher.get_work(executor.value(), 1);
    ASSERT_TRUE(work.ok());
    ASSERT_EQ(work.value().size(), 1u);
    EXPECT_EQ(work.value()[0].id, TaskId{expected});
    TaskResult failure = success_for(work.value()[0]);
    failure.exit_code = 1;
    failure.state = TaskState::kFailed;
    ASSERT_TRUE(
        dispatcher.deliver_results(executor.value(), {failure}, 0).ok());
  }
  // Tasks 3 and 4 had no retry left and failed for good; 1, 2 and 5 were
  // retried and are back in the queue, in order.
  const auto status = dispatcher.status();
  EXPECT_EQ(status.failed, 2u);
  EXPECT_EQ(status.retried, 3u);
  EXPECT_EQ(status.queued, 3u);
  auto results = dispatcher.wait_results(InstanceId{1}, 10, 0.01);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results.value().size(), 2u);
  EXPECT_EQ(results.value()[0].task_id, TaskId{3});
  EXPECT_EQ(results.value()[1].task_id, TaskId{4});
  for (std::uint64_t expected : {1, 2, 5}) {
    auto work = dispatcher.get_work(executor.value(), 1);
    ASSERT_TRUE(work.ok());
    ASSERT_EQ(work.value().size(), 1u);
    EXPECT_EQ(work.value()[0].id, TaskId{expected});
    ASSERT_TRUE(dispatcher
                    .deliver_results(executor.value(),
                                     {success_for(work.value()[0])}, 0)
                    .ok());
  }
}

/// Journal whose on_submit parks until released. The hook runs under
/// inst_mu_ and queue_mu_, so while it is parked both locks are held.
struct ParkingJournal final : StateJournal {
  std::mutex mu;
  std::condition_variable cv;
  bool parked{false};
  bool released{false};

  void on_instance_created(InstanceId, ClientId) override {}
  void on_instance_destroyed(InstanceId) override {}
  void on_submit(InstanceId, std::uint64_t,
                 const std::vector<TaskSpec>&) override {
    std::unique_lock lock(mu);
    parked = true;
    cv.notify_all();
    cv.wait(lock, [&] { return released; });
  }
  void on_assign(ExecutorId, const std::vector<TaskId>&) override {}
  void on_requeue(const std::vector<TaskId>&, bool) override {}
  void on_complete(InstanceId, const TaskResult&, bool) override {}
  void on_delivered(InstanceId, const std::vector<TaskId>&) override {}
};

TEST(DispatcherLockWait, ContendedQueueAndInstanceLocksAreTimed) {
  ManualClock clock;
  obs::Obs obs;
  ParkingJournal journal;
  DispatcherConfig config;
  config.obs = &obs;
  config.journal = &journal;
  Dispatcher dispatcher(clock, config);
  auto instance = dispatcher.create_instance(ClientId{1});
  auto executor = dispatcher.register_executor(
      wire::RegisterRequest{}, std::make_shared<RecordingSink>());
  ASSERT_TRUE(instance.ok() && executor.ok());
  obs::Registry& registry = obs.registry();
  const auto& queue_wait =
      registry.histogram("falkon.dispatcher.queue_lock_wait_s", 1e-9, 1.0);
  const auto& inst_wait =
      registry.histogram("falkon.dispatcher.inst_lock_wait_s", 1e-9, 1.0);
  EXPECT_EQ(queue_wait.count(), 0u);
  EXPECT_EQ(inst_wait.count(), 0u);

  std::thread submitter([&] {
    EXPECT_TRUE(dispatcher.submit(instance.value(), sleep_tasks(1, 4)).ok());
  });
  {
    std::unique_lock lock(journal.mu);
    journal.cv.wait(lock, [&] { return journal.parked; });
  }
  // Both locks are held now: a pull waits on queue_mu_, and a new instance
  // on inst_mu_.
  std::atomic<int> started{0};
  std::thread puller([&] {
    started.fetch_add(1);
    auto work = dispatcher.get_work(executor.value(), 1);
    EXPECT_TRUE(work.ok());
  });
  std::thread creator([&] {
    started.fetch_add(1);
    EXPECT_TRUE(dispatcher.create_instance(ClientId{2}).ok());
  });
  while (started.load() < 2) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  {
    std::lock_guard lock(journal.mu);
    journal.released = true;
  }
  journal.cv.notify_all();
  submitter.join();
  puller.join();
  creator.join();
  EXPECT_GE(queue_wait.count(), 1u);
  EXPECT_GE(inst_wait.count(), 1u);
  // Entry-lock waits stay in their own histogram.
  EXPECT_EQ(
      registry.histogram("falkon.dispatcher.lock_wait_s", 1e-9, 1.0).count(),
      0u);
}

TEST_F(DispatcherTest, EstimateBalancedBundlingCapsRuntime) {
  DispatcherConfig config;
  config.max_tasks_per_dispatch = 10;
  config.max_bundle_runtime_s = 5.0;
  Dispatcher dispatcher(clock_, config);
  auto instance = dispatcher.create_instance(ClientId{1});
  wire::RegisterRequest reg;
  auto executor =
      dispatcher.register_executor(reg, std::make_shared<RecordingSink>());
  ASSERT_TRUE(instance.ok() && executor.ok());

  // Mixed durations: 2s, 2s, 2s, 9s, 1s ...
  std::vector<TaskSpec> tasks;
  for (double d : {2.0, 2.0, 2.0, 9.0, 1.0, 1.0}) {
    tasks.push_back(make_sleep_task(
        TaskId{static_cast<std::uint64_t>(tasks.size() + 1)}, d));
  }
  ASSERT_TRUE(dispatcher.submit(instance.value(), std::move(tasks)).ok());

  // First bundle: 2+2 = 4 <= 5, adding the third 2s task would hit 6 > 5.
  auto first = dispatcher.get_work(executor.value(), 10);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().size(), 2u);

  // A single oversized task is still dispatched alone (progress guarantee).
  std::vector<TaskResult> results;
  for (const auto& spec : first.value()) results.push_back(success_for(spec));
  ASSERT_TRUE(dispatcher.deliver_results(executor.value(), results, 0).ok());
  auto second = dispatcher.get_work(executor.value(), 10);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().size(), 1u);  // the lone 2s task (2+9 > 5)
  results.clear();
  results.push_back(success_for(second.value()[0]));
  ASSERT_TRUE(dispatcher.deliver_results(executor.value(), results, 0).ok());
  auto third = dispatcher.get_work(executor.value(), 10);
  ASSERT_TRUE(third.ok());
  ASSERT_EQ(third.value().size(), 1u);
  EXPECT_DOUBLE_EQ(third.value()[0].estimated_runtime_s, 9.0);
}

// ---- notification budget: wake only executors that will get a bundle ----

/// A dispatcher (adaptive cap 64, fixed bundles up to 8) whose executors
/// have each announced their pull size with an empty get-work, as a
/// starting executor's work loop does.
class NotifyBudgetTest : public ::testing::Test {
 protected:
  void start(int executors, std::uint32_t pull) {
    DispatcherConfig config;
    config.max_adaptive_bundle = 64;
    config.max_tasks_per_dispatch = 8;
    dispatcher_ = std::make_unique<Dispatcher>(clock_, config);
    auto instance = dispatcher_->create_instance(ClientId{1});
    ASSERT_TRUE(instance.ok());
    instance_ = instance.value();
    for (int e = 0; e < executors; ++e) {
      auto sink = std::make_shared<RecordingSink>();
      auto id = dispatcher_->register_executor(wire::RegisterRequest{}, sink);
      ASSERT_TRUE(id.ok());
      auto work = dispatcher_->get_work(id.value(), pull);
      ASSERT_TRUE(work.ok());
      ASSERT_TRUE(work.value().empty());
      executors_.push_back(id.value());
      sinks_.push_back(std::move(sink));
    }
  }

  void submit(std::uint64_t first_id, int count) {
    ASSERT_TRUE(
        dispatcher_->submit(instance_, sleep_tasks(first_id, count)).ok());
  }

  /// Notifications sent so far. The notify pool is asynchronous: wait for
  /// `expected`, then a little longer so that a surplus one would show.
  int notifications(int expected) {
    auto total = [&] {
      int n = 0;
      for (const auto& sink : sinks_) n += sink->notifications.load();
      return n;
    };
    for (int i = 0; i < 2000 && total() < expected; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return total();
  }

  ManualClock clock_;
  std::unique_ptr<Dispatcher> dispatcher_;
  InstanceId instance_;
  std::vector<ExecutorId> executors_;
  std::vector<std::shared_ptr<RecordingSink>> sinks_;
};

TEST_F(NotifyBudgetTest, ShallowSubmitWakesOneAdaptiveExecutor) {
  start(4, wire::kAdaptiveBundle);
  submit(1, 32);
  // One bundle's worth of work wakes one executor, not every idle one.
  EXPECT_EQ(notifications(1), 1);
  // The newest idle executor got it, and its pull takes the whole backlog.
  EXPECT_EQ(sinks_.back()->notifications.load(), 1);
  auto work = dispatcher_->get_work(executors_.back(), wire::kAdaptiveBundle);
  ASSERT_TRUE(work.ok());
  EXPECT_EQ(work.value().size(), 32u);
}

TEST_F(NotifyBudgetTest, CoveredWorkWakesNoOneElse) {
  start(4, wire::kAdaptiveBundle);
  submit(1, 32);
  ASSERT_EQ(notifications(1), 1);
  // Still within the woken executor's pull of 64: nobody else is woken.
  submit(33, 32);
  EXPECT_EQ(notifications(1), 1);
  // One task past it needs a second bundle, so a second executor.
  submit(65, 1);
  EXPECT_EQ(notifications(2), 2);
}

TEST_F(NotifyBudgetTest, DeepQueueWakesOneExecutorPerBundle) {
  start(8, wire::kAdaptiveBundle);
  submit(1, 200);
  // ceil(200 / 64) = 4: as many executors as adaptive sizing engages.
  EXPECT_EQ(notifications(4), 4);
}

TEST_F(NotifyBudgetTest, FixedBundlesWakeOneExecutorPerBundle) {
  start(4, 8);
  submit(1, 20);
  EXPECT_EQ(notifications(3), 3);  // ceil(20 / 8)
}

TEST_F(NotifyBudgetTest, PerTaskPullsWakeOneExecutorPerTask) {
  start(4, 1);
  submit(1, 3);
  EXPECT_EQ(notifications(3), 3);
}

TEST_F(NotifyBudgetTest, PullThatLeavesWorkBehindWakesTheNextExecutor) {
  start(2, wire::kAdaptiveBundle);
  submit(1, 32);
  ASSERT_EQ(notifications(1), 1);
  // The woken executor takes a single task this time; the 31 it leaves
  // queued must not wait for its next exchange.
  auto work = dispatcher_->get_work(executors_.back(), 1);
  ASSERT_TRUE(work.ok());
  ASSERT_EQ(work.value().size(), 1u);
  EXPECT_EQ(notifications(2), 2);
  EXPECT_EQ(sinks_.front()->notifications.load(), 1);
}

TEST_F(NotifyBudgetTest, AdaptiveBundlesKeepFifoOrderAcrossExecutors) {
  start(2, wire::kAdaptiveBundle);
  submit(1, 200);
  // Every pull takes the next run of the queue: no bundle is set aside for
  // an executor's later exchange, so the second executor starts at 65.
  std::uint64_t next_id = 1;
  auto pull = [&](ExecutorId executor) {
    auto work = dispatcher_->get_work(executor, wire::kAdaptiveBundle);
    EXPECT_TRUE(work.ok());
    std::vector<std::uint64_t> ids;
    for (const auto& spec : work.value()) ids.push_back(spec.id.value);
    std::vector<std::uint64_t> expected(ids.size());
    std::iota(expected.begin(), expected.end(), next_id);
    EXPECT_EQ(ids, expected);
    next_id += ids.size();
    return ids.size();
  };
  EXPECT_EQ(pull(executors_[0]), 64u);
  EXPECT_EQ(pull(executors_[1]), 64u);
  EXPECT_EQ(next_id, 129u);
  // status().queued is exactly what later pulls can take.
  const std::uint64_t queued = dispatcher_->status().queued;
  EXPECT_EQ(queued, 72u);
  std::uint64_t taken = 0;
  for (std::size_t got = 1; got > 0;) {
    got = pull(executors_[0]) + pull(executors_[1]);
    taken += got;
  }
  EXPECT_EQ(taken, queued);
  EXPECT_EQ(next_id, 201u);
  EXPECT_EQ(dispatcher_->status().queued, 0u);
}

TEST_F(NotifyBudgetTest, DeregisteredNotifiedExecutorHandsItsWorkOn) {
  start(2, wire::kAdaptiveBundle);
  submit(1, 32);
  ASSERT_EQ(notifications(1), 1);
  // The woken executor leaves before pulling: its promise must not keep
  // the work from the executor still idle.
  ASSERT_TRUE(dispatcher_->deregister_executor(executors_.back(), "gone").ok());
  EXPECT_EQ(notifications(2), 2);
  EXPECT_EQ(sinks_.front()->notifications.load(), 1);
  auto work = dispatcher_->get_work(executors_.front(), wire::kAdaptiveBundle);
  ASSERT_TRUE(work.ok());
  EXPECT_EQ(work.value().size(), 32u);
}

/// Property sweep: N tasks through E executors with piggy-backing; every
/// task completes exactly once, in any interleaving.
class DispatcherExactlyOnce
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DispatcherExactlyOnce, AllTasksCompleteExactlyOnce) {
  const auto [task_count, executor_count] = GetParam();
  ManualClock clock;
  Dispatcher dispatcher(clock, DispatcherConfig{});
  auto instance = dispatcher.create_instance(ClientId{1});
  ASSERT_TRUE(instance.ok());

  std::vector<ExecutorId> executors;
  for (int e = 0; e < executor_count; ++e) {
    wire::RegisterRequest reg;
    auto id = dispatcher.register_executor(reg, std::make_shared<RecordingSink>());
    ASSERT_TRUE(id.ok());
    executors.push_back(id.value());
  }
  ASSERT_TRUE(dispatcher.submit(instance.value(),
                                sleep_tasks(1, task_count)).ok());

  // Round-robin executors through get-work/deliver with piggy-backing.
  std::map<std::uint64_t, int> completions;
  int remaining = task_count;
  std::vector<std::vector<TaskSpec>> holding(executors.size());
  std::size_t turn = 0;
  int guard = task_count * 10 + 100;
  while (remaining > 0 && guard-- > 0) {
    const std::size_t e = turn++ % executors.size();
    if (holding[e].empty()) {
      auto work = dispatcher.get_work(executors[e], 1);
      ASSERT_TRUE(work.ok());
      holding[e] = work.take();
      if (holding[e].empty()) continue;
    }
    std::vector<TaskResult> results;
    for (auto& spec : holding[e]) {
      ++completions[spec.id.value];
      results.push_back(success_for(spec));
      --remaining;
    }
    holding[e].clear();
    auto ack = dispatcher.deliver_results(executors[e], std::move(results), 1);
    ASSERT_TRUE(ack.ok());
    holding[e] = std::move(ack.value().piggyback);
  }
  ASSERT_EQ(remaining, 0);
  EXPECT_EQ(completions.size(), static_cast<std::size_t>(task_count));
  for (const auto& [task, count] : completions) {
    EXPECT_EQ(count, 1) << "task " << task;
  }
  EXPECT_EQ(dispatcher.status().completed,
            static_cast<std::uint64_t>(task_count));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DispatcherExactlyOnce,
    ::testing::Combine(::testing::Values(1, 16, 128, 1000),
                       ::testing::Values(1, 4, 32)));

// ---- batched routing + push-mode result streaming ----

/// ClientSink double recording edge-triggered notifies {8} and pushed
/// ResultStream batches; `accept` false makes deliver() refuse the batch
/// (no subscriber for the instance key), which must drop the instance back
/// to polling.
struct RecordingClientSink final : ClientSink {
  std::mutex mu;
  std::condition_variable cv;
  int notifies{0};
  bool accept{true};
  std::vector<std::pair<std::uint64_t, std::size_t>> batches;  // seq, count
  std::size_t streamed{0};
  std::thread::id pushed_by;  // thread of the last accepted deliver()

  void notify(InstanceId, std::uint64_t) override {
    std::lock_guard lock(mu);
    ++notifies;
    cv.notify_all();
  }
  bool deliver(InstanceId, std::uint64_t seq,
               std::vector<TaskResult> results) override {
    std::lock_guard lock(mu);
    if (!accept) return false;
    batches.emplace_back(seq, results.size());
    streamed += results.size();
    pushed_by = std::this_thread::get_id();
    cv.notify_all();
    return true;
  }
  bool wait_notifies(int n, double timeout_s = 5.0) {
    std::unique_lock lock(mu);
    return cv.wait_for(lock, std::chrono::duration<double>(timeout_s),
                       [&] { return notifies >= n; });
  }
  bool wait_streamed(std::size_t n, double timeout_s = 5.0) {
    std::unique_lock lock(mu);
    return cv.wait_for(lock, std::chrono::duration<double>(timeout_s),
                       [&] { return streamed >= n; });
  }
};

class DispatcherStreamingTest : public DispatcherTest {
 protected:
  DispatcherStreamingTest() : client_sink_(std::make_shared<RecordingClientSink>()) {
    dispatcher_.set_client_sink(client_sink_);
  }

  /// Pull `count` tasks and deliver their results as one bundle — the
  /// batched route_all path.
  void complete_tasks(ExecutorId executor, int count) {
    std::vector<TaskResult> results;
    for (int i = 0; i < count; ++i) {
      auto work = dispatcher_.get_work(executor, 1);
      ASSERT_TRUE(work.ok());
      ASSERT_EQ(work.value().size(), 1u);
      results.push_back(success_for(work.value()[0]));
    }
    ASSERT_TRUE(dispatcher_.deliver_results(executor, results, 0).ok());
  }

  std::shared_ptr<RecordingClientSink> client_sink_;
};

TEST_F(DispatcherStreamingTest, BundleRoutesAsOneNotify) {
  const InstanceId instance = make_instance();
  const ExecutorId executor = add_executor();
  ASSERT_TRUE(dispatcher_.submit(instance, sleep_tasks(1, 3)).ok());
  // Three results in one ResultBundle: one mailbox append, one
  // edge-triggered notify — not three.
  complete_tasks(executor, 3);
  ASSERT_TRUE(client_sink_->wait_notifies(1));
  auto results = dispatcher_.wait_results(instance, 10, 0.0);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results.value().size(), 3u);
  {
    std::lock_guard lock(client_sink_->mu);
    EXPECT_EQ(client_sink_->notifies, 1);
  }
}

TEST_F(DispatcherStreamingTest, EdgeTriggeredNotifyRearmsAfterDrain) {
  const InstanceId instance = make_instance();
  const ExecutorId executor = add_executor();
  ASSERT_TRUE(dispatcher_.submit(instance, sleep_tasks(1, 3)).ok());

  complete_tasks(executor, 1);
  ASSERT_TRUE(client_sink_->wait_notifies(1));
  // A second landing on a non-empty mailbox is edge-suppressed.
  complete_tasks(executor, 1);
  auto results = dispatcher_.wait_results(instance, 10, 1.0);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results.value().size(), 2u);
  {
    std::lock_guard lock(client_sink_->mu);
    EXPECT_EQ(client_sink_->notifies, 1);
  }
  // The lost-wakeup regression: a result landing right after the drain
  // (mailbox just went empty) must re-fire the notify, or a remote client
  // parks on its listener forever.
  complete_tasks(executor, 1);
  ASSERT_TRUE(client_sink_->wait_notifies(2));
  results = dispatcher_.wait_results(instance, 10, 1.0);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results.value().size(), 1u);
}

TEST_F(DispatcherStreamingTest, SubscribeStreamsAcksAndRearms) {
  const InstanceId instance = make_instance();
  const ExecutorId executor = add_executor();
  auto cursor = dispatcher_.subscribe_results(instance, 0);
  ASSERT_TRUE(cursor.ok());
  EXPECT_EQ(cursor.value(), 0u);

  ASSERT_TRUE(dispatcher_.submit(instance, sleep_tasks(1, 3)).ok());
  complete_tasks(executor, 3);
  ASSERT_TRUE(client_sink_->wait_streamed(3));
  {
    std::lock_guard lock(client_sink_->mu);
    // Cumulative seq: the last batch's seq equals the total streamed.
    EXPECT_EQ(client_sink_->batches.back().first, client_sink_->streamed);
    EXPECT_EQ(client_sink_->notifies, 0);  // streaming replaces notify
  }

  // Un-acked results stay in the mailbox; the cumulative ack drops them.
  cursor = dispatcher_.subscribe_results(instance, 3);
  ASSERT_TRUE(cursor.ok());
  EXPECT_EQ(cursor.value(), 3u);
  auto polled = dispatcher_.wait_results(instance, 10, 0.0);
  ASSERT_TRUE(polled.ok());
  EXPECT_TRUE(polled.value().empty());

  // The drain stays armed: the next completion streams without any new
  // subscribe call.
  ASSERT_TRUE(dispatcher_.submit(instance, sleep_tasks(10, 1)).ok());
  complete_tasks(executor, 1);
  ASSERT_TRUE(client_sink_->wait_streamed(4));
}

TEST_F(DispatcherStreamingTest, RejectedPushFallsBackToPolling) {
  const InstanceId instance = make_instance();
  const ExecutorId executor = add_executor();
  {
    std::lock_guard lock(client_sink_->mu);
    client_sink_->accept = false;
  }
  ASSERT_TRUE(dispatcher_.subscribe_results(instance, 0).ok());
  ASSERT_TRUE(dispatcher_.submit(instance, sleep_tasks(1, 2)).ok());
  complete_tasks(executor, 2);
  // deliver() refused the batch: the cursor rolled back and every result
  // is still poll-able — nothing lost, nothing duplicated.
  auto polled = dispatcher_.wait_results(instance, 10, 5.0);
  ASSERT_TRUE(polled.ok());
  EXPECT_EQ(polled.value().size(), 2u);
  polled = dispatcher_.wait_results(instance, 10, 0.0);
  ASSERT_TRUE(polled.ok());
  EXPECT_TRUE(polled.value().empty());
}

TEST_F(DispatcherStreamingTest, PollOnStreamingInstanceStaysExactlyOnce) {
  const InstanceId instance = make_instance();
  const ExecutorId executor = add_executor();
  ASSERT_TRUE(dispatcher_.subscribe_results(instance, 0).ok());
  ASSERT_TRUE(dispatcher_.submit(instance, sleep_tasks(1, 2)).ok());
  complete_tasks(executor, 2);
  ASSERT_TRUE(client_sink_->wait_streamed(2));

  // Streamed but un-acked: the firewall-mode poll takes over and returns
  // the same two results (the client's task-id filter absorbs the overlap).
  auto polled = dispatcher_.wait_results(instance, 10, 0.0);
  ASSERT_TRUE(polled.ok());
  EXPECT_EQ(polled.value().size(), 2u);
  // A stale ack from before the poll must not discard anything.
  auto cursor = dispatcher_.subscribe_results(instance, 2);
  ASSERT_TRUE(cursor.ok());
  polled = dispatcher_.wait_results(instance, 10, 0.0);
  ASSERT_TRUE(polled.ok());
  EXPECT_TRUE(polled.value().empty());

  // Still streaming: the next completion is pushed again.
  ASSERT_TRUE(dispatcher_.submit(instance, sleep_tasks(10, 1)).ok());
  complete_tasks(executor, 1);
  ASSERT_TRUE(client_sink_->wait_streamed(3));
}

TEST_F(DispatcherStreamingTest, UnfillableFrameStreamsOnTheDeliveringThread) {
  const InstanceId instance = make_instance();
  const ExecutorId executor = add_executor();
  ASSERT_TRUE(dispatcher_.subscribe_results(instance, 0).ok());
  ASSERT_TRUE(dispatcher_.submit(instance, sleep_tasks(1, 3)).ok());
  // Nothing else is queued or running, so no later result could fill the
  // frame: it is pushed before deliver_results returns, with no coalescing
  // wait and no hop to the notify pool.
  complete_tasks(executor, 3);
  std::lock_guard lock(client_sink_->mu);
  EXPECT_EQ(client_sink_->streamed, 3u);
  EXPECT_EQ(client_sink_->batches.size(), 1u);
  EXPECT_EQ(client_sink_->pushed_by, std::this_thread::get_id());
}

TEST_F(DispatcherStreamingTest, FillableBacklogWaitsForAFullerFrame) {
  const InstanceId instance = make_instance();
  const ExecutorId executor = add_executor();
  ASSERT_TRUE(dispatcher_.subscribe_results(instance, 0).ok());
  // 2000 tasks out: a 100-result backlog can still grow to a full frame,
  // so the delivering thread leaves it to the pool's coalescing flush.
  ASSERT_TRUE(dispatcher_.submit(instance, sleep_tasks(1, 2000)).ok());
  auto work = dispatcher_.get_work(executor, wire::kAdaptiveBundle);
  ASSERT_TRUE(work.ok());
  ASSERT_GE(work.value().size(), 100u);
  std::vector<TaskResult> results;
  for (std::size_t i = 0; i < 100; ++i) {
    results.push_back(success_for(work.value()[i]));
  }
  ASSERT_TRUE(dispatcher_.deliver_results(executor, results, 0).ok());
  // No more results arrive: the coalescing window lapses and the pool
  // flushes the tail anyway.
  ASSERT_TRUE(client_sink_->wait_streamed(100));
  std::lock_guard lock(client_sink_->mu);
  EXPECT_EQ(client_sink_->batches.size(), 1u);
  EXPECT_NE(client_sink_->pushed_by, std::this_thread::get_id());
}

}  // namespace
}  // namespace falkon::core
