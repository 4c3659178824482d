// End-to-end tests over real TCP on loopback: dispatcher server, remote
// executors (RPC pull + pushed notifications on the same connection), and
// remote client. All servers bind port 0 (ephemeral), so the binary is safe
// under parallel ctest.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "common/clock.h"
#include "core/client.h"
#include "core/service_tcp.h"
#include "fault/fault.h"
#include "net/rpc.h"
#include "obs/obs.h"

namespace falkon::core {
namespace {

std::vector<TaskSpec> sleep_tasks(int count) {
  std::vector<TaskSpec> tasks;
  for (int i = 1; i <= count; ++i) {
    tasks.push_back(make_sleep_task(TaskId{static_cast<std::uint64_t>(i)}, 0.0));
  }
  return tasks;
}

class TcpStackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dispatcher_ = std::make_unique<Dispatcher>(clock_, DispatcherConfig{});
    server_ = std::make_unique<TcpDispatcherServer>(*dispatcher_);
    ASSERT_TRUE(server_->start().ok());
  }

  void TearDown() override {
    executors_.clear();
    server_->stop();
  }

  void add_executor(ExecutorOptions options = {}) {
    auto harness = std::make_unique<TcpExecutorHarness>(
        clock_, "127.0.0.1", server_->rpc_port(),
        std::make_unique<NoopEngine>(), options);
    ASSERT_TRUE(harness->start().ok());
    executors_.push_back(std::move(harness));
  }

  RealClock clock_;
  std::unique_ptr<Dispatcher> dispatcher_;
  std::unique_ptr<TcpDispatcherServer> server_;
  std::vector<std::unique_ptr<TcpExecutorHarness>> executors_;
};

TEST_F(TcpStackTest, RemoteClientRoundtrip) {
  add_executor();
  auto client = TcpDispatcherClient::connect("127.0.0.1", server_->rpc_port());
  ASSERT_TRUE(client.ok());

  auto session = FalkonSession::open(*client.value(), ClientId{1});
  ASSERT_TRUE(session.ok());
  auto results = session.value()->run(sleep_tasks(20), 30.0);
  ASSERT_TRUE(results.ok()) << results.error().str();
  EXPECT_EQ(results.value().size(), 20u);
  for (const auto& result : results.value()) EXPECT_TRUE(result.success());
}

TEST_F(TcpStackTest, MultipleRemoteExecutors) {
  for (int i = 0; i < 4; ++i) add_executor();
  auto client = TcpDispatcherClient::connect("127.0.0.1", server_->rpc_port());
  ASSERT_TRUE(client.ok());
  auto status = client.value()->status();
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value().registered_executors, 4u);

  auto session = FalkonSession::open(*client.value(), ClientId{1});
  ASSERT_TRUE(session.ok());
  auto results = session.value()->run(sleep_tasks(200), 30.0);
  ASSERT_TRUE(results.ok()) << results.error().str();
  std::set<std::uint64_t> ids;
  for (const auto& result : results.value()) ids.insert(result.task_id.value);
  EXPECT_EQ(ids.size(), 200u);
}

TEST_F(TcpStackTest, WorkSubmittedBeforeExecutorArrives) {
  auto client = TcpDispatcherClient::connect("127.0.0.1", server_->rpc_port());
  ASSERT_TRUE(client.ok());
  auto session = FalkonSession::open(*client.value(), ClientId{1});
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session.value()->submit(sleep_tasks(10)).ok());

  // No executor yet: nothing completes.
  auto early = session.value()->wait(1, 0.1);
  EXPECT_FALSE(early.ok());

  add_executor();  // registration triggers notification pump
  auto results = session.value()->wait(10, 30.0);
  ASSERT_TRUE(results.ok()) << results.error().str();
  EXPECT_EQ(results.value().size(), 10u);
}

TEST_F(TcpStackTest, ExecutorIdleTimeoutDeregistersOverTcp) {
  ExecutorOptions options;
  options.idle_timeout_s = 0.05;
  add_executor(options);
  auto client = TcpDispatcherClient::connect("127.0.0.1", server_->rpc_port());
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 200; ++i) {
    auto status = client.value()->status();
    ASSERT_TRUE(status.ok());
    if (status.value().registered_executors == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  auto status = client.value()->status();
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value().registered_executors, 0u);
}

TEST_F(TcpStackTest, ErrorsPropagateToRemoteClient) {
  auto client = TcpDispatcherClient::connect("127.0.0.1", server_->rpc_port());
  ASSERT_TRUE(client.ok());
  auto bogus = client.value()->submit(InstanceId{999}, sleep_tasks(1));
  ASSERT_FALSE(bogus.ok());
  EXPECT_EQ(bogus.error().code, ErrorCode::kNotFound);
}

TEST_F(TcpStackTest, ClientNotificationsArriveOnResultDelivery) {
  add_executor();
  auto client = TcpDispatcherClient::connect("127.0.0.1", server_->rpc_port());
  ASSERT_TRUE(client.ok());
  auto instance = client.value()->create_instance(ClientId{1});
  ASSERT_TRUE(instance.ok());

  // A peer subscribes the instance key on its own connection and gets
  // ClientNotify {8} frames there.
  std::mutex mu;
  std::condition_variable cv;
  std::uint64_t last_ready = 0;
  auto listener = net::RpcClient::connect("127.0.0.1", server_->rpc_port());
  ASSERT_TRUE(listener.ok());
  ASSERT_TRUE(listener.value()
                  .subscribe(kClientKeyBase + instance.value().value,
                             [&](wire::Message message) {
                               const auto* notify =
                                   std::get_if<wire::ClientNotify>(&message);
                               if (notify == nullptr) return;
                               std::lock_guard lock(mu);
                               last_ready =
                                   std::max(last_ready, notify->completed);
                               cv.notify_all();
                             })
                  .ok());
  // A call behind the subscription proves it is bound.
  ASSERT_TRUE(listener.value().call(wire::StatusRequest{}).ok());

  ASSERT_TRUE(client.value()->submit(instance.value(), sleep_tasks(5)).ok());
  {
    std::unique_lock lock(mu);
    cv.wait_for(lock, std::chrono::seconds(5), [&] { return last_ready > 0; });
    EXPECT_GT(last_ready, 0u);
  }
  // Notification-driven pick-up: results are already there, zero timeout.
  auto results = client.value()->wait_results(instance.value(), 10, 0.0);
  ASSERT_TRUE(results.ok());
  EXPECT_FALSE(results.value().empty());
}

TEST_F(TcpStackTest, PollingModeExecutorNeedsNoNotifications) {
  // Firewall-bypass mode (paper section 6): executor makes only outbound
  // RPC calls — it never subscribes for notifications.
  ExecutorOptions options;
  options.poll_interval_s = 0.01;
  add_executor(options);
  auto client = TcpDispatcherClient::connect("127.0.0.1", server_->rpc_port());
  ASSERT_TRUE(client.ok());
  auto session = FalkonSession::open(*client.value(), ClientId{1});
  ASSERT_TRUE(session.ok());
  auto results = session.value()->run(sleep_tasks(30), 30.0);
  ASSERT_TRUE(results.ok()) << results.error().str();
  EXPECT_EQ(results.value().size(), 30u);
}

TEST_F(TcpStackTest, PollingModeIdleTimeoutStillReleases) {
  ExecutorOptions options;
  options.poll_interval_s = 0.01;
  options.idle_timeout_s = 0.06;
  add_executor(options);
  auto client = TcpDispatcherClient::connect("127.0.0.1", server_->rpc_port());
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 200; ++i) {
    auto status = client.value()->status();
    ASSERT_TRUE(status.ok());
    if (status.value().registered_executors == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  auto status = client.value()->status();
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value().registered_executors, 0u);
}

TEST_F(TcpStackTest, ServerStopSurvivesActiveExecutors) {
  add_executor();
  add_executor();
  // Tear-down order in TearDown() stops executors before the server; this
  // test instead stops the server first and expects no crash/hang.
  server_->stop();
  executors_.clear();
  SUCCEED();
}

// ---- wire-level bundle-path regressions ------------------------------
//
// These speak the protocol with a raw net::RpcClient instead of the
// harness, so they can act as misbehaving or down-level peers.

namespace {

/// Raw call that must produce a reply of type `Expected`.
template <class Expected>
Expected call_expect(net::RpcClient& rpc, const wire::Message& request) {
  auto reply = rpc.call(request);
  EXPECT_TRUE(reply.ok()) << reply.error().str();
  if (!reply.ok()) return Expected{};
  auto* payload = std::get_if<Expected>(&reply.value());
  EXPECT_NE(payload, nullptr)
      << "unexpected reply: " << wire::debug_summary(reply.value());
  if (payload == nullptr) return Expected{};
  return std::move(*payload);
}

}  // namespace

TEST(TcpBundleRegression, ExecutorCrashMidBundleRequeuesItsTasks) {
  // An executor that takes a TaskBundle and dies before delivering its
  // results must not take the tasks with it: the failure detector removes
  // it and every task of the bundle goes back on the queue.
  RealClock clock;
  DispatcherConfig config;
  config.piggyback = true;
  config.max_tasks_per_dispatch = 4;  // the whole submit in one bundle
  config.heartbeat_timeout_s = 0.05;  // detector run manually below
  Dispatcher dispatcher(clock, config);
  TcpDispatcherServer server(dispatcher);
  ASSERT_TRUE(server.start().ok());

  auto raw = net::RpcClient::connect("127.0.0.1", server.rpc_port());
  ASSERT_TRUE(raw.ok());

  wire::RegisterRequest reg;
  reg.node_id = NodeId{1};
  reg.host = "crash-peer";
  const ExecutorId executor =
      call_expect<wire::RegisterReply>(raw.value(), reg).executor_id;
  ASSERT_NE(executor.value, 0u);

  const InstanceId instance =
      call_expect<wire::CreateInstanceReply>(
          raw.value(), wire::CreateInstanceRequest{ClientId{1}})
          .instance_id;
  wire::SubmitRequest submit;
  submit.instance_id = instance;
  submit.tasks = sleep_tasks(4);
  call_expect<wire::SubmitReply>(raw.value(), submit);

  // Pull a bundle (empty delivery, want-tasks piggyback) and then crash
  // without ever delivering its results.
  wire::ResultBundle pull;
  pull.executor_id = executor;
  pull.want_tasks = 4;
  const wire::TaskBundle bundle =
      call_expect<wire::TaskBundle>(raw.value(), pull);
  ASSERT_EQ(bundle.tasks.size(), 4u);
  EXPECT_EQ(dispatcher.status().dispatched, 4u);

  raw.value().close();  // crash: no results, no deregister
  for (int i = 0; i < 200; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    dispatcher.check_liveness();
    if (dispatcher.status().registered_executors == 0) break;
  }
  EXPECT_EQ(dispatcher.status().registered_executors, 0u);

  // Removal emptied the executor's in-flight set back into the queue.
  EXPECT_EQ(dispatcher.status().dispatched, 0u);
  EXPECT_EQ(dispatcher.status().queued, 4u);

  server.stop();
  dispatcher.shutdown();
}

TEST(TcpBundleRegression, AdaptiveSentinelsServeARawWirePeer) {
  // A peer speaking the raw wire asks for adaptive sizing on both
  // executor exchanges: max_tasks = kAdaptiveBundle on GetWorkRequest and
  // want_tasks = kAdaptiveWant on ResultBundle must yield work until every
  // task is done, each result acknowledged by its TaskBundle.
  RealClock clock;
  DispatcherConfig config;
  config.piggyback = true;
  Dispatcher dispatcher(clock, config);
  TcpDispatcherServer server(dispatcher);
  ASSERT_TRUE(server.start().ok());

  auto raw = net::RpcClient::connect("127.0.0.1", server.rpc_port());
  ASSERT_TRUE(raw.ok());

  wire::RegisterRequest reg;
  reg.node_id = NodeId{7};
  reg.host = "raw-peer";
  const ExecutorId executor =
      call_expect<wire::RegisterReply>(raw.value(), reg).executor_id;

  const InstanceId instance =
      call_expect<wire::CreateInstanceReply>(
          raw.value(), wire::CreateInstanceRequest{ClientId{1}})
          .instance_id;
  constexpr int kTasks = 12;
  wire::SubmitRequest submit;
  submit.instance_id = instance;
  submit.tasks = sleep_tasks(kTasks);
  call_expect<wire::SubmitReply>(raw.value(), submit);

  wire::GetWorkRequest get_work;
  get_work.executor_id = executor;
  get_work.max_tasks = wire::kAdaptiveBundle;  // sentinel, not literal zero
  std::vector<TaskSpec> pending =
      call_expect<wire::GetWorkReply>(raw.value(), get_work).tasks;
  ASSERT_FALSE(pending.empty());

  std::set<std::uint64_t> done;
  while (!pending.empty()) {
    wire::ResultBundle deliver;
    deliver.executor_id = executor;
    deliver.want_tasks = wire::kAdaptiveWant;
    for (const TaskSpec& spec : pending) {
      TaskResult result;
      result.task_id = spec.id;
      result.executor_id = executor;
      deliver.results.push_back(std::move(result));
      done.insert(spec.id.value);
    }
    const wire::TaskBundle reply =
        call_expect<wire::TaskBundle>(raw.value(), deliver);
    EXPECT_EQ(reply.acknowledged, deliver.results.size());
    pending = reply.tasks;
    if (pending.empty() && done.size() < static_cast<std::size_t>(kTasks)) {
      // Adaptive piggyback may momentarily come back empty; pull again.
      pending = call_expect<wire::GetWorkReply>(raw.value(), get_work).tasks;
    }
  }
  EXPECT_EQ(done.size(), static_cast<std::size_t>(kTasks));
  EXPECT_EQ(dispatcher.status().completed, static_cast<std::uint64_t>(kTasks));

  wire::WaitResultsRequest wait;
  wait.instance_id = instance;
  wait.max_results = 64;
  wait.timeout_s = 5.0;
  const wire::WaitResultsReply results =
      call_expect<wire::WaitResultsReply>(raw.value(), wait);
  EXPECT_EQ(results.results.size(), static_cast<std::size_t>(kTasks));

  server.stop();
  dispatcher.shutdown();
}

// ---- push-mode result streaming ---------------------------------------

TEST_F(TcpStackTest, StreamingClientReceivesResultsExactlyOnce) {
  add_executor();
  auto client = TcpDispatcherClient::connect("127.0.0.1", server_->rpc_port(),
                                             /*stream=*/true);
  ASSERT_TRUE(client.ok());
  auto instance = client.value()->create_instance(ClientId{1});
  ASSERT_TRUE(instance.ok());
  // The third connect argument subscribed the instance for streaming.
  EXPECT_TRUE(client.value()->streaming(instance.value()));

  ASSERT_TRUE(client.value()->submit(instance.value(), sleep_tasks(50)).ok());
  // The exactly-once filter holds the tasks in flight, not the history.
  EXPECT_EQ(client.value()->outstanding(instance.value()), 50u);
  std::set<std::uint64_t> ids;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (ids.size() < 50 && std::chrono::steady_clock::now() < deadline) {
    auto batch = client.value()->wait_results(instance.value(), 64, 0.5);
    ASSERT_TRUE(batch.ok()) << batch.error().str();
    for (const auto& result : batch.value()) {
      EXPECT_TRUE(ids.insert(result.task_id.value).second)
          << "duplicate task " << result.task_id.value;
    }
  }
  EXPECT_EQ(ids.size(), 50u);
  EXPECT_EQ(client.value()->outstanding(instance.value()), 0u);
  EXPECT_TRUE(client.value()->streaming(instance.value()));
  EXPECT_TRUE(client.value()->destroy_instance(instance.value()).ok());
}

TEST_F(TcpStackTest, StreamingSessionRunCompletes) {
  for (int i = 0; i < 2; ++i) add_executor();
  auto client = TcpDispatcherClient::connect("127.0.0.1", server_->rpc_port(),
                                             /*stream=*/true);
  ASSERT_TRUE(client.ok());
  auto session = FalkonSession::open(*client.value(), ClientId{1});
  ASSERT_TRUE(session.ok());
  auto results = session.value()->run(sleep_tasks(200), 30.0);
  ASSERT_TRUE(results.ok()) << results.error().str();
  std::set<std::uint64_t> ids;
  for (const auto& result : results.value()) ids.insert(result.task_id.value);
  EXPECT_EQ(ids.size(), 200u);
}

wire::ResultStream stream_frame(std::uint64_t seq, std::uint64_t first_id,
                                int count) {
  wire::ResultStream frame;
  frame.instance_id = InstanceId{1};
  frame.seq = seq;
  for (int i = 0; i < count; ++i) {
    TaskResult result;
    result.task_id = TaskId{first_id + static_cast<std::uint64_t>(i)};
    frame.results.push_back(result);
  }
  return frame;
}

TEST(StreamReceiver, AcksInBatchesAndRearmsFromZeroAfterAGap) {
  StreamReceiver receiver;
  std::vector<std::uint64_t> sent;  // ack_seq of every SubscribeResults
  const StreamReceiver::Subscribe subscribe = [&](std::uint64_t ack_seq) {
    sent.push_back(ack_seq);
    return true;
  };
  // Contiguous frames below the ack batch: results flow, no round trip.
  receiver.on_frame(stream_frame(2, 1, 2));
  receiver.on_frame(stream_frame(4, 3, 2));
  EXPECT_EQ(receiver.take(64, 0.0, subscribe).size(), 4u);
  EXPECT_TRUE(sent.empty());
  // A full ack batch is acknowledged cumulatively, once.
  receiver.on_frame(stream_frame(8196, 5, 8192));
  EXPECT_EQ(receiver.take(10000, 0.0, subscribe).size(), 8192u);
  EXPECT_EQ(sent, (std::vector<std::uint64_t>{8196}));
  // A gap (seq jumps past the results received) keeps the results, acks
  // only up to the last contiguous frame, then re-arms from zero.
  sent.clear();
  receiver.on_frame(stream_frame(8198, 8197, 2));
  receiver.on_frame(stream_frame(8210, 8199, 2));
  EXPECT_EQ(receiver.take(64, 0.0, subscribe).size(), 4u);
  EXPECT_EQ(sent, (std::vector<std::uint64_t>{8198, 0}));
  // After the re-arm the dispatcher's re-stream starts again at seq 1.
  sent.clear();
  receiver.on_frame(stream_frame(2, 8199, 2));
  EXPECT_EQ(receiver.take(64, 0.0, subscribe).size(), 2u);
  EXPECT_TRUE(sent.empty());
}

TEST(TcpShallowQueue, OneWakeOneExchangeOneFramePerBundle) {
  // A shallow queue over the real stack: four idle adaptive executors and
  // a streaming client submitting one 32-task bundle at a time. Each round
  // must wake exactly one executor, draw no empty get-work (the others stay
  // asleep, and the worker's empty ack ends its pull), and come back as one
  // ResultStream frame pushed at once.
  RealClock clock;
  obs::Obs obs{obs::ObsConfig{}};
  DispatcherConfig config;
  config.obs = &obs;
  Dispatcher dispatcher(clock, config);
  TcpDispatcherServer server(dispatcher, &obs);
  ASSERT_TRUE(server.start().ok());
  std::vector<std::unique_ptr<TcpExecutorHarness>> fleet;
  for (int e = 0; e < 4; ++e) {
    ExecutorOptions options;
    options.adaptive_bundle = true;
    options.takeover_probe_s = 0.0;
    options.obs = &obs;
    fleet.push_back(std::make_unique<TcpExecutorHarness>(
        clock, "127.0.0.1", server.rpc_port(),
        std::make_unique<NoopEngine>(), options));
    ASSERT_TRUE(fleet.back()->start().ok());
  }
  obs::Registry& reg = obs.registry();
  auto& empty_polls = reg.counter("falkon.executor.empty_polls");
  // Each executor's start-up pull finds the queue empty.
  for (int i = 0; i < 1000 && empty_polls.value() < 4; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(empty_polls.value(), 4u);

  auto client = TcpDispatcherClient::connect("127.0.0.1", server.rpc_port(),
                                             /*stream=*/true);
  ASSERT_TRUE(client.ok());
  auto instance = client.value()->create_instance(ClientId{1});
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE(client.value()->streaming(instance.value()));

  constexpr int kRounds = 20;
  constexpr int kBundle = 32;
  std::uint64_t next = 1;
  std::set<std::uint64_t> ids;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<TaskSpec> tasks;
    for (int i = 0; i < kBundle; ++i) {
      tasks.push_back(make_sleep_task(TaskId{next++}, 0.0));
    }
    ASSERT_TRUE(client.value()->submit(instance.value(), tasks).ok());
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (ids.size() < next - 1 &&
           std::chrono::steady_clock::now() < deadline) {
      auto batch = client.value()->wait_results(instance.value(), 64, 0.5);
      ASSERT_TRUE(batch.ok()) << batch.error().str();
      for (const auto& result : batch.value()) ids.insert(result.task_id.value);
    }
    ASSERT_EQ(ids.size(), next - 1) << "round " << round;
  }
  EXPECT_EQ(reg.counter("falkon.dispatcher.notifications").value(),
            static_cast<std::uint64_t>(kRounds));
  EXPECT_EQ(empty_polls.value(), 4u);
  // The frame counter ticks after the push returns, which can trail the
  // client's receipt of the last frame.
  auto& frames = reg.counter("falkon.dispatcher.stream.frames");
  for (int i = 0; i < 1000 && frames.value() < kRounds; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(frames.value(), static_cast<std::uint64_t>(kRounds));
  EXPECT_TRUE(client.value()->destroy_instance(instance.value()).ok());
  fleet.clear();
  server.stop();
  dispatcher.shutdown();
}

TEST(TcpStreamingFault, DroppedPushFramesFallBackToPolling) {
  // Every frame leaving the push server silently vanishes (kDrop returns
  // ok to the dispatcher, so its cursor advances as if streaming worked).
  // Results must still arrive exactly once through the wait_results
  // firewall fallback: un-acked results never leave the mailbox.
  RealClock clock;
  fault::FaultPlan plan;
  plan.with(fault::Site::kPushFrame, fault::Action::kDrop, 1.0);
  fault::FaultInjector fault(plan);
  Dispatcher dispatcher(clock, DispatcherConfig{});
  TcpDispatcherServer server(dispatcher);
  ASSERT_TRUE(server.start(0, &fault).ok());
  // Polling-mode executor: every pushed frame is lost, Notify included, so
  // the executor must not depend on one; only the client's stream starves.
  ExecutorOptions options;
  options.poll_interval_s = 0.01;
  TcpExecutorHarness harness(clock, "127.0.0.1", server.rpc_port(),
                             std::make_unique<NoopEngine>(), options);
  ASSERT_TRUE(harness.start().ok());

  auto client = TcpDispatcherClient::connect("127.0.0.1", server.rpc_port(),
                                             /*stream=*/true);
  ASSERT_TRUE(client.ok());
  auto instance = client.value()->create_instance(ClientId{1});
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE(client.value()->submit(instance.value(), sleep_tasks(20)).ok());

  std::set<std::uint64_t> ids;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (ids.size() < 20 && std::chrono::steady_clock::now() < deadline) {
    auto batch = client.value()->wait_results(instance.value(), 64, 0.2);
    ASSERT_TRUE(batch.ok()) << batch.error().str();
    for (const auto& result : batch.value()) {
      EXPECT_TRUE(ids.insert(result.task_id.value).second)
          << "duplicate task " << result.task_id.value;
    }
  }
  EXPECT_EQ(ids.size(), 20u);
  EXPECT_EQ(client.value()->outstanding(instance.value()), 0u);
  EXPECT_GT(fault.stats(fault::Site::kPushFrame).injected, 0u);

  harness.stop();
  server.stop();
  dispatcher.shutdown();
}

// ---- one connection per peer ------------------------------------------

TEST(TcpOneConnection, FourExecutorsAndAStreamingClientHoldFiveConnections) {
  RealClock clock;
  Dispatcher dispatcher(clock, DispatcherConfig{});
  TcpDispatcherServer server(dispatcher);
  ASSERT_TRUE(server.start().ok());
  std::vector<std::unique_ptr<TcpExecutorHarness>> fleet;
  for (int e = 0; e < 4; ++e) {
    fleet.push_back(std::make_unique<TcpExecutorHarness>(
        clock, "127.0.0.1", server.rpc_port(), std::make_unique<NoopEngine>(),
        ExecutorOptions{}));
    ASSERT_TRUE(fleet.back()->start().ok());
  }
  auto client = TcpDispatcherClient::connect("127.0.0.1", server.rpc_port(),
                                             /*stream=*/true);
  ASSERT_TRUE(client.ok());
  auto session = FalkonSession::open(*client.value(), ClientId{1});
  ASSERT_TRUE(session.ok());
  auto results = session.value()->run(sleep_tasks(200), 30.0);
  ASSERT_TRUE(results.ok()) << results.error().str();
  EXPECT_EQ(results.value().size(), 200u);
  // Every executor was woken by Notify frames and the client streamed its
  // results, all over the one connection each peer dialled.
  EXPECT_EQ(server.connections(), 5u);
  fleet.clear();
  server.stop();
  dispatcher.shutdown();
}

TEST(TcpOneConnection, FalselySuspectedExecutorKeepsItsConnection) {
  // Eviction drops the executor's binding, never its connection: the
  // executor learns of it on its next probe, re-registers and re-subscribes
  // on the same connection, and the next submit wakes it with one Notify.
  RealClock clock;
  obs::Obs obs{obs::ObsConfig{}};
  DispatcherConfig config;
  config.obs = &obs;
  config.heartbeat_timeout_s = 0.05;  // detector run manually below
  Dispatcher dispatcher(clock, config);
  TcpDispatcherServer server(dispatcher, &obs);
  ASSERT_TRUE(server.start().ok());
  fault::FaultInjector dials{fault::FaultPlan{}};  // counts connects only
  ExecutorOptions options;
  options.obs = &obs;
  options.fault = &dials;
  // The idle executor learns of its eviction from its next probe. A long
  // period keeps the probe after re-registration well clear of the submit
  // below, so the Notify, not a probe, is what wakes it.
  options.takeover_probe_s = 1.0;
  TcpExecutorHarness harness(clock, "127.0.0.1", server.rpc_port(),
                             std::make_unique<NoopEngine>(), options);
  ASSERT_TRUE(harness.start().ok());
  const ExecutorId first = harness.runtime().id();

  // Silent past the heartbeat timeout (no heartbeats configured): evicted.
  int evicted = 0;
  for (int i = 0; i < 200 && evicted == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    evicted = dispatcher.check_liveness();
  }
  ASSERT_EQ(evicted, 1);
  for (int i = 0; i < 1000 && harness.runtime().stats().reregistrations == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(harness.runtime().stats().reregistrations, 1u);
  EXPECT_NE(harness.runtime().id().value, first.value);
  EXPECT_EQ(dispatcher.status().false_suspicions, 1u);
  EXPECT_EQ(dispatcher.status().registered_executors, 1u);

  obs::Registry& reg = obs.registry();
  ASSERT_EQ(reg.counter("falkon.executor.notifications").value(), 0u);
  auto instance = dispatcher.create_instance(ClientId{1});
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE(dispatcher.submit(instance.value(), sleep_tasks(1)).ok());
  auto results = dispatcher.wait_results(instance.value(), 1, 10.0);
  ASSERT_TRUE(results.ok()) << results.error().str();
  ASSERT_EQ(results.value().size(), 1u);
  EXPECT_EQ(reg.counter("falkon.dispatcher.notifications").value(), 1u);
  EXPECT_EQ(reg.counter("falkon.executor.notifications").value(), 1u);
  EXPECT_EQ(dials.stats(fault::Site::kRpcConnect).ops, 1u);
  EXPECT_EQ(server.connections(), 1u);
  harness.stop();
  server.stop();
  dispatcher.shutdown();
}

// ---- threads ----------------------------------------------------------

/// Threads of this process named `name` (/proc/self/task/*/comm).
int threads_named(const std::string& name) {
  int count = 0;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    std::ifstream comm(task.path() / "comm");
    std::string line;
    if (std::getline(comm, line) && line == name) ++count;
  }
  return count;
}

/// Wait up to 5 s for the count of `name` threads to reach `expected`:
/// a thread names itself after it starts and leaves /proc after its join.
int await_threads_named(const std::string& name, int expected) {
  int count = threads_named(name);
  for (int i = 0; i < 500 && count != expected; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    count = threads_named(name);
  }
  return count;
}

TEST(TcpThreads, ServerRunsOneNamedEventLoop) {
  // One event loop per server whatever the core count: start() adds exactly
  // one thread named "loop" beside its named handler pool, and stop() joins
  // both.
  RealClock clock;
  Dispatcher dispatcher(clock, DispatcherConfig{});
  const int loops = threads_named("loop");
  const int handlers = threads_named("handler");
  TcpDispatcherServer server(dispatcher);
  ASSERT_TRUE(server.start().ok());
  EXPECT_EQ(await_threads_named("loop", loops + 1), loops + 1)
      << "hardware_concurrency() = " << std::thread::hardware_concurrency();
  EXPECT_GT(threads_named("handler"), handlers);
  server.stop();
  EXPECT_EQ(await_threads_named("loop", loops), loops);
  EXPECT_EQ(await_threads_named("handler", handlers), handlers);
  dispatcher.shutdown();
}

}  // namespace
}  // namespace falkon::core
