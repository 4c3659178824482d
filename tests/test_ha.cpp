// HA integration suite (docs/HA.md): a journaled primary serving the
// replication protocol off its RPC port, a warm standby tailing it, and the
// full failover story — primary dies mid-run, the standby recovers the
// journal, takes over the primary's ports, executors re-register, the
// failover client rides out the downtime, and every task still completes
// exactly once.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/task.h"
#include "core/dispatcher.h"
#include "core/service_tcp.h"
#include "ha/async_journal.h"
#include "ha/failover_client.h"
#include "ha/journal.h"
#include "ha/standby.h"
#include "ha/wal.h"
#include "net/rpc.h"
#include "net/socket.h"
#include "obs/obs.h"
#include "testkit/history.h"
#include "testkit/runners.h"

namespace falkon::ha {
namespace {

namespace fs = std::filesystem;
using core::Dispatcher;
using core::DispatcherConfig;
using core::DispatcherStatus;
using core::ExecutorOptions;
using core::SleepEngine;
using core::TcpDispatcherServer;
using core::TcpExecutorHarness;

class TempDir {
 public:
  TempDir() {
    char pattern[] = "/tmp/falkon_ha_XXXXXX";
    const char* made = ::mkdtemp(pattern);
    EXPECT_NE(made, nullptr);
    path_ = made ? made : "";
  }
  ~TempDir() {
    if (!path_.empty()) {
      std::error_code ec;
      fs::remove_all(path_, ec);
    }
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

void nap_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

DispatcherConfig primary_config(obs::Obs& obs, core::StateJournal* journal) {
  DispatcherConfig config;
  config.replay.response_timeout_s = 0.5;
  config.replay.max_retries = 100;
  config.heartbeat_timeout_s = 1.0;
  config.sweep_interval_s = 0.05;
  config.renotify_timeout_s = 0.2;
  config.obs = &obs;
  config.journal = journal;
  return config;
}

ExecutorOptions polling_executor(std::uint64_t node, obs::Obs& obs) {
  ExecutorOptions options;
  options.node_id = NodeId{node};
  // Polling (firewall) mode: the executor keeps calling get_work on its
  // own schedule, so it notices a takeover (kNotFound) without depending
  // on push notifications from a server it no longer knows.
  options.poll_interval_s = 0.03;
  options.heartbeat_interval_s = 0.1;
  options.link_retries = 30;
  options.register_retries = 30;
  options.backoff.base_s = 0.02;
  options.backoff.max_s = 0.25;
  options.obs = &obs;
  return options;
}

/// A primary's journal: Journal storage opened with `options`, journaled
/// through AsyncJournal.
std::unique_ptr<AsyncJournal> open_journal(Journal::Options options) {
  auto inner = Journal::open(std::move(options));
  EXPECT_TRUE(inner.ok()) << inner.error().str();
  if (!inner.ok()) return nullptr;
  return std::make_unique<AsyncJournal>(inner.take());
}

/// The journal's last LSN once every record enqueued so far is appended.
std::uint64_t logged_lsn(AsyncJournal& journal) {
  journal.barrier();
  return journal.inner().last_lsn();
}

std::vector<TaskSpec> sleep_tasks(std::uint64_t count, double seconds) {
  std::vector<TaskSpec> tasks;
  for (std::uint64_t i = 1; i <= count; ++i) {
    tasks.push_back(make_sleep_task(TaskId{i}, seconds));
  }
  return tasks;
}

// ---- standby tailing (no failover) -----------------------------------------

TEST(HaStandby, TailsPrimaryAndAcksProgress) {
  TempDir primary_dir, standby_dir;
  RealClock clock;
  obs::Obs obs;

  Journal::Options jopts;
  jopts.dir = primary_dir.path();
  jopts.obs = &obs;
  auto journal = open_journal(jopts);
  ASSERT_NE(journal, nullptr);

  Dispatcher dispatcher(clock, primary_config(obs, journal.get()));
  TcpDispatcherServer server(dispatcher, &obs);
  ASSERT_TRUE(server.start().ok());
  server.set_replication_source(journal.get());

  StandbyOptions sopts;
  sopts.primary_rpc_port = server.rpc_port();
  sopts.standby_dir = standby_dir.path();
  sopts.poll_interval_s = 0.01;
  sopts.failover_after_s = 60.0;  // never promote in this test
  sopts.obs = &obs;
  Standby standby(clock, sopts);
  ASSERT_TRUE(standby.start().ok());

  // Generate journaled transitions: one executor works through a batch.
  auto instance = dispatcher.create_instance(ClientId{1});
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE(dispatcher.submit(instance.value(), sleep_tasks(50, 0.0)).ok());
  TcpExecutorHarness executor(clock, "127.0.0.1", server.rpc_port(),
                              std::make_unique<core::NoopEngine>(),
                              polling_executor(1, obs));
  ASSERT_TRUE(executor.start().ok());

  // The standby publishes applied_lsn() before its ReplAck reaches the
  // primary, so wait for the acked gauge as well.
  const obs::Gauge& acked = obs.registry().gauge("falkon.ha.repl.acked_lsn");
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (dispatcher.status().completed < 50 ||
         standby.applied_lsn() < logged_lsn(*journal) ||
         acked.value() < static_cast<double>(logged_lsn(*journal))) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "standby lagging: applied=" << standby.applied_lsn()
        << " acked=" << acked.value()
        << " last_lsn=" << logged_lsn(*journal);
    nap_ms(10);
  }

  EXPECT_FALSE(standby.promoted());
  EXPECT_EQ(standby.applied_lsn(), logged_lsn(*journal));
  // The ack path fed the lag gauges.
  EXPECT_EQ(obs.registry().gauge("falkon.ha.repl.acked_lsn").value(),
            static_cast<double>(standby.applied_lsn()));
  EXPECT_EQ(obs.registry().gauge("falkon.ha.repl.lag").value(), 0.0);

  standby.stop();
  executor.stop();
  dispatcher.shutdown();
  server.stop();
}

TEST(HaStandby, CatchesUpViaSnapshotWhenBehindTail) {
  TempDir primary_dir, standby_dir;
  RealClock clock;
  obs::Obs obs;

  Journal::Options jopts;
  jopts.dir = primary_dir.path();
  jopts.repl_tail_bytes = 512;  // tail forgets almost immediately
  auto journal = open_journal(jopts);
  ASSERT_NE(journal, nullptr);

  // Journal a pile of records *before* the standby connects — one submit
  // per task, so each is its own log record, and the submit's barrier puts
  // each in its own tail run — and the standby's first fetch (from LSN 1)
  // lands far behind the in-memory tail and must be answered with a full
  // ReplSnapshot.
  Dispatcher dispatcher(clock, primary_config(obs, journal.get()));
  auto instance = dispatcher.create_instance(ClientId{1});
  ASSERT_TRUE(instance.ok());
  for (std::uint64_t i = 1; i <= 200; ++i) {
    std::vector<TaskSpec> one{make_sleep_task(TaskId{i}, 0.0)};
    ASSERT_TRUE(dispatcher.submit(instance.value(), one).ok());
  }
  const std::uint64_t piled_lsn = logged_lsn(*journal);
  ASSERT_GT(piled_lsn, 10u);
  ASSERT_TRUE(journal->fetch(1, 1u << 20).is_snapshot)
      << "the tail still holds LSN 1: the standby would not need a snapshot";

  TcpDispatcherServer server(dispatcher, &obs);
  ASSERT_TRUE(server.start().ok());
  server.set_replication_source(journal.get());

  StandbyOptions sopts;
  sopts.primary_rpc_port = server.rpc_port();
  sopts.standby_dir = standby_dir.path();
  sopts.poll_interval_s = 0.01;
  sopts.failover_after_s = 60.0;
  Standby standby(clock, sopts);
  ASSERT_TRUE(standby.start().ok());

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (standby.applied_lsn() < piled_lsn) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "snapshot catch-up stalled at " << standby.applied_lsn();
    nap_ms(10);
  }
  EXPECT_GE(standby.applied_lsn(), piled_lsn);

  standby.stop();
  dispatcher.shutdown();
  server.stop();
}

TEST(HaStandby, CorruptReplicationBatchAppliesWholeOrNotAtAll) {
  TempDir standby_dir;
  RealClock clock;

  // LSNs 1-3: an instance, a 2-task submit, another instance. The first
  // answer flips one payload byte of the third frame, so its CRC fails
  // after the first two frames parsed cleanly; every later answer is clean.
  RecSubmit submit;
  submit.instance = InstanceId{1};
  submit.submit_seq = 1;
  submit.tasks = sleep_tasks(2, 0.0);
  const std::vector<LogRecord> records{
      RecInstanceCreated{InstanceId{1}, ClientId{1}}, submit,
      RecInstanceCreated{InstanceId{2}, ClientId{2}}};
  std::vector<std::uint8_t> clean;
  for (const LogRecord& record : records) {
    const std::vector<std::uint8_t> payload = encode_record(record);
    Wal::frame_record(clean, payload.data(), payload.size());
  }
  std::vector<std::uint8_t> corrupt = clean;
  corrupt.back() ^= 0x01;

  std::atomic<int> answered{0};
  net::RpcServer source;
  ASSERT_TRUE(source
                  .start([&](wire::Message&& request) -> wire::Message {
                    const auto* fetch = std::get_if<wire::ReplFetch>(&request);
                    if (fetch == nullptr) return wire::ReplAckReply{};
                    wire::ReplAppend reply;
                    reply.last_lsn = records.size();
                    if (fetch->from_lsn > records.size()) return reply;
                    const auto& frames = answered++ == 0 ? corrupt : clean;
                    reply.first_lsn = 1;
                    reply.payload.assign(
                        reinterpret_cast<const char*>(frames.data()),
                        frames.size());
                    return reply;
                  })
                  .ok());

  StandbyOptions sopts;
  sopts.primary_rpc_port = source.port();
  sopts.standby_dir = standby_dir.path();
  sopts.poll_interval_s = 0.01;
  sopts.failover_after_s = 0.3;
  Standby standby(clock, sopts);
  ASSERT_TRUE(standby.start().ok());

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (standby.applied_lsn() < records.size()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "standby never applied the clean batch";
    nap_ms(10);
  }
  EXPECT_GE(answered.load(), 2);

  // Promote from the warm image: the submit was applied exactly once.
  source.stop();
  ASSERT_TRUE(standby.wait_promoted(15.0));
  EXPECT_EQ(standby.dispatcher()->status().submitted, 2u);

  standby.stop();
  standby.dispatcher()->shutdown();
}

// ---- submit-seq dedup ------------------------------------------------------

TEST(HaClient, DuplicateSubmitSeqIsAcknowledgedNotReenqueued) {
  RealClock clock;
  DispatcherConfig config;
  Dispatcher dispatcher(clock, config);
  auto instance = dispatcher.create_instance(ClientId{1});
  ASSERT_TRUE(instance.ok());

  auto first = dispatcher.submit(instance.value(), sleep_tasks(10, 0.0), 1);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value(), 10u);
  EXPECT_EQ(dispatcher.status().submitted, 10u);

  // The retry of an already-journaled submit: acknowledged, not enqueued.
  auto dup = dispatcher.submit(instance.value(), sleep_tasks(10, 0.0), 1);
  ASSERT_TRUE(dup.ok());
  EXPECT_EQ(dup.value(), 10u);
  EXPECT_EQ(dispatcher.status().submitted, 10u);
  EXPECT_EQ(dispatcher.status().queued, 10u);

  // A higher seq is new work.
  std::vector<TaskSpec> more{make_sleep_task(TaskId{11}, 0.0)};
  ASSERT_TRUE(dispatcher.submit(instance.value(), more, 2).ok());
  EXPECT_EQ(dispatcher.status().submitted, 11u);

  dispatcher.shutdown();
}

// ---- full failover ---------------------------------------------------------

/// Run the takeover story end to end. `shared_log` selects how the standby
/// recovers: from the primary's journal directory (authoritative) or from
/// its warm in-memory image (bootstrap into its own directory).
/// `streamed_client` runs the failover client in push-mode result
/// streaming: the takeover severs the push connection, results keep
/// flowing through the polling fallback, and the client resubscribes
/// against the promoted dispatcher.
void run_failover_scenario(bool shared_log, bool streamed_client = false) {
  constexpr std::uint64_t kTasks = 200;
  constexpr int kExecutors = 3;

  TempDir primary_dir, standby_dir;
  RealClock clock;
  obs::Obs obs;

  Journal::Options jopts;
  jopts.dir = primary_dir.path();
  jopts.fsync = FsyncPolicy::kGroupCommit;
  auto journal = open_journal(jopts);
  ASSERT_NE(journal, nullptr);

  auto dispatcher = std::make_unique<Dispatcher>(
      clock, primary_config(obs, journal.get()));
  auto server = std::make_unique<TcpDispatcherServer>(*dispatcher, &obs);
  ASSERT_TRUE(server->start().ok());
  server->set_replication_source(journal.get());
  const std::uint16_t rpc_port = server->rpc_port();

  StandbyOptions sopts;
  sopts.primary_rpc_port = rpc_port;
  sopts.takeover_rpc_port = rpc_port;
  if (shared_log) sopts.shared_log_dir = primary_dir.path();
  sopts.standby_dir = standby_dir.path();
  sopts.poll_interval_s = 0.01;
  sopts.failover_after_s = 0.3;
  sopts.dispatcher = primary_config(obs, nullptr);  // journal filled in
  sopts.obs = &obs;
  Standby standby(clock, sopts);
  ASSERT_TRUE(standby.start().ok());

  std::vector<std::unique_ptr<TcpExecutorHarness>> fleet;
  for (int i = 0; i < kExecutors; ++i) {
    fleet.push_back(std::make_unique<TcpExecutorHarness>(
        clock, "127.0.0.1", rpc_port,
        std::make_unique<SleepEngine>(clock),
        polling_executor(static_cast<std::uint64_t>(i + 1), obs)));
    ASSERT_TRUE(fleet.back()->start().ok());
  }

  FailoverClientOptions copts;
  copts.rpc_port = rpc_port;
  if (streamed_client) copts.stream = true;
  copts.max_attempts = 400;
  copts.backoff_initial_s = 0.01;
  copts.backoff_max_s = 0.2;
  copts.obs = &obs;
  FailoverClient client(copts);

  auto instance = client.create_instance(ClientId{1});
  ASSERT_TRUE(instance.ok()) << instance.error().str();
  EXPECT_EQ(client.streaming(instance.value()), streamed_client);
  auto accepted = client.submit(instance.value(), sleep_tasks(kTasks, 0.005));
  ASSERT_TRUE(accepted.ok()) << accepted.error().str();
  ASSERT_EQ(accepted.value(), kTasks);
  EXPECT_EQ(client.outstanding(), kTasks);

  // Let the run get well underway, then kill the primary mid-flight: stop
  // serving, shut the dispatcher down, close its journal (fsync + release
  // the log directory for the standby).
  const auto kill_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (;;) {
    auto status = client.status();
    if (status.ok() && status.value().completed >= kTasks / 4) break;
    ASSERT_LT(std::chrono::steady_clock::now(), kill_deadline);
    nap_ms(10);
  }
  const DispatcherStatus at_kill = dispatcher->status();
  ASSERT_LT(at_kill.completed + at_kill.failed, kTasks)
      << "primary finished before the kill — lengthen the tasks";
  server->stop();
  server.reset();  // the server references the dispatcher: destroy it first
  dispatcher->shutdown();
  dispatcher.reset();
  journal.reset();

  ASSERT_TRUE(standby.wait_promoted(15.0))
      << "standby never promoted (applied_lsn=" << standby.applied_lsn()
      << ")";
  ASSERT_NE(standby.dispatcher(), nullptr);
  ASSERT_NE(standby.server(), nullptr);
  EXPECT_EQ(standby.server()->rpc_port(), rpc_port);

  // Takeover is continuous: counters picked up where the primary left off.
  const DispatcherStatus resumed = standby.dispatcher()->status();
  EXPECT_EQ(resumed.submitted, kTasks);
  EXPECT_GE(resumed.completed, shared_log ? at_kill.completed : 0);

  // The fleet re-registers against the promoted dispatcher and finishes
  // the remaining work.
  const auto finish_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  for (;;) {
    const DispatcherStatus status = standby.dispatcher()->status();
    if (status.completed + status.failed >= kTasks) break;
    ASSERT_LT(std::chrono::steady_clock::now(), finish_deadline)
        << "takeover stalled: completed=" << status.completed
        << " queued=" << status.queued
        << " dispatched=" << status.dispatched;
    nap_ms(20);
  }
  const DispatcherStatus final_status = standby.dispatcher()->status();
  EXPECT_EQ(final_status.completed, kTasks);
  EXPECT_EQ(final_status.failed, 0u);
  EXPECT_EQ(final_status.queued, 0u);
  EXPECT_EQ(final_status.dispatched, 0u);

  // Exactly-once delivery across the takeover: the failover client dedups
  // re-deliveries from the recovered mailbox, so collecting everything
  // yields each task id exactly once.
  std::set<std::uint64_t> ids;
  int idle_polls = 0;
  while (ids.size() < kTasks && idle_polls < 20) {
    auto batch = client.wait_results(instance.value(), 256, 0.25);
    if (!batch.ok() || batch.value().empty()) {
      ++idle_polls;
      continue;
    }
    idle_polls = 0;
    for (const auto& result : batch.value()) {
      EXPECT_TRUE(ids.insert(result.task_id.value).second)
          << "duplicate delivery of task " << result.task_id.value;
    }
  }
  EXPECT_EQ(ids.size(), kTasks);
  // The exactly-once filter holds only what is still in flight.
  EXPECT_EQ(client.outstanding(), 0u);
  // A streamed client stays in streaming mode across the takeover (the
  // fallback poll that found results re-armed the push subscription
  // against the promoted dispatcher).
  EXPECT_EQ(client.streaming(instance.value()), streamed_client);

  // The client observed the outage and reconnected through it.
  EXPECT_GT(client.reconnects(), 0u);
  // At least one executor had to re-register with the new primary.
  std::uint64_t reregistrations = 0;
  for (auto& harness : fleet) {
    reregistrations += harness->runtime().stats().reregistrations;
  }
  EXPECT_GT(reregistrations, 0u);
  // Failover downtime was measured and published.
  EXPECT_GT(obs.registry().gauge("falkon.ha.standby.failover_s").value(), 0.0);

  for (auto& harness : fleet) harness->stop();
  standby.stop();
}

TEST(HaFailover, TakeoverFromSharedLogCompletesAllTasksExactlyOnce) {
  run_failover_scenario(/*shared_log=*/true);
}

TEST(HaFailover, TakeoverFromWarmImageCompletesAllTasksExactlyOnce) {
  run_failover_scenario(/*shared_log=*/false);
}

TEST(HaFailover, StreamedClientSurvivesTakeoverExactlyOnce) {
  run_failover_scenario(/*shared_log=*/true, /*streamed_client=*/true);
}

/// Threads of this process whose name (set_thread_name) is `name`.
int threads_named(const std::string& name) {
  int count = 0;
  for (const auto& task : fs::directory_iterator("/proc/self/task")) {
    std::ifstream comm(task.path() / "comm");
    std::string line;
    if (std::getline(comm, line) && line == name) ++count;
  }
  return count;
}

TEST(HaFailover, PromotedStandbyJournalsOffTheDispatcherLocks) {
  TempDir primary_dir, standby_dir;
  RealClock clock;
  obs::Obs obs;

  Journal::Options jopts;
  jopts.dir = primary_dir.path();
  auto journal = open_journal(jopts);
  ASSERT_NE(journal, nullptr);
  auto dispatcher = std::make_unique<Dispatcher>(
      clock, primary_config(obs, journal.get()));
  auto server = std::make_unique<TcpDispatcherServer>(*dispatcher, &obs);
  ASSERT_TRUE(server->start().ok());
  server->set_replication_source(journal.get());

  StandbyOptions sopts;
  sopts.primary_rpc_port = server->rpc_port();
  sopts.shared_log_dir = primary_dir.path();
  sopts.standby_dir = standby_dir.path();
  sopts.poll_interval_s = 0.01;
  sopts.failover_after_s = 0.2;
  sopts.dispatcher = primary_config(obs, nullptr);
  sopts.obs = &obs;
  Standby standby(clock, sopts);
  ASSERT_TRUE(standby.start().ok());

  auto instance = dispatcher->create_instance(ClientId{1});
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE(dispatcher->submit(instance.value(), sleep_tasks(4, 0.0)).ok());
  const std::uint64_t logged = logged_lsn(*journal);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (standby.applied_lsn() < logged) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    nap_ms(10);
  }

  server->stop();
  server.reset();
  dispatcher->shutdown();
  dispatcher.reset();
  journal.reset();  // joins the primary's drain thread

  // The promoted dispatcher's hooks only enqueue: its journal runs its own
  // drain thread, as the primary's did. The thread names itself once it
  // runs, so give it a moment.
  ASSERT_TRUE(standby.wait_promoted(15.0));
  const auto named_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (threads_named("journal") != 1 &&
         std::chrono::steady_clock::now() < named_deadline) {
    nap_ms(5);
  }
  EXPECT_EQ(threads_named("journal"), 1);

  // A submit acknowledged by the promoted dispatcher is in its log.
  ASSERT_TRUE(standby.dispatcher()
                  ->submit(instance.value(),
                           {make_sleep_task(TaskId{99}, 0.0)})
                  .ok());
  bool logged_submit = false;
  ASSERT_TRUE(
      Wal::replay(primary_dir.path(), 1,
                  [&](std::uint64_t, const std::uint8_t* payload,
                      std::size_t size) {
                    auto record = decode_record(payload, size);
                    const auto* rec = record.ok()
                                          ? std::get_if<RecSubmit>(&record.value())
                                          : nullptr;
                    if (rec != nullptr && rec->tasks.size() == 1 &&
                        rec->tasks[0].id == TaskId{99}) {
                      logged_submit = true;
                    }
                    return true;
                  })
          .ok());
  EXPECT_TRUE(logged_submit);

  standby.stop();
  standby.dispatcher()->shutdown();
}

// ---- async group-commit journaling -----------------------------------------

TEST(HaAsyncJournal, BarrierImpliesDurabilityAcrossRestart) {
  TempDir dir;
  StateMachine shadow;
  Journal::Options jopts;
  jopts.dir = dir.path();
  {
    auto inner = Journal::open(jopts);
    ASSERT_TRUE(inner.ok()) << inner.error().str();
    // Tiny ring: a 200-record burst wraps it many times over, exercising
    // the producer-side backpressure path.
    AsyncJournal::Options aopts;
    aopts.queue_capacity = 8;
    AsyncJournal journal(inner.take(), aopts);

    const InstanceId instance{1};
    journal.on_instance_created(instance, ClientId{2});
    shadow.apply(RecInstanceCreated{instance, ClientId{2}});
    for (std::uint64_t i = 1; i <= 200; ++i) {
      std::vector<TaskSpec> one{make_sleep_task(TaskId{i}, 0.0)};
      journal.on_submit(instance, i, one);
      RecSubmit submit;
      submit.instance = instance;
      submit.submit_seq = i;
      submit.tasks = one;
      shadow.apply(submit);
    }
    journal.barrier();
    EXPECT_EQ(journal.backlog(), 0u);
  }  // destructor drains whatever barrier() left (nothing) and closes

  auto reopened = Journal::open(jopts);
  ASSERT_TRUE(reopened.ok()) << reopened.error().str();
  EXPECT_EQ(reopened.value()->last_lsn(), 201u);
  EXPECT_TRUE(
      images_equal(reopened.value()->recovered_image(), shadow.image()));
}

TEST(HaAsyncJournal, FetchDrainsThePipeFirst) {
  TempDir dir;
  Journal::Options jopts;
  jopts.dir = dir.path();
  auto inner = Journal::open(jopts);
  ASSERT_TRUE(inner.ok());
  AsyncJournal journal(inner.take());

  const InstanceId instance{1};
  journal.on_instance_created(instance, ClientId{2});
  for (std::uint64_t i = 1; i <= 50; ++i) {
    journal.on_submit(instance, i, {make_sleep_task(TaskId{i}, 0.0)});
  }

  // A replication fetch must never show a follower less than the producer
  // has enqueued: fetch barriers, so all 51 records are visible at once.
  const auto batch = journal.fetch(1, 1u << 20);
  EXPECT_FALSE(batch.is_snapshot);
  EXPECT_EQ(batch.first_lsn, 1u);
  EXPECT_EQ(batch.last_lsn, 51u);

  std::size_t frames = 0;
  ASSERT_TRUE(
      Wal::parse_frames(
          reinterpret_cast<const std::uint8_t*>(batch.payload.data()),
          batch.payload.size(),
          [&](const std::uint8_t*, std::size_t) { ++frames; })
          .ok());
  EXPECT_EQ(frames, 51u);
}

// ---- epoch fencing on the client -------------------------------------------

TEST(HaClient, ResyncsEpochAfterFenceRejection) {
  RealClock clock;
  obs::Obs obs;
  DispatcherConfig config;
  Dispatcher dispatcher(clock, config);
  TcpDispatcherServer server(dispatcher, &obs);
  ASSERT_TRUE(server.start().ok());
  server.set_epoch(3);

  FailoverClientOptions copts;
  copts.rpc_port = server.rpc_port();
  FailoverClient client(copts);
  auto instance = client.create_instance(ClientId{1});
  ASSERT_TRUE(instance.ok());

  // First submit is stamped with the pre-contact epoch 0 (always accepted)
  // and learns the server's regime from the ack.
  ASSERT_TRUE(client.submit(instance.value(), sleep_tasks(4, 0.0)).ok());
  EXPECT_EQ(client.epoch(), 3u);

  // The dispatcher moves to a newer regime; the client's next stamp (3) is
  // fenced off, re-synced via status(), and retried under epoch 4 with the
  // same submit_seq — accepted exactly once.
  server.set_epoch(4);
  auto accepted = client.submit(instance.value(), sleep_tasks(4, 0.0));
  ASSERT_TRUE(accepted.ok()) << accepted.error().str();
  EXPECT_EQ(client.epoch(), 4u);
  EXPECT_EQ(dispatcher.status().submitted, 8u);

  dispatcher.shutdown();
  server.stop();
}

// ---- election: chained replication and split-brain -------------------------

std::uint16_t reserve_port() {
  auto listener = net::TcpListener::bind(0);
  EXPECT_TRUE(listener.ok());
  if (!listener.ok()) return 0;
  const std::uint16_t port = listener.value().port();
  listener.value().close();
  return port;
}

TEST(HaChained, StandbyTailsAnotherStandby) {
  TempDir primary_dir, a_dir, b_dir;
  RealClock clock;
  obs::Obs obs;

  Journal::Options jopts;
  jopts.dir = primary_dir.path();
  auto journal = open_journal(jopts);
  ASSERT_NE(journal, nullptr);

  Dispatcher dispatcher(clock, primary_config(obs, journal.get()));
  TcpDispatcherServer server(dispatcher, &obs);
  ASSERT_TRUE(server.start().ok());
  server.set_replication_source(journal.get());

  // Standby A tails the primary and serves its mirrored tail on its
  // election port; standby B tails A — the primary only ever sees one
  // follower.
  StandbyOptions aopts;
  aopts.primary_rpc_port = server.rpc_port();
  aopts.election_port = reserve_port();
  aopts.standby_dir = a_dir.path();
  aopts.poll_interval_s = 0.01;
  aopts.failover_after_s = 60.0;
  Standby a(clock, aopts);
  ASSERT_TRUE(a.start().ok());

  StandbyOptions bopts;
  bopts.primary_rpc_port = a.election_port();
  bopts.standby_dir = b_dir.path();
  bopts.poll_interval_s = 0.01;
  bopts.failover_after_s = 60.0;
  Standby b(clock, bopts);
  ASSERT_TRUE(b.start().ok());

  auto instance = dispatcher.create_instance(ClientId{1});
  ASSERT_TRUE(instance.ok());
  for (std::uint64_t i = 1; i <= 150; ++i) {
    std::vector<TaskSpec> one{make_sleep_task(TaskId{i}, 0.0)};
    ASSERT_TRUE(dispatcher.submit(instance.value(), one).ok());
  }
  const std::uint64_t last = logged_lsn(*journal);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  while (b.applied_lsn() < last) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "chained standby stalled: a=" << a.applied_lsn()
        << " b=" << b.applied_lsn() << " want=" << last;
    nap_ms(10);
  }
  EXPECT_GE(a.applied_lsn(), last);
  EXPECT_GE(b.applied_lsn(), last);

  b.stop();
  a.stop();
  dispatcher.shutdown();
  server.stop();
}

TEST(HaChained, FollowerBehindTheMirrorCatchesUpBySnapshot) {
  TempDir primary_dir, a_dir, b_dir;
  RealClock clock;
  obs::Obs obs;

  Journal::Options jopts;
  jopts.dir = primary_dir.path();
  auto journal = open_journal(jopts);
  ASSERT_NE(journal, nullptr);
  Dispatcher dispatcher(clock, primary_config(obs, journal.get()));
  TcpDispatcherServer server(dispatcher, &obs);
  ASSERT_TRUE(server.start().ok());
  server.set_replication_source(journal.get());

  // Standby A mirrors at most 512 bytes of tail for its followers.
  StandbyOptions aopts;
  aopts.primary_rpc_port = server.rpc_port();
  aopts.election_port = reserve_port();
  aopts.standby_dir = a_dir.path();
  aopts.poll_interval_s = 0.01;
  aopts.failover_after_s = 60.0;
  aopts.journal.repl_tail_bytes = 512;
  Standby a(clock, aopts);
  ASSERT_TRUE(a.start().ok());

  const auto wait_applied = [&](Standby& standby, std::uint64_t lsn) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(15);
    while (standby.applied_lsn() < lsn) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "standby stalled at " << standby.applied_lsn() << " < " << lsn;
      nap_ms(5);
    }
  };
  // LSN 1 reaches A in a run of its own; the submits after it push that
  // run out of A's tail.
  auto instance = dispatcher.create_instance(ClientId{1});
  ASSERT_TRUE(instance.ok());
  wait_applied(a, 1);
  for (std::uint64_t i = 1; i <= 100; ++i) {
    ASSERT_TRUE(
        dispatcher.submit(instance.value(), {make_sleep_task(TaskId{i}, 0.0)})
            .ok());
  }
  const std::uint64_t last = logged_lsn(*journal);
  wait_applied(a, last);

  auto probe = net::RpcClient::connect("127.0.0.1", a.election_port());
  ASSERT_TRUE(probe.ok());
  wire::ReplFetch fetch;
  fetch.from_lsn = 1;
  fetch.max_bytes = 1u << 20;
  auto reply = probe.value().call(fetch);
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(std::holds_alternative<wire::ReplSnapshot>(reply.value()))
      << "A's tail still holds LSN 1";

  // Follower B starts behind A's tail, catches up from A's image, and
  // promotes from its own warm image once the primary and A are gone.
  StandbyOptions bopts;
  bopts.primary_rpc_port = a.election_port();
  bopts.standby_dir = b_dir.path();
  bopts.poll_interval_s = 0.01;
  bopts.failover_after_s = 0.3;
  bopts.dispatcher = primary_config(obs, nullptr);
  Standby b(clock, bopts);
  ASSERT_TRUE(b.start().ok());
  wait_applied(b, last);

  const std::uint64_t submitted = dispatcher.status().submitted;
  EXPECT_EQ(submitted, 100u);
  dispatcher.shutdown();
  server.stop();
  a.stop();
  ASSERT_TRUE(b.wait_promoted(15.0));
  EXPECT_EQ(b.dispatcher()->status().submitted, submitted);

  b.stop();
  b.dispatcher()->shutdown();
}

TEST(HaElection, TwoStandbysExactlyOnePromotes) {
  constexpr std::uint64_t kTasks = 150;
  TempDir primary_dir, s0_dir, s1_dir;
  RealClock clock;
  obs::Obs obs;

  Journal::Options jopts;
  jopts.dir = primary_dir.path();
  auto journal = open_journal(jopts);
  ASSERT_NE(journal, nullptr);

  auto dispatcher = std::make_unique<Dispatcher>(
      clock, primary_config(obs, journal.get()));
  auto server = std::make_unique<TcpDispatcherServer>(*dispatcher, &obs);
  ASSERT_TRUE(server->start().ok());
  server->set_replication_source(journal.get());
  const std::uint16_t rpc_port = server->rpc_port();

  const std::uint16_t eport0 = reserve_port();
  const std::uint16_t eport1 = reserve_port();
  const auto standby_options = [&](std::uint32_t rank, std::uint16_t my_port,
                                   std::uint16_t peer_port,
                                   std::uint32_t peer_rank,
                                   const std::string& dir) {
    StandbyOptions sopts;
    sopts.primary_rpc_port = rpc_port;
    sopts.rank = rank;
    sopts.election_port = my_port;
    sopts.peers.push_back({"127.0.0.1", peer_port, peer_rank});
    sopts.takeover_rpc_port = rpc_port;
    sopts.shared_log_dir = primary_dir.path();
    sopts.standby_dir = dir;
    sopts.poll_interval_s = 0.01;
    // Near-simultaneous timers on purpose: the election + journal fence
    // must serialise the promotion, not timing luck.
    sopts.failover_after_s = 0.3;
    sopts.dispatcher = primary_config(obs, nullptr);
    sopts.obs = &obs;
    return sopts;
  };
  Standby s0(clock, standby_options(0, eport0, eport1, 1, s0_dir.path()));
  Standby s1(clock, standby_options(1, eport1, eport0, 0, s1_dir.path()));
  ASSERT_TRUE(s0.start().ok());
  ASSERT_TRUE(s1.start().ok());

  std::vector<std::unique_ptr<TcpExecutorHarness>> fleet;
  for (int i = 0; i < 3; ++i) {
    fleet.push_back(std::make_unique<TcpExecutorHarness>(
        clock, "127.0.0.1", rpc_port,
        std::make_unique<SleepEngine>(clock),
        polling_executor(static_cast<std::uint64_t>(i + 1), obs)));
    ASSERT_TRUE(fleet.back()->start().ok());
  }

  FailoverClientOptions copts;
  copts.rpc_port = rpc_port;
  copts.max_attempts = 400;
  copts.obs = &obs;
  FailoverClient client(copts);
  auto instance = client.create_instance(ClientId{1});
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE(client.submit(instance.value(), sleep_tasks(kTasks, 0.005)).ok());

  // Kill the primary mid-run.
  const auto kill_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (;;) {
    auto status = client.status();
    if (status.ok() && status.value().completed >= kTasks / 4) break;
    ASSERT_LT(std::chrono::steady_clock::now(), kill_deadline);
    nap_ms(10);
  }
  server->stop();
  server.reset();
  dispatcher->shutdown();
  dispatcher.reset();
  journal.reset();

  // Exactly one standby wins: rank 0 (lowest alive). The loser must keep
  // standing by, then learn the winner's epoch by tailing it through the
  // taken-over endpoint.
  ASSERT_TRUE(s0.wait_promoted(15.0))
      << "rank-0 standby never promoted (applied=" << s0.applied_lsn() << ")";
  EXPECT_FALSE(s1.promoted()) << "split brain: both standbys promoted";
  EXPECT_EQ(s0.epoch(), 1u);

  const auto finish_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  for (;;) {
    const DispatcherStatus status = s0.dispatcher()->status();
    if (status.completed + status.failed >= kTasks) break;
    ASSERT_LT(std::chrono::steady_clock::now(), finish_deadline)
        << "takeover stalled: completed=" << status.completed;
    nap_ms(20);
  }
  EXPECT_EQ(s0.dispatcher()->status().completed, kTasks);
  EXPECT_FALSE(s1.promoted()) << "split brain: loser promoted after takeover";

  // Exactly-once delivery, same as the single-standby scenario.
  std::set<std::uint64_t> ids;
  int idle_polls = 0;
  while (ids.size() < kTasks && idle_polls < 20) {
    auto batch = client.wait_results(instance.value(), 256, 0.25);
    if (!batch.ok() || batch.value().empty()) {
      ++idle_polls;
      continue;
    }
    idle_polls = 0;
    for (const auto& result : batch.value()) {
      EXPECT_TRUE(ids.insert(result.task_id.value).second)
          << "duplicate delivery of task " << result.task_id.value;
    }
  }
  EXPECT_EQ(ids.size(), kTasks);
  // The client follows the promotion into the new regime on its next
  // epoch-bearing exchange.
  ASSERT_TRUE(client.status().ok());
  EXPECT_EQ(client.epoch(), 1u);

  // The loser eventually applies the winner's RecEpoch via replication.
  const auto learn_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (s1.epoch() < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), learn_deadline)
        << "loser never learned the winner's epoch";
    nap_ms(10);
  }

  for (auto& harness : fleet) harness->stop();
  s1.stop();
  s0.stop();
}

// ---- soak: the testkit HA runner under the invariant model ------------------

TEST(HaSoak, PrimaryKillRunSatisfiesInvariants) {
  testkit::WorkloadSpec spec;
  spec.seed = 42;
  spec.task_count = 120;
  spec.executors = 4;
  spec.task_length_s = 0.01;
  spec.client_bundle = 16;
  spec.max_retries = 100;
  spec.replay_timeout_s = 0.5;
  spec.kill_primary_after = 0.3;

  const testkit::RunHistory history = testkit::run_tcp_ha(spec);
  const auto violations = testkit::check_invariants(history);
  EXPECT_TRUE(violations.empty()) << testkit::join_violations(violations);
  // Exactly one promotion: the seed primary plus one winner (I9 already
  // rejects epoch ties; this also rejects a second, later usurper).
  ASSERT_EQ(history.primary_epochs.size(), 2u)
      << "expected primary + exactly one promoted standby";
  EXPECT_EQ(history.primary_epochs[0], 0u);
  EXPECT_EQ(history.primary_epochs[1], 1u);
  EXPECT_EQ(history.completed, spec.task_count);
  EXPECT_EQ(history.result_ids.size(), spec.task_count);
}

}  // namespace
}  // namespace falkon::ha
