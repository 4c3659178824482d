// TCP deployment glue.
//
// TcpDispatcherServer exposes a Dispatcher on one port. The original Falkon
// split its transport into a GT4 WS container plus a custom TCP
// notification channel (section 3.3); here each peer holds one pipelined
// connection that carries its WS-style operations (submit, get-work,
// deliver, status, ...) and, under correlation id 0, the frames the
// dispatcher initiates: Notify {3} to executors, ClientNotify {8} and
// ResultStream batches to clients (docs/PROTOCOL.md). Whatever the fleet
// size, the server costs one event-loop thread, which owns every peer
// connection, plus its handler pool. TcpExecutorHarness runs an executor
// against a remote dispatcher, and TcpDispatcherClient is the client-side
// stub.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "core/client.h"
#include "core/dispatcher.h"
#include "core/executor.h"
#include "core/task_engine.h"
#include "net/rpc.h"

namespace falkon::core {

/// Key namespace for client subscriptions (executors subscribe with their
/// ExecutorId; clients with kClientKeyBase + InstanceId).
inline constexpr std::uint64_t kClientKeyBase = 1ULL << 62;

/// Client half of push-mode result streaming for one instance
/// (docs/PROTOCOL.md). ResultStream frames land here from the RPC reader
/// thread; the waiting caller takes them, and the receiver decides when a
/// batched cumulative ack or a re-arm from zero is due. Results come out
/// unfiltered: re-streams, poll fallbacks and re-delivery after a takeover
/// all repeat results, so each client keeps its own exactly-once filter.
class StreamReceiver {
 public:
  /// One SubscribeResults{instance, ack_seq} round trip; true on success.
  using Subscribe = std::function<bool(std::uint64_t ack_seq)>;

  /// Frame intake (RPC reader thread).
  void on_frame(wire::ResultStream&& frame);

  /// Wait up to `timeout_s` for pushed results or a sequence gap, take at
  /// most `max_results`, then send the ack or re-arm that is due.
  std::vector<TaskResult> take(std::uint32_t max_results, double timeout_s,
                               const Subscribe& subscribe);

  /// (Re-)arm the dispatcher's drain with SubscribeResults{ack_seq=0}: on
  /// success the cursors reset and the dispatcher re-streams everything
  /// still un-acked in the mailbox.
  bool rearm(const Subscribe& subscribe);

 private:
  std::mutex mu_;  // guards everything below but ack_mu_
  std::condition_variable cv_;
  std::deque<TaskResult> buffer_;
  /// Highest contiguously-received ResultStream.seq; what we ack.
  std::uint64_t last_seq_{0};
  /// Last seq acknowledged to the dispatcher.
  std::uint64_t acked_seq_{0};
  /// A frame gap was observed (lost frame, or a stale frame of an earlier
  /// regime): the next take() re-arms from zero. Acking across a gap would
  /// let the dispatcher drop results we never saw, so last_seq_ freezes
  /// until then.
  bool resync_{false};
  /// Serialises SubscribeResults RPCs: the dispatcher's cursor protocol
  /// assumes acks and re-arms never interleave.
  std::mutex ack_mu_;
};

/// The ReplFetch answer of `source`: ReplAppend (a record run, or empty
/// when the follower is caught up) or ReplSnapshot, stamped with the
/// source's epoch; kUnavailable when the follower has seen a newer epoch
/// than the source (the source is the stale side). Served by the
/// dispatcher's RPC port and by a standby's election port.
[[nodiscard]] wire::Message repl_fetch_reply(ReplicationSource& source,
                                             const wire::ReplFetch& fetch);

class TcpDispatcherServer {
 public:
  /// `obs` (optional) receives RPC/push counters: falkon.net.rpc.requests,
  /// falkon.net.rpc.errors, falkon.net.push.notifications.
  explicit TcpDispatcherServer(Dispatcher& dispatcher,
                               obs::Obs* obs = nullptr);
  ~TcpDispatcherServer();

  TcpDispatcherServer(const TcpDispatcherServer&) = delete;
  TcpDispatcherServer& operator=(const TcpDispatcherServer&) = delete;

  /// `fault` (optional, test-only) injects reply-frame faults
  /// (Site::kRpcReply) and faults on dispatcher-initiated frames
  /// (Site::kPushFrame).
  Status start(std::uint16_t port = 0, fault::FaultInjector* fault = nullptr);
  void stop();

  [[nodiscard]] std::uint16_t rpc_port() const { return rpc_.port(); }
  /// The RPC port. Kept only for perfbench/main.cpp, which still passes it
  /// along; delete it when the benchmark next changes.
  [[nodiscard]] std::uint16_t push_port() const { return rpc_port(); }
  /// Peer connections currently open (one per executor or client).
  [[nodiscard]] std::size_t connections() const {
    return rpc_.active_connections();
  }

  /// Serve ReplFetch/ReplAck from this source (the dispatcher's
  /// ha::AsyncJournal), enabling a warm standby to tail the log over the RPC
  /// port. nullptr (the default) answers ReplFetch with kUnavailable.
  /// The source must outlive the server or be cleared first.
  void set_replication_source(ReplicationSource* source) {
    replication_.store(source, std::memory_order_release);
  }

  /// Fence this server to the dispatcher's promotion epoch (docs/HA.md):
  /// epoch-stamped submits and repl fetches that disagree with it are
  /// rejected, and every SubmitReply/RegisterReply/StatusReply advertises
  /// it so clients and executors learn the new epoch on reconnect.
  /// 0 (the default) disables fencing for pre-HA deployments.
  void set_epoch(std::uint64_t epoch) {
    epoch_.store(epoch, std::memory_order_release);
  }
  [[nodiscard]] std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

 private:
  /// ExecutorSink that pushes Notify frames on the executor's connection.
  /// on_removed ties transport cleanup to the dispatcher's removal paths:
  /// without it, an executor evicted by the failure detector (no orderly
  /// DeregisterRequest) would leak its subscription. It drops the binding,
  /// never the connection, which still carries the executor's calls.
  struct PushSink final : ExecutorSink {
    PushSink(TcpDispatcherServer& server, obs::Counter* pushes)
        : server(server), pushes(pushes) {}
    void notify(ExecutorId id, std::uint64_t resource_key) override {
      wire::Notify message;
      message.executor_id = id;
      message.resource_key = resource_key;
      if (pushes) pushes->inc();
      (void)server.rpc_.push(id.value, message);
    }
    void on_removed(ExecutorId id) override { server.rpc_.unbind(id.value); }
    TcpDispatcherServer& server;
    obs::Counter* pushes;
  };

  /// ClientSink that pushes ClientNotify frames {8} to subscribed clients
  /// (unsubscribed clients just poll). deliver() is the push-mode result
  /// stream (docs/PROTOCOL.md): a drained mailbox batch goes out as a
  /// ResultStream frame, keyed by the instance's subscription. false (no
  /// subscriber) drops the instance back to notify+poll; a frame lost in
  /// flight after a true return is recovered by the SubscribeResults ack
  /// protocol, never by the sink.
  struct ClientPushSink final : ClientSink {
    explicit ClientPushSink(net::RpcServer& rpc) : rpc(rpc) {}
    void notify(InstanceId instance, std::uint64_t results_ready) override {
      wire::ClientNotify message;
      message.instance_id = instance;
      message.completed = results_ready;
      (void)rpc.push(kClientKeyBase + instance.value, message);
    }
    bool deliver(InstanceId instance, std::uint64_t seq,
                 std::vector<TaskResult> results) override {
      wire::ResultStream message;
      message.instance_id = instance;
      message.seq = seq;
      message.results = std::move(results);
      return rpc.push(kClientKeyBase + instance.value, message).ok();
    }
    net::RpcServer& rpc;
  };

  /// Both own the request: submit tasks and delivered results move on
  /// into the dispatcher instead of being copied.
  [[nodiscard]] wire::Message handle(wire::Message&& request);
  [[nodiscard]] wire::Message dispatch(wire::Message&& request);

  Dispatcher& dispatcher_;
  obs::Obs* obs_{nullptr};
  std::atomic<ReplicationSource*> replication_{nullptr};
  std::atomic<std::uint64_t> epoch_{0};
  /// One event loop owns every peer connection: an executor costs one
  /// reactor-owned connection, zero threads.
  net::RpcServer rpc_;
  /// Set by a fully-successful start(); stop() is a no-op otherwise (and
  /// after the first stop), so destroying a stopped server never touches
  /// the dispatcher reference again.
  bool started_{false};
  std::shared_ptr<PushSink> sink_;
  std::shared_ptr<ClientPushSink> client_sink_;
  obs::Counter* m_requests_{nullptr};
  obs::Counter* m_errors_{nullptr};
  obs::Counter* m_pushes_{nullptr};
};

/// One executor connected to a remote dispatcher over TCP.
class TcpExecutorHarness {
 public:
  TcpExecutorHarness(Clock& clock, std::string host, std::uint16_t port,
                     std::unique_ptr<TaskEngine> engine,
                     ExecutorOptions options);
  /// Ignores `push_port`. Kept only for perfbench/main.cpp, which still
  /// calls it; delete it when the benchmark next changes.
  TcpExecutorHarness(Clock& clock, std::string host, std::uint16_t rpc_port,
                     std::uint16_t push_port, std::unique_ptr<TaskEngine> engine,
                     ExecutorOptions options);
  ~TcpExecutorHarness();

  TcpExecutorHarness(const TcpExecutorHarness&) = delete;
  TcpExecutorHarness& operator=(const TcpExecutorHarness&) = delete;

  /// Connects, registers and, in push/pull mode, subscribes its executor
  /// id for Notify frames on the same connection.
  Status start();
  void stop();

  [[nodiscard]] ExecutorRuntime& runtime() { return *runtime_; }
  /// Dispatcher epoch learned at the last (re-)registration.
  [[nodiscard]] std::uint64_t dispatcher_epoch() const { return link_.epoch(); }

 private:
  class Link final : public DispatcherLink {
   public:
    /// `fault` (optional) makes every (re)connect and request pass through
    /// the injector, exercising the reconnect path below. `obs` (optional)
    /// feeds the RPC client's pipelining instrumentation.
    Status connect(const std::string& host, std::uint16_t rpc_port,
                   fault::FaultInjector* fault = nullptr,
                   obs::Obs* obs = nullptr);

    Result<ExecutorId> register_executor(
        const wire::RegisterRequest& request) override;
    Result<std::vector<TaskSpec>> get_work(ExecutorId executor,
                                           std::uint32_t max_tasks) override;
    Result<std::vector<TaskSpec>> deliver_results(
        ExecutorId executor, std::vector<TaskResult> results,
        std::uint32_t want_tasks) override;
    Status deregister(ExecutorId executor, const std::string& reason) override;
    Status heartbeat(ExecutorId executor) override;

    /// Attach the executor's data plane (docs/DATA.md): registration and
    /// heartbeats piggyback its cache digest, and heartbeats drain its
    /// eviction notices into kDataEvict frames. Call before connect().
    void set_data(DataPlane* data) { data_ = data; }

    /// Wake `runtime` on every Notify the dispatcher pushes. With a wake
    /// target the link subscribes its executor id after each registration
    /// and on each connection it re-dials, so a fresh id after a failover
    /// or a false suspicion is re-keyed without outside help. Without one
    /// (polling mode) it never subscribes. Call before connect().
    void set_wake(ExecutorRuntime* runtime) { wake_ = runtime; }

    /// Sever the connection and join its reader thread, after which no
    /// Notify reaches the wake target.
    void close();

    /// Dispatcher epoch from the last RegisterReply — bumps after the
    /// executor re-registers on a promoted standby (docs/HA.md).
    [[nodiscard]] std::uint64_t epoch() const {
      return epoch_.load(std::memory_order_acquire);
    }

   private:
    /// One RPC exchange with lazy reconnect: a transport-level failure
    /// (severed, truncated, or corrupted stream) discards the connection so
    /// the next attempt dials fresh — paired with the runtime's
    /// backoff-retry loop this is the executor's reconnect story.
    Result<wire::Message> roundtrip(const wire::Message& request);
    /// Open a connection and subscribe on it (mu_ held).
    Status dial_locked();
    /// Subscribe the registered id on the current connection (mu_ held).
    void subscribe_locked();

    std::mutex mu_;
    std::string host_;
    std::uint16_t rpc_port_{0};
    fault::FaultInjector* fault_{nullptr};
    obs::Obs* obs_{nullptr};
    std::unique_ptr<net::RpcClient> rpc_;
    /// Executor id from the last registration (guarded by mu_).
    std::uint64_t executor_id_{0};
    std::atomic<std::uint64_t> epoch_{0};
    DataPlane* data_{nullptr};
    ExecutorRuntime* wake_{nullptr};
    /// Generation of the last digest the dispatcher acknowledged; ~0 forces
    /// a full digest on the next heartbeat (fresh link or re-registration).
    std::atomic<std::uint64_t> sent_digest_generation_{~0ull};
  };

  Clock& clock_;
  std::string host_;
  std::uint16_t port_;
  ExecutorOptions options_;
  Link link_;
  std::unique_ptr<TaskEngine> engine_;
  std::unique_ptr<ExecutorRuntime> runtime_;
};

/// Client-side dispatcher stub over TCP.
///
/// Two result-delivery regimes:
///   * Polling (stream == false, the default): wait_results is a
///     WaitResultsRequest RPC per batch — one roundtrip each.
///   * Streaming (stream == true): create_instance subscribes the instance
///     key on the connection and arms the dispatcher's drain
///     (SubscribeResults{ack_seq=0}); drained mailbox batches then arrive
///     as ResultStream frames. wait_results drains a local buffer and
///     acknowledges cumulatively — steady-state delivery costs zero request
///     roundtrips. Lost frames degrade to one-shot polls (the dispatcher
///     keeps every un-acked result in the mailbox), and every arrival path
///     (pushed, re-streamed, polled) funnels through a per-instance filter
///     of the tasks still outstanding, so the caller sees each result
///     exactly once. A streaming instance therefore returns results for
///     the tasks submitted through this client, and the filter holds only
///     the tasks in flight.
class TcpDispatcherClient final : public DispatcherClient {
 public:
  /// perfbench/main.cpp still passes a port as `stream` (a non-zero port
  /// converts to true); pass a bool when the benchmark next changes.
  static Result<std::unique_ptr<TcpDispatcherClient>> connect(
      const std::string& host, std::uint16_t rpc_port, bool stream = false);

  Result<InstanceId> create_instance(ClientId client) override;
  Result<std::uint64_t> submit(InstanceId instance,
                               std::vector<TaskSpec> tasks) override;
  Result<std::vector<TaskResult>> wait_results(InstanceId instance,
                                               std::uint32_t max_results,
                                               double timeout_s) override;
  Status destroy_instance(InstanceId instance) override;
  Result<DispatcherStatus> status() override;

  /// True when the instance streams its results (streaming regime); false
  /// in polling mode or after subscription failed.
  [[nodiscard]] bool streaming(InstanceId instance) const;

  /// Tasks submitted on a streaming instance whose results the caller has
  /// not been handed yet; 0 for a polling instance.
  [[nodiscard]] std::size_t outstanding(InstanceId instance) const;

 private:
  struct Stream {
    StreamReceiver receiver;
    std::mutex mu;  // guards outstanding
    /// The exactly-once filter: ids of the tasks submitted and not yet
    /// handed to the caller. A result passes iff erasing its id removes one.
    std::unordered_set<std::uint64_t> outstanding;
  };

  TcpDispatcherClient(net::RpcClient rpc, bool stream)
      : stream_(stream), rpc_(std::move(rpc)) {}

  /// Streaming-regime wait: take pushed results, fall back to a one-shot
  /// poll when none arrived within the timeout.
  Result<std::vector<TaskResult>> wait_streamed(InstanceId instance,
                                                Stream& stream,
                                                std::uint32_t max_results,
                                                double timeout_s);
  bool subscribe_results(InstanceId instance, std::uint64_t ack_seq);
  /// Route a pushed frame to its instance (RPC reader thread).
  void on_push(wire::Message message);
  [[nodiscard]] std::shared_ptr<Stream> find_stream(InstanceId instance) const;

  bool stream_{false};
  mutable std::mutex streams_mu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Stream>> streams_;
  /// Declared last: destroyed first, it joins the reader thread that
  /// routes pushed frames into streams_.
  net::RpcClient rpc_;
};

}  // namespace falkon::core
