#include "core/service_tcp.h"

#include <algorithm>
#include <chrono>
#include <iterator>

#include "common/logging.h"
#include "core/data_plane.h"

namespace falkon::core {
namespace {

template <class Expected>
Result<Expected> expect(Result<wire::Message> reply) {
  if (!reply.ok()) return reply.error();
  auto* payload = std::get_if<Expected>(&reply.value());
  if (payload == nullptr) {
    return make_error(ErrorCode::kProtocolError,
                      std::string("unexpected reply type: ") +
                          wire::msg_type_name(message_type(reply.value())));
  }
  return std::move(*payload);
}

}  // namespace

TcpDispatcherServer::TcpDispatcherServer(Dispatcher& dispatcher, obs::Obs* obs)
    : dispatcher_(dispatcher), obs_(obs) {
  if (obs != nullptr) {
    obs::Registry& reg = obs->registry();
    m_requests_ = &reg.counter("falkon.net.rpc.requests");
    m_errors_ = &reg.counter("falkon.net.rpc.errors");
    m_pushes_ = &reg.counter("falkon.net.push.notifications");
  }
}

TcpDispatcherServer::~TcpDispatcherServer() { stop(); }

Status TcpDispatcherServer::start(std::uint16_t port,
                                  fault::FaultInjector* fault) {
  sink_ = std::make_shared<PushSink>(*this, m_pushes_);
  client_sink_ = std::make_shared<ClientPushSink>(rpc_);
  dispatcher_.set_client_sink(client_sink_);
  // A shared handler pool keeps slow/blocking handlers (wait_results with a
  // timeout) from stalling pipelined calls on the same connection; the
  // reactor loop itself never runs handlers.
  net::RpcServerOptions options;
  options.handler_threads = 16;
  options.obs = obs_;
  if (auto status =
          rpc_.start([this](wire::Message&& m) { return handle(std::move(m)); },
                     port, fault, options);
      !status.ok()) {
    // Unwind the sink registration: with start() failed, stop() will be a
    // no-op, and the dispatcher must not keep notifying through a server
    // the caller is about to destroy.
    dispatcher_.set_client_sink(nullptr);
    return status;
  }
  started_ = true;
  return ok_status();
}

void TcpDispatcherServer::stop() {
  // Idempotent: a dead primary's server object may be stopped explicitly
  // and then destroyed after its Dispatcher is already gone — the second
  // stop must not touch the dangling reference.
  if (!started_) return;
  started_ = false;
  dispatcher_.set_client_sink(nullptr);
  rpc_.stop();
}

wire::Message TcpDispatcherServer::handle(wire::Message&& request) {
  if (m_requests_) m_requests_->inc();
  wire::Message reply = dispatch(std::move(request));
  if (m_errors_ && std::get_if<wire::ErrorReply>(&reply) != nullptr) {
    m_errors_->inc();
  }
  return reply;
}

wire::Message TcpDispatcherServer::dispatch(wire::Message&& request) {
  using namespace wire;
  if (const auto* m = std::get_if<CreateInstanceRequest>(&request)) {
    auto result = dispatcher_.create_instance(m->client_id);
    if (!result.ok()) return ErrorReply{result.error().code, result.error().message};
    return CreateInstanceReply{result.value()};
  }
  if (const auto* m = std::get_if<DestroyInstanceRequest>(&request)) {
    rpc_.unbind(kClientKeyBase + m->instance_id.value);
    auto result = dispatcher_.destroy_instance(m->instance_id);
    if (!result.ok()) return ErrorReply{result.error().code, result.error().message};
    return DestroyInstanceReply{};
  }
  if (auto* m = std::get_if<SubmitRequest>(&request)) {
    const std::uint64_t epoch = epoch_.load(std::memory_order_acquire);
    if (m->epoch != 0 && m->epoch != epoch) {
      // Fencing both ways: a client that learned a newer epoch must not be
      // accepted by this (zombie) server, and a client stamped with an old
      // epoch re-syncs via status() before retrying.
      return ErrorReply{ErrorCode::kUnavailable,
                        "epoch mismatch: request epoch " +
                            std::to_string(m->epoch) + ", server epoch " +
                            std::to_string(epoch)};
    }
    auto result =
        dispatcher_.submit(m->instance_id, std::move(m->tasks), m->submit_seq);
    if (!result.ok()) return ErrorReply{result.error().code, result.error().message};
    return SubmitReply{result.value(), epoch};
  }
  if (const auto* m = std::get_if<SubscribeResults>(&request)) {
    // (Re)subscribe / cumulative ack for push-mode result streaming. The
    // reply is a ResultStream carrying the dispatcher's current cursor and
    // no results — actual batches arrive as correlation-id-0 frames.
    auto result = dispatcher_.subscribe_results(m->instance_id, m->ack_seq);
    if (!result.ok()) return ErrorReply{result.error().code, result.error().message};
    ResultStream reply;
    reply.instance_id = m->instance_id;
    reply.seq = result.value();
    return reply;
  }
  if (const auto* m = std::get_if<WaitResultsRequest>(&request)) {
    auto result =
        dispatcher_.wait_results(m->instance_id, m->max_results, m->timeout_s);
    if (!result.ok()) return ErrorReply{result.error().code, result.error().message};
    WaitResultsReply reply;
    reply.results = result.take();
    return reply;
  }
  if (const auto* m = std::get_if<RegisterRequest>(&request)) {
    auto result = dispatcher_.register_executor(*m, sink_);
    if (!result.ok()) return ErrorReply{result.error().code, result.error().message};
    return RegisterReply{result.value(),
                         epoch_.load(std::memory_order_acquire)};
  }
  if (const auto* m = std::get_if<GetWorkRequest>(&request)) {
    auto result = dispatcher_.get_work(m->executor_id, m->max_tasks);
    if (!result.ok()) return ErrorReply{result.error().code, result.error().message};
    GetWorkReply reply;
    reply.tasks = result.take();
    return reply;
  }
  if (auto* m = std::get_if<ResultBundle>(&request)) {
    // Deliver {6} and ack {7} in one exchange: the reply acknowledges the
    // results and carries the next bundle (section 3.4).
    auto result = dispatcher_.deliver_results(
        m->executor_id, std::move(m->results), m->want_tasks);
    if (!result.ok()) return ErrorReply{result.error().code, result.error().message};
    TaskBundle reply;
    reply.executor_id = m->executor_id;
    reply.acknowledged = result.value().acknowledged;
    reply.tasks = std::move(result.value().piggyback);
    return reply;
  }
  if (const auto* m = std::get_if<HeartbeatRequest>(&request)) {
    auto result = dispatcher_.heartbeat(m->executor_id);
    if (!result.ok()) return ErrorReply{result.error().code, result.error().message};
    if (m->has_digest) {
      // Piggybacked cache digest (docs/DATA.md): refresh the locality
      // router's mirror in the same exchange that proves liveness.
      dispatcher_.apply_digest(m->executor_id, m->digest_generation,
                               m->data_port, m->cached);
    }
    return HeartbeatReply{};
  }
  if (const auto* m = std::get_if<CacheDigest>(&request)) {
    // Standalone digest refresh (same payload the heartbeat piggybacks);
    // unknown executors are a protocol error, not a transport teardown.
    auto entry = dispatcher_.heartbeat(m->executor_id);
    if (!entry.ok()) return ErrorReply{entry.error().code, entry.error().message};
    dispatcher_.apply_digest(m->executor_id, m->generation, m->data_port,
                             m->objects);
    return HeartbeatReply{};
  }
  if (const auto* m = std::get_if<DataEvict>(&request)) {
    // Incremental eviction notice: the object must stop attracting locality
    // routes immediately (invariant I11). Unknown executor or an object the
    // executor never advertised answers kNotFound — an ErrorReply, never a
    // connection teardown.
    auto result = dispatcher_.evict_cached_object(m->executor_id, m->object);
    if (!result.ok()) return ErrorReply{result.error().code, result.error().message};
    return HeartbeatReply{};
  }
  if (const auto* m = std::get_if<DeregisterRequest>(&request)) {
    // Transport cleanup rides the sink's on_removed hook (same path the
    // failure detector takes); unbind here too so an unknown executor —
    // where deregister_executor never fires the hook — still drops its
    // subscription.
    auto result = dispatcher_.deregister_executor(m->executor_id, m->reason);
    rpc_.unbind(m->executor_id.value);
    if (!result.ok()) return ErrorReply{result.error().code, result.error().message};
    return DeregisterReply{};
  }
  if (std::get_if<StatusRequest>(&request) != nullptr) {
    StatusReply reply = dispatcher_.status().to_wire();
    reply.epoch = epoch_.load(std::memory_order_acquire);
    return reply;
  }
  if (const auto* m = std::get_if<ReplFetch>(&request)) {
    ReplicationSource* source =
        replication_.load(std::memory_order_acquire);
    if (source == nullptr) {
      return ErrorReply{ErrorCode::kUnavailable,
                        "replication not enabled on this dispatcher"};
    }
    return repl_fetch_reply(*source, *m);
  }
  if (const auto* m = std::get_if<ReplAck>(&request)) {
    ReplicationSource* source =
        replication_.load(std::memory_order_acquire);
    if (source != nullptr) source->note_ack(m->applied_lsn);
    return ReplAckReply{};
  }
  if (std::get_if<ElectionPing>(&request) != nullptr) {
    // A running primary answers election pings as an already-promoted rank-0
    // contestant: any standby probing it stands down immediately.
    ElectionAck ack;
    ack.epoch = epoch_.load(std::memory_order_acquire);
    ack.rank = 0;
    ack.promoted = true;
    return ack;
  }
  return ErrorReply{ErrorCode::kProtocolError,
                    std::string("unhandled request: ") +
                        wire::msg_type_name(message_type(request))};
}

wire::Message repl_fetch_reply(ReplicationSource& source,
                               const wire::ReplFetch& fetch) {
  auto batch = source.fetch(fetch.from_lsn, fetch.max_bytes);
  if (fetch.epoch != 0 && fetch.epoch > batch.epoch) {
    // The follower has seen a newer regime than this source: we are the
    // stale side and must not feed it our (dead) branch of history.
    return wire::ErrorReply{ErrorCode::kUnavailable,
                            "stale replication source: follower epoch " +
                                std::to_string(fetch.epoch) +
                                " > source epoch " +
                                std::to_string(batch.epoch)};
  }
  if (batch.is_snapshot) {
    wire::ReplSnapshot reply;
    reply.lsn = batch.last_lsn;
    reply.payload = std::move(batch.payload);
    reply.epoch = batch.epoch;
    return reply;
  }
  wire::ReplAppend reply;
  reply.first_lsn = batch.first_lsn;
  reply.last_lsn = batch.last_lsn;
  reply.payload = std::move(batch.payload);
  reply.epoch = batch.epoch;
  return reply;
}

Status TcpExecutorHarness::Link::connect(const std::string& host,
                                         std::uint16_t rpc_port,
                                         fault::FaultInjector* fault,
                                         obs::Obs* obs) {
  std::lock_guard lock(mu_);
  host_ = host;
  rpc_port_ = rpc_port;
  fault_ = fault;
  obs_ = obs;
  return dial_locked();
}

void TcpExecutorHarness::Link::close() {
  std::lock_guard lock(mu_);
  rpc_.reset();
}

Status TcpExecutorHarness::Link::dial_locked() {
  auto client = net::RpcClient::connect(host_, rpc_port_, fault_, obs_);
  if (!client.ok()) return client.error();
  rpc_ = std::make_unique<net::RpcClient>(client.take());
  // Ahead of any request on the new connection: after a takeover the
  // promoted dispatcher can notify us as soon as it knows the id.
  subscribe_locked();
  return ok_status();
}

void TcpExecutorHarness::Link::subscribe_locked() {
  if (wake_ == nullptr || executor_id_ == 0 || rpc_ == nullptr) return;
  // A failed write surfaces on the next call, which re-dials and
  // subscribes again.
  (void)rpc_->subscribe(executor_id_, [wake = wake_](wire::Message message) {
    if (const auto* notify = std::get_if<wire::Notify>(&message)) {
      wake->notify(notify->resource_key);
    }
  });
}

Result<wire::Message> TcpExecutorHarness::Link::roundtrip(
    const wire::Message& request) {
  std::lock_guard lock(mu_);
  if (rpc_ == nullptr) {
    if (auto status = dial_locked(); !status.ok()) return status.error();
  }
  auto reply = rpc_->call(request);
  if (!reply.ok()) {
    const ErrorCode code = reply.error().code;
    if (code == ErrorCode::kIoError || code == ErrorCode::kClosed ||
        code == ErrorCode::kProtocolError || code == ErrorCode::kUnavailable) {
      // Transport-level failure: the stream may be desynchronised or dead.
      // Drop the connection so the next attempt dials fresh.
      rpc_.reset();
    }
  }
  return reply;
}

Result<ExecutorId> TcpExecutorHarness::Link::register_executor(
    const wire::RegisterRequest& request) {
  wire::RegisterRequest stamped = request;
  if (data_ != nullptr) {
    // Seed the dispatcher's cache mirror in the registration itself so a
    // warm executor (or one re-registering on a promoted standby) attracts
    // locality routes from its very first get-work.
    stamped.data_port = data_->port();
    stamped.cached = data_->digest().objects;
    sent_digest_generation_.store(~0ull, std::memory_order_release);
  }
  auto reply = expect<wire::RegisterReply>(roundtrip(stamped));
  if (!reply.ok()) return reply.error();
  epoch_.store(reply.value().epoch, std::memory_order_release);
  std::lock_guard lock(mu_);
  executor_id_ = reply.value().executor_id.value;
  subscribe_locked();
  return reply.value().executor_id;
}

Result<std::vector<TaskSpec>> TcpExecutorHarness::Link::get_work(
    ExecutorId executor, std::uint32_t max_tasks) {
  wire::GetWorkRequest request;
  request.executor_id = executor;
  request.max_tasks = max_tasks;
  auto reply = expect<wire::GetWorkReply>(roundtrip(request));
  if (!reply.ok()) return reply.error();
  return std::move(reply.value().tasks);
}

Result<std::vector<TaskSpec>> TcpExecutorHarness::Link::deliver_results(
    ExecutorId executor, std::vector<TaskResult> results,
    std::uint32_t want_tasks) {
  wire::ResultBundle request;
  request.executor_id = executor;
  request.results = std::move(results);
  request.want_tasks = want_tasks;
  auto reply = expect<wire::TaskBundle>(roundtrip(request));
  if (!reply.ok()) return reply.error();
  return std::move(reply.value().tasks);
}

Status TcpExecutorHarness::Link::deregister(ExecutorId executor,
                                            const std::string& reason) {
  wire::DeregisterRequest request;
  request.executor_id = executor;
  request.reason = reason;
  auto reply = expect<wire::DeregisterReply>(roundtrip(request));
  if (!reply.ok()) return reply.error();
  return ok_status();
}

Status TcpExecutorHarness::Link::heartbeat(ExecutorId executor) {
  wire::HeartbeatRequest request;
  request.executor_id = executor;
  std::uint64_t digest_generation = 0;
  if (data_ != nullptr) {
    // Incremental eviction notices first: a kDataEvict must land before the
    // dispatcher's next routing decision even when the digest below is
    // skipped as unchanged. kNotFound (already gone upstream) is fine.
    for (auto& object : data_->take_evict_notices()) {
      wire::DataEvict evict;
      evict.executor_id = executor;
      evict.object = std::move(object);
      (void)roundtrip(evict);
    }
    auto digest = data_->digest();
    digest_generation = digest.generation;
    if (digest_generation !=
        sent_digest_generation_.load(std::memory_order_acquire)) {
      request.has_digest = true;
      request.digest_generation = digest_generation;
      request.data_port = data_->port();
      request.cached = std::move(digest.objects);
    }
  }
  auto reply = expect<wire::HeartbeatReply>(roundtrip(request));
  if (!reply.ok()) return reply.error();
  if (request.has_digest) {
    sent_digest_generation_.store(digest_generation, std::memory_order_release);
  }
  return ok_status();
}

TcpExecutorHarness::TcpExecutorHarness(Clock& clock, std::string host,
                                       std::uint16_t port,
                                       std::unique_ptr<TaskEngine> engine,
                                       ExecutorOptions options)
    : clock_(clock),
      host_(std::move(host)),
      port_(port),
      options_(options),
      engine_(std::move(engine)) {
  runtime_ = std::make_unique<ExecutorRuntime>(clock_, link_, *engine_,
                                               options_);
  // Polling (firewall-bypass) mode wants no notifications at all.
  if (options_.poll_interval_s <= 0) link_.set_wake(runtime_.get());
}

TcpExecutorHarness::TcpExecutorHarness(Clock& clock, std::string host,
                                       std::uint16_t rpc_port,
                                       std::uint16_t /*push_port*/,
                                       std::unique_ptr<TaskEngine> engine,
                                       ExecutorOptions options)
    : TcpExecutorHarness(clock, std::move(host), rpc_port, std::move(engine),
                         options) {}

TcpExecutorHarness::~TcpExecutorHarness() { stop(); }

Status TcpExecutorHarness::start() {
  if (options_.data != nullptr) {
    // Bring the peer-to-peer fetch server up before registering: the
    // registration advertises its port, so it must already be listening.
    if (auto status = options_.data->start(); !status.ok()) return status;
    link_.set_data(options_.data);
  }
  if (auto status = link_.connect(host_, port_, options_.fault, options_.obs);
      !status.ok()) {
    return status;
  }
  return runtime_->start();
}

void TcpExecutorHarness::stop() {
  if (runtime_) runtime_->stop();
  link_.close();
}

Result<std::unique_ptr<TcpDispatcherClient>> TcpDispatcherClient::connect(
    const std::string& host, std::uint16_t rpc_port, bool stream) {
  auto rpc = net::RpcClient::connect(host, rpc_port);
  if (!rpc.ok()) return rpc.error();
  return std::unique_ptr<TcpDispatcherClient>(
      new TcpDispatcherClient(rpc.take(), stream));
}

// One cumulative-ack round trip per this many streamed results. The value
// trades dispatcher mailbox residency (un-acked results stay buffered
// server-side) against RPC rate on the client's hot receive loop.
inline constexpr std::uint64_t kAckBatchResults = 8192;

void StreamReceiver::on_frame(wire::ResultStream&& frame) {
  std::lock_guard lock(mu_);
  if (!resync_ && frame.seq == last_seq_ + frame.results.size()) {
    last_seq_ = frame.seq;
  } else {
    // Gap: a frame was lost in flight (or a stale pre-re-arm frame landed
    // late). Keep the results — the client's filter protects the caller —
    // but freeze the ack cursor until the next take() re-arms from zero.
    resync_ = true;
  }
  for (auto& result : frame.results) buffer_.push_back(std::move(result));
  cv_.notify_all();
}

std::vector<TaskResult> StreamReceiver::take(std::uint32_t max_results,
                                             double timeout_s,
                                             const Subscribe& subscribe) {
  std::vector<TaskResult> out;
  std::uint64_t ack = 0;
  bool resync = false;
  {
    std::unique_lock lock(mu_);
    cv_.wait_for(lock, std::chrono::duration<double>(std::max(0.0, timeout_s)),
                 [&] { return !buffer_.empty() || resync_; });
    while (out.size() < max_results && !buffer_.empty()) {
      out.push_back(std::move(buffer_.front()));
      buffer_.pop_front();
    }
    // Batched cumulative acks: one SubscribeResults round trip per
    // kAckBatchResults streamed results (or before a re-arm, to shrink the
    // re-stream) instead of one per drain — the steady-state receive loop
    // stays RPC-free, which is the point of push mode. Un-acked results
    // just sit in the dispatcher mailbox a little longer; on any failure
    // they re-deliver and the client's filter absorbs them.
    const std::uint64_t pending = last_seq_ - acked_seq_;
    if (pending > 0 && (pending >= kAckBatchResults || resync_)) {
      ack = last_seq_;
    }
    resync = resync_;
  }
  if (ack != 0) {
    // The dispatcher journals delivery and drops the acked prefix from the
    // mailbox. Failure is benign: the results re-stream or poll later.
    std::lock_guard ack_lock(ack_mu_);
    if (subscribe(ack)) {
      std::lock_guard lock(mu_);
      acked_seq_ = std::max(acked_seq_, ack);
    }
  }
  if (resync) (void)rearm(subscribe);
  return out;
}

bool StreamReceiver::rearm(const Subscribe& subscribe) {
  std::lock_guard ack_lock(ack_mu_);
  if (!subscribe(0)) return false;
  std::lock_guard lock(mu_);
  resync_ = false;
  last_seq_ = 0;
  acked_seq_ = 0;
  return true;
}

Result<InstanceId> TcpDispatcherClient::create_instance(ClientId client) {
  wire::CreateInstanceRequest request;
  request.client_id = client;
  auto reply = expect<wire::CreateInstanceReply>(rpc_.call(request));
  if (!reply.ok()) return reply.error();
  const InstanceId instance = reply.value().instance_id;
  if (!stream_) return instance;
  // Streaming regime: bind the instance key on this connection, then arm
  // the dispatcher's drain — in that order on the wire, so the drain
  // always finds the binding. Any failure here is absorbed: the instance
  // simply stays in polling mode.
  auto stream = std::make_shared<Stream>();
  {
    std::lock_guard lock(streams_mu_);
    streams_.emplace(instance.value, stream);
  }
  const bool armed =
      rpc_.subscribe(kClientKeyBase + instance.value,
                     [this](wire::Message message) {
                       on_push(std::move(message));
                     })
          .ok() &&
      stream->receiver.rearm([&](std::uint64_t ack_seq) {
        return subscribe_results(instance, ack_seq);
      });
  if (!armed) {
    std::lock_guard lock(streams_mu_);
    streams_.erase(instance.value);
  }
  return instance;
}

void TcpDispatcherClient::on_push(wire::Message message) {
  auto* frame = std::get_if<wire::ResultStream>(&message);
  if (frame == nullptr) return;  // e.g. a ClientNotify
  if (auto stream = find_stream(frame->instance_id)) {
    stream->receiver.on_frame(std::move(*frame));
  }
}

std::shared_ptr<TcpDispatcherClient::Stream> TcpDispatcherClient::find_stream(
    InstanceId instance) const {
  std::lock_guard lock(streams_mu_);
  auto it = streams_.find(instance.value);
  return it == streams_.end() ? nullptr : it->second;
}

bool TcpDispatcherClient::streaming(InstanceId instance) const {
  return find_stream(instance) != nullptr;
}

std::size_t TcpDispatcherClient::outstanding(InstanceId instance) const {
  auto stream = find_stream(instance);
  if (stream == nullptr) return 0;
  std::lock_guard lock(stream->mu);
  return stream->outstanding.size();
}

bool TcpDispatcherClient::subscribe_results(InstanceId instance,
                                            std::uint64_t ack_seq) {
  wire::SubscribeResults request;
  request.instance_id = instance;
  request.ack_seq = ack_seq;
  return expect<wire::ResultStream>(rpc_.call(request)).ok();
}

Result<std::vector<TaskResult>> TcpDispatcherClient::wait_streamed(
    InstanceId instance, Stream& stream, std::uint32_t max_results,
    double timeout_s) {
  std::vector<TaskResult> out;
  // The exactly-once filter: pushed frames, re-streams after a re-arm and
  // poll fallbacks all funnel through `outstanding`.
  auto keep_fresh = [&](std::vector<TaskResult>& results) {
    std::lock_guard lock(stream.mu);
    for (auto& result : results) {
      if (stream.outstanding.erase(result.task_id.value) != 0) {
        out.push_back(std::move(result));
      }
    }
  };
  auto pushed = stream.receiver.take(
      max_results, timeout_s, [&](std::uint64_t ack_seq) {
        return subscribe_results(instance, ack_seq);
      });
  keep_fresh(pushed);
  if (!out.empty()) return out;
  // Nothing pushed within the timeout: one-shot poll. This is the lost-
  // frame fallback — the dispatcher hands back its streamed-but-unacked
  // prefix (possibly duplicating buffered results; the filter absorbs it)
  // and re-arms its drain for anything left.
  wire::WaitResultsRequest request;
  request.instance_id = instance;
  request.max_results = max_results;
  request.timeout_s = 0;
  auto reply = expect<wire::WaitResultsReply>(rpc_.call(request));
  if (!reply.ok()) return reply.error();
  keep_fresh(reply.value().results);
  return out;
}

Result<std::uint64_t> TcpDispatcherClient::submit(InstanceId instance,
                                                  std::vector<TaskSpec> tasks) {
  if (auto stream = find_stream(instance)) {
    // Before the request leaves, so no result can beat its id here. A
    // failed submit keeps its ids: the dispatcher may have accepted the
    // tasks and only the reply was lost.
    std::lock_guard lock(stream->mu);
    for (const TaskSpec& task : tasks) stream->outstanding.insert(task.id.value);
  }
  wire::SubmitRequest request;
  request.instance_id = instance;
  request.tasks = std::move(tasks);
  auto reply = expect<wire::SubmitReply>(rpc_.call(request));
  if (!reply.ok()) return reply.error();
  return reply.value().accepted;
}

Result<std::vector<TaskResult>> TcpDispatcherClient::wait_results(
    InstanceId instance, std::uint32_t max_results, double timeout_s) {
  if (auto stream = find_stream(instance)) {
    return wait_streamed(instance, *stream, max_results, timeout_s);
  }
  wire::WaitResultsRequest request;
  request.instance_id = instance;
  request.max_results = max_results;
  request.timeout_s = timeout_s;
  auto reply = expect<wire::WaitResultsReply>(rpc_.call(request));
  if (!reply.ok()) return reply.error();
  return std::move(reply.value().results);
}

Status TcpDispatcherClient::destroy_instance(InstanceId instance) {
  {
    std::lock_guard lock(streams_mu_);
    streams_.erase(instance.value);
  }
  wire::DestroyInstanceRequest request;
  request.instance_id = instance;
  auto reply = expect<wire::DestroyInstanceReply>(rpc_.call(request));
  if (!reply.ok()) return reply.error();
  return ok_status();
}

Result<DispatcherStatus> TcpDispatcherClient::status() {
  auto reply = expect<wire::StatusReply>(rpc_.call(wire::StatusRequest{}));
  if (!reply.ok()) return reply.error();
  DispatcherStatus status;
  status.submitted = reply.value().submitted_tasks;
  status.queued = reply.value().queued_tasks;
  status.dispatched = reply.value().dispatched_tasks;
  status.completed = reply.value().completed_tasks;
  status.failed = reply.value().failed_tasks;
  status.retried = reply.value().retried_tasks;
  status.suspicions = reply.value().suspicions;
  status.false_suspicions = reply.value().false_suspicions;
  status.quarantined = reply.value().quarantined_tasks;
  status.registered_executors = reply.value().registered_executors;
  status.busy_executors = reply.value().busy_executors;
  status.idle_executors = reply.value().idle_executors;
  return status;
}

}  // namespace falkon::core
