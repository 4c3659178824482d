#include "ha/failover_client.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/logging.h"

namespace falkon::ha {
namespace {

/// Errors that mean "the connection (or the dispatcher behind it) is gone,
/// dial again": connection-level failures plus kUnavailable from a server
/// that is still starting up. Everything else is an application answer.
bool transport_error(ErrorCode code) {
  switch (code) {
    case ErrorCode::kIoError:
    case ErrorCode::kClosed:
    case ErrorCode::kProtocolError:
    case ErrorCode::kUnavailable:
      return true;
    default:
      return false;
  }
}

template <class T>
Result<T> expect(Result<wire::Message> reply) {
  if (!reply.ok()) return reply.error();
  if (auto* value = std::get_if<T>(&reply.value())) return std::move(*value);
  if (auto* error = std::get_if<wire::ErrorReply>(&reply.value())) {
    return make_error(error->code, error->message);
  }
  return make_error(ErrorCode::kProtocolError,
                    std::string("unexpected reply: ") +
                        wire::msg_type_name(wire::message_type(reply.value())));
}

}  // namespace

FailoverClient::FailoverClient(FailoverClientOptions options)
    : options_(std::move(options)) {
  if (options_.obs != nullptr) {
    auto& reg = options_.obs->registry();
    m_reconnects_ = &reg.counter("falkon.ha.client.reconnects");
    m_dup_results_ = &reg.counter("falkon.ha.client.duplicate_results");
  }
}

std::uint64_t FailoverClient::reconnects() const {
  std::lock_guard lock(mu_);
  return reconnects_;
}

std::uint64_t FailoverClient::epoch() const {
  std::lock_guard lock(mu_);
  return epoch_;
}

void FailoverClient::learn_epoch(std::uint64_t epoch) {
  std::lock_guard lock(mu_);
  epoch_ = std::max(epoch_, epoch);
}

Result<wire::Message> FailoverClient::call(const wire::Message& request) {
  double backoff_s = options_.backoff_initial_s;
  Error last = make_error(ErrorCode::kUnavailable, "never attempted");
  for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff_s));
      backoff_s = std::min(backoff_s * 2.0, options_.backoff_max_s);
    }
    std::unique_lock lock(mu_);
    if (!rpc_) {
      auto rpc = net::RpcClient::connect(options_.host, options_.rpc_port,
                                         options_.fault);
      if (!rpc.ok()) {
        last = rpc.error();
        reconnects_ += 1;
        if (m_reconnects_ != nullptr) m_reconnects_->inc();
        continue;
      }
      rpc_ = std::make_unique<net::RpcClient>(rpc.take());
      // Re-subscribe every streaming instance ahead of the request, so a
      // re-dialled connection (e.g. to a promoted standby) gets the frames.
      std::lock_guard streams_lock(streams_mu_);
      for (const auto& [instance, stream] : streams_) {
        subscribe_locked(instance);
      }
    }
    auto reply = rpc_->call(request);
    if (reply.ok()) return reply;
    last = reply.error();
    if (!transport_error(last.code)) return reply;
    if (last.code == ErrorCode::kUnavailable &&
        last.message.find("epoch mismatch") != std::string::npos) {
      // Not a dead connection but a fencing rejection: retrying the same
      // stamped request can never succeed. Surface it so submit() can
      // re-sync its epoch and re-stamp.
      return reply;
    }
    rpc_.reset();  // dial fresh next attempt (possibly the new primary)
    reconnects_ += 1;
    if (m_reconnects_ != nullptr) m_reconnects_->inc();
  }
  return make_error(last.code,
                    "gave up after " + std::to_string(options_.max_attempts) +
                        " attempts: " + last.message);
}

Result<InstanceId> FailoverClient::create_instance(ClientId client) {
  wire::CreateInstanceRequest request;
  request.client_id = client;
  auto reply = expect<wire::CreateInstanceReply>(call(request));
  if (!reply.ok()) return reply.error();
  const InstanceId instance = reply.value().instance_id;
  if (options_.stream) {
    auto stream = std::make_shared<core::StreamReceiver>();
    {
      std::lock_guard lock(streams_mu_);
      streams_.emplace(instance.value, stream);
    }
    {
      std::lock_guard lock(mu_);
      subscribe_locked(instance.value);
    }
    // If the connection drops first, call() re-dials and subscribes the
    // instance again before the re-arm goes out.
    (void)stream->rearm([&](std::uint64_t ack_seq) {
      return subscribe_results(instance, ack_seq);
    });
  }
  return instance;
}

void FailoverClient::subscribe_locked(std::uint64_t instance) {
  if (!rpc_) return;
  // A failed write surfaces on the next call, which re-dials and
  // subscribes again.
  (void)rpc_->subscribe(core::kClientKeyBase + instance,
                        [this](wire::Message message) {
                          on_push(std::move(message));
                        });
}

void FailoverClient::on_push(wire::Message message) {
  auto* frame = std::get_if<wire::ResultStream>(&message);
  if (frame == nullptr) return;
  if (auto stream = find_stream(frame->instance_id)) {
    stream->on_frame(std::move(*frame));
  }
}

std::shared_ptr<core::StreamReceiver> FailoverClient::find_stream(
    InstanceId instance) const {
  std::lock_guard lock(streams_mu_);
  auto it = streams_.find(instance.value);
  return it == streams_.end() ? nullptr : it->second;
}

bool FailoverClient::streaming(InstanceId instance) const {
  return find_stream(instance) != nullptr;
}

std::size_t FailoverClient::outstanding() const {
  std::lock_guard lock(outstanding_mu_);
  return outstanding_.size();
}

bool FailoverClient::subscribe_results(InstanceId instance,
                                       std::uint64_t ack_seq) {
  // call() rides out a takeover; a promoted dispatcher that restored the
  // instance in polling mode just clamps a stale ack harmlessly.
  wire::SubscribeResults request;
  request.instance_id = instance;
  request.ack_seq = ack_seq;
  return expect<wire::ResultStream>(call(request)).ok();
}

std::vector<TaskResult> FailoverClient::keep_fresh(
    std::vector<TaskResult> results) {
  std::vector<TaskResult> fresh;
  fresh.reserve(results.size());
  std::lock_guard lock(outstanding_mu_);
  for (TaskResult& result : results) {
    if (outstanding_.erase(result.task_id.value) != 0) {
      fresh.push_back(std::move(result));
    } else if (m_dup_results_ != nullptr) {
      m_dup_results_->inc();
    }
  }
  return fresh;
}

Result<std::uint64_t> FailoverClient::submit(InstanceId instance,
                                             std::vector<TaskSpec> tasks) {
  wire::SubmitRequest request;
  request.instance_id = instance;
  request.tasks = std::move(tasks);
  {
    // The sequence makes the retried call idempotent: a dispatcher (old or
    // promoted) that journaled this sequence acks without re-enqueueing.
    std::lock_guard lock(mu_);
    request.submit_seq = ++submit_seq_;
  }
  {
    // Once, before the first send: transport retries and the epoch re-sync
    // re-send this same submit_seq. A failed submit keeps its ids, because
    // the dispatcher may have journaled it.
    std::lock_guard lock(outstanding_mu_);
    for (const TaskSpec& task : request.tasks) {
      outstanding_.insert(task.id.value);
    }
  }
  for (int sync_attempts = 0;; ++sync_attempts) {
    {
      std::lock_guard lock(mu_);
      request.epoch = epoch_;
    }
    auto reply = expect<wire::SubmitReply>(call(request));
    if (reply.ok()) {
      learn_epoch(reply.value().epoch);
      return reply.value().accepted;
    }
    if (sync_attempts == 0 && reply.error().code == ErrorCode::kUnavailable &&
        reply.error().message.find("epoch mismatch") != std::string::npos) {
      // Our stamp is stale (a standby promoted since we last heard from a
      // dispatcher): learn the current epoch and re-send the same
      // submit_seq — the journal makes the retry idempotent.
      if (auto st = status(); !st.ok()) return reply.error();
      continue;
    }
    return reply.error();
  }
}

Result<std::vector<TaskResult>> FailoverClient::wait_results(
    InstanceId instance, std::uint32_t max_results, double timeout_s) {
  if (auto stream = find_stream(instance)) {
    return wait_streamed(instance, *stream, max_results, timeout_s);
  }
  wire::WaitResultsRequest request;
  request.instance_id = instance;
  request.max_results = max_results;
  request.timeout_s = timeout_s;
  auto reply = expect<wire::WaitResultsReply>(call(request));
  if (!reply.ok()) return reply.error();
  return keep_fresh(std::move(reply.value().results));
}

Result<std::vector<TaskResult>> FailoverClient::wait_streamed(
    InstanceId instance, core::StreamReceiver& stream,
    std::uint32_t max_results, double timeout_s) {
  // Delayed acks only delay the on_delivered journal barrier; after a
  // takeover the un-acked tail re-delivers and the outstanding filter
  // absorbs it.
  const core::StreamReceiver::Subscribe subscribe = [&](std::uint64_t ack_seq) {
    return subscribe_results(instance, ack_seq);
  };
  auto fresh = keep_fresh(stream.take(max_results, timeout_s, subscribe));
  if (!fresh.empty()) return fresh;
  // No frames for the whole timeout: one-shot poll. After a takeover this
  // is the path that keeps results flowing (the promoted dispatcher
  // restores instances unsubscribed), so a poll that finds results while
  // we believe we are streaming doubles as the signal to re-arm against
  // the new regime.
  wire::WaitResultsRequest request;
  request.instance_id = instance;
  request.max_results = max_results;
  request.timeout_s = 0;
  auto reply = expect<wire::WaitResultsReply>(call(request));
  if (!reply.ok()) return reply.error();
  if (!reply.value().results.empty()) (void)stream.rearm(subscribe);
  return keep_fresh(std::move(reply.value().results));
}

Status FailoverClient::destroy_instance(InstanceId instance) {
  {
    std::lock_guard lock(streams_mu_);
    streams_.erase(instance.value);
  }
  wire::DestroyInstanceRequest request;
  request.instance_id = instance;
  auto reply = expect<wire::DestroyInstanceReply>(call(request));
  if (!reply.ok()) return reply.error();
  return ok_status();
}

Result<core::DispatcherStatus> FailoverClient::status() {
  auto reply = expect<wire::StatusReply>(call(wire::StatusRequest{}));
  if (!reply.ok()) return reply.error();
  learn_epoch(reply.value().epoch);
  core::DispatcherStatus status;
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

}  // namespace falkon::ha
