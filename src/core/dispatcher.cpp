#include "core/dispatcher.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <iterator>

#include "common/logging.h"
#include "common/strings.h"

namespace falkon::core {

namespace {
// Stream-drain frame sizing. The cap bounds the copy done under the
// mailbox lock and the encoded frame; the minimum is the coalescing target
// — a delivering thread streams inline once a full minimum frame is
// queued, smaller tails flush via the notify pool.
constexpr std::size_t kMaxStreamFrameResults = 4096;
constexpr std::size_t kMinStreamFrameResults = 1024;
// Shards in the executor registry. Executor ids hash onto shards, so
// exchanges from different executors proceed under different locks.
constexpr std::size_t kExecutorShards = 8;
}  // namespace

wire::StatusReply DispatcherStatus::to_wire() const {
  wire::StatusReply reply;
  reply.submitted_tasks = submitted;
  reply.queued_tasks = queued;
  reply.dispatched_tasks = dispatched;
  reply.completed_tasks = completed;
  reply.failed_tasks = failed;
  reply.retried_tasks = retried;
  reply.suspicions = suspicions;
  reply.false_suspicions = false_suspicions;
  reply.quarantined_tasks = quarantined;
  reply.registered_executors = registered_executors;
  reply.busy_executors = busy_executors;
  reply.idle_executors = idle_executors;
  return reply;
}

Dispatcher::Dispatcher(Clock& clock, DispatcherConfig config,
                       std::unique_ptr<DispatchPolicy> policy)
    : clock_(clock),
      config_(config),
      policy_(policy ? std::move(policy)
                     : std::make_unique<NextAvailablePolicy>()),
      policy_head_only_(policy_->selects_queue_head()),
      policy_first_idle_(policy_->selects_first_idle()),
      notify_pool_(static_cast<std::size_t>(std::max(1, config.notify_threads)),
                   "notify") {
  shards_ = std::make_unique<Shard[]>(kExecutorShards);
  if (config_.obs != nullptr) {
    obs::Registry& reg = config_.obs->registry();
    tracer_ = &config_.obs->tracer();
    m_submitted_ = &reg.counter("falkon.dispatcher.tasks_submitted");
    m_dispatched_ = &reg.counter("falkon.dispatcher.tasks_dispatched");
    m_completed_ = &reg.counter("falkon.dispatcher.tasks_completed");
    m_failed_ = &reg.counter("falkon.dispatcher.tasks_failed");
    m_retried_ = &reg.counter("falkon.dispatcher.tasks_retried");
    m_notifications_ = &reg.counter("falkon.dispatcher.notifications");
    m_heartbeats_ = &reg.counter("falkon.dispatcher.heartbeats");
    m_suspicions_ = &reg.counter("falkon.dispatcher.suspicions");
    m_false_suspicions_ = &reg.counter("falkon.dispatcher.false_suspicions");
    m_quarantined_ = &reg.counter("falkon.dispatcher.tasks_quarantined");
    m_renotifies_ = &reg.counter("falkon.dispatcher.renotifies");
    m_sweeps_ = &reg.counter("falkon.dispatcher.sweeps");
    m_queue_depth_ = &reg.gauge("falkon.dispatcher.queue_depth");
    m_queue_time_ = &reg.histogram("falkon.task.queue_time_s", 1e-6, 1e4);
    m_overhead_ = &reg.histogram("falkon.task.overhead_s", 1e-6, 1e4);
    m_bundle_size_ = &reg.histogram("falkon.dispatcher.bundle_size", 1.0, 4096.0);
    m_lock_wait_ = &reg.histogram("falkon.dispatcher.lock_wait_s", 1e-9, 1.0);
    m_queue_lock_wait_ =
        &reg.histogram("falkon.dispatcher.queue_lock_wait_s", 1e-9, 1.0);
    m_inst_lock_wait_ =
        &reg.histogram("falkon.dispatcher.inst_lock_wait_s", 1e-9, 1.0);
    m_route_batches_ = &reg.counter("falkon.dispatcher.route_batches");
    m_route_results_ = &reg.counter("falkon.dispatcher.route_results");
    m_route_batch_size_ =
        &reg.histogram("falkon.dispatcher.route_batch_size", 1.0, 4096.0);
    m_stream_pushed_ = &reg.counter("falkon.dispatcher.stream.results_pushed");
    m_stream_frames_ = &reg.counter("falkon.dispatcher.stream.frames");
    m_stream_acked_ = &reg.counter("falkon.dispatcher.stream.results_acked");
    m_stream_push_failures_ =
        &reg.counter("falkon.dispatcher.stream.push_failures");
    m_data_stale_routes_ = &reg.counter("falkon.data.stale_routes");
    m_data_overwait_ = &reg.counter("falkon.data.locality_overwait");
    m_data_deferrals_ = &reg.counter("falkon.data.locality_deferrals");
    m_data_digests_ = &reg.counter("falkon.data.digests_applied");
    m_data_evictions_ = &reg.counter("falkon.data.evictions");
  }
  if (config_.sweep_interval_s > 0) {
    sweeper_ = std::thread([this] {
      set_thread_name("sweeper");
      sweeper_loop();
    });
  }
}

Dispatcher::~Dispatcher() { shutdown(); }

void Dispatcher::shutdown() {
  if (shutdown_.exchange(true)) return;
  {
    std::lock_guard lock(inst_mu_);
    for (auto& [id, instance] : instances_) {
      std::lock_guard ilock(instance->mu);
      instance->open = false;
      instance->cv.notify_all();
    }
  }
  if (sweeper_.joinable()) {
    {
      std::lock_guard lock(sweep_mu_);
      sweep_stop_ = true;
    }
    sweep_cv_.notify_all();
    sweeper_.join();
  }
  notify_pool_.shutdown();
}

void Dispatcher::sweeper_loop() {
  std::unique_lock lock(sweep_mu_);
  for (;;) {
    // Model-time interval -> real wait for scaled clocks; the cv makes
    // shutdown prompt regardless of the interval.
    const double real_interval = config_.sweep_interval_s / clock_.rate();
    sweep_cv_.wait_for(lock, std::chrono::duration<double>(real_interval),
                       [&] { return sweep_stop_; });
    if (sweep_stop_) return;
    lock.unlock();
    sweep_once();
    lock.lock();
  }
}

void Dispatcher::sweep_once() {
  if (shutdown_.load()) return;
  if (m_sweeps_) m_sweeps_->inc();
  (void)check_replays();
  (void)check_liveness();
  renotify_stale();
}

// ---------------------------------------------------------------- registry

Dispatcher::Shard& Dispatcher::shard_for(std::uint64_t executor_value) {
  return shards_[executor_value % kExecutorShards];
}

std::shared_ptr<Dispatcher::ExecutorEntry> Dispatcher::find_entry(
    std::uint64_t executor_value) {
  Shard& shard = shard_for(executor_value);
  std::lock_guard lock(shard.mu);
  auto it = shard.entries.find(executor_value);
  return it == shard.entries.end() ? nullptr : it->second;
}

std::vector<std::shared_ptr<Dispatcher::ExecutorEntry>>
Dispatcher::snapshot_entries() {
  std::vector<std::shared_ptr<ExecutorEntry>> out;
  out.reserve(registered_.load(std::memory_order_relaxed));
  for (std::size_t i = 0; i < kExecutorShards; ++i) {
    std::lock_guard lock(shards_[i].mu);
    for (auto& [id, entry] : shards_[i].entries) out.push_back(entry);
  }
  return out;
}

std::unique_lock<std::mutex> Dispatcher::timed_lock(std::mutex& mu,
                                                    obs::Histogram* wait) {
  if (wait == nullptr) return std::unique_lock(mu);
  std::unique_lock lock(mu, std::try_to_lock);
  if (lock.owns_lock()) return lock;
  const auto t0 = std::chrono::steady_clock::now();
  lock.lock();
  wait->record(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count());
  return lock;
}

void Dispatcher::idle_erase(std::uint64_t executor_value) {
  if (!policy_first_idle_) return;
  std::lock_guard lock(idle_mu_);
  idle_set_.erase(executor_value);
}

void Dispatcher::idle_insert(std::uint64_t executor_value) {
  if (!policy_first_idle_) return;
  std::lock_guard lock(idle_mu_);
  idle_set_.insert(executor_value);
}

void Dispatcher::set_state_locked(ExecutorEntry& entry, ExecState next) {
  if (entry.state == next) return;
  if (entry.state == ExecState::kBusy) {
    busy_.fetch_sub(1, std::memory_order_relaxed);
  }
  if (entry.state == ExecState::kNotified) {
    promised_.fetch_sub(entry.pull, std::memory_order_relaxed);
  }
  if (next == ExecState::kBusy) {
    busy_.fetch_add(1, std::memory_order_relaxed);
  }
  if (next == ExecState::kNotified) {
    promised_.fetch_add(entry.pull, std::memory_order_relaxed);
  }
  entry.state = next;
  if (policy_first_idle_) {
    if (next == ExecState::kIdle && !entry.removed &&
        !entry.release_requested) {
      idle_insert(entry.id.value);
    } else {
      idle_erase(entry.id.value);
    }
  }
}

void Dispatcher::cache_insert_locked(ExecutorEntry& entry,
                                     const std::string& object) {
  if (entry.cached_objects != nullptr &&
      entry.cached_objects->count(object) > 0) {
    return;
  }
  auto next = entry.cached_objects
                  ? std::make_shared<std::unordered_set<std::string>>(
                        *entry.cached_objects)
                  : std::make_shared<std::unordered_set<std::string>>();
  next->insert(object);
  entry.cached_objects = std::move(next);
  holders_add(object, entry.id.value);
}

void Dispatcher::cache_erase_locked(ExecutorEntry& entry,
                                    const std::string& object) {
  if (entry.cached_objects == nullptr ||
      entry.cached_objects->count(object) == 0) {
    return;
  }
  auto next = std::make_shared<std::unordered_set<std::string>>(
      *entry.cached_objects);
  next->erase(object);
  entry.cached_objects = std::move(next);
  holders_remove(object, entry.id.value);
}

void Dispatcher::holders_add(const std::string& object,
                             std::uint64_t executor_value) {
  std::lock_guard lock(data_mu_);
  holders_[object].insert(executor_value);
}

void Dispatcher::holders_remove(const std::string& object,
                                std::uint64_t executor_value) {
  std::lock_guard lock(data_mu_);
  auto it = holders_.find(object);
  if (it == holders_.end()) return;
  it->second.erase(executor_value);
  if (it->second.empty()) holders_.erase(it);
}

std::string Dispatcher::alternate_holder(const std::string& object,
                                         std::uint64_t exclude) {
  std::lock_guard lock(data_mu_);
  auto it = holders_.find(object);
  if (it == holders_.end()) return {};
  for (const auto value : it->second) {
    if (value == exclude) continue;
    auto eit = data_endpoints_.find(value);
    if (eit != data_endpoints_.end() && !eit->second.empty()) {
      return eit->second;
    }
  }
  return {};
}

ExecutorCandidate Dispatcher::candidate_of(const ExecutorEntry& entry) {
  ExecutorCandidate candidate;
  candidate.id = entry.id;
  // Snapshot of the copy-on-write cache set: the probe stays valid after
  // the entry lock is released.
  candidate.has_cached = [objects = entry.cached_objects](
                             const std::string& object) {
    return objects != nullptr && objects->count(object) > 0;
  };
  return candidate;
}

Error Dispatcher::unknown_executor(std::uint64_t executor_value) {
  bool was_suspected;
  {
    std::lock_guard lock(suspect_mu_);
    was_suspected = suspected_.erase(executor_value) > 0;
  }
  if (was_suspected) {
    // The "dead" executor spoke again: the detector was wrong.
    n_false_suspicions_.fetch_add(1, std::memory_order_relaxed);
    if (m_false_suspicions_) m_false_suspicions_->inc();
  }
  return Error{ErrorCode::kNotFound, "executor not registered"};
}

// ------------------------------------------------------------------ client

Result<InstanceId> Dispatcher::create_instance(ClientId client) {
  InstanceId id;
  {
    auto lock = timed_lock(inst_mu_, m_inst_lock_wait_);
    if (shutdown_.load(std::memory_order_relaxed)) {
      return make_error(ErrorCode::kClosed, "dispatcher shut down");
    }
    id = instance_ids_.next();
    auto instance = std::make_shared<Instance>();
    instance->client = client;
    instances_[id.value] = std::move(instance);
    if (config_.journal) config_.journal->on_instance_created(id, client);
  }
  // Durability barrier outside the lock: the instance id handed back must
  // survive a failover (async journals drain their queue here).
  if (config_.journal) config_.journal->barrier();
  return id;
}

Status Dispatcher::destroy_instance(InstanceId instance_id) {
  std::shared_ptr<Instance> instance;
  {
    auto lock = timed_lock(inst_mu_, m_inst_lock_wait_);
    auto it = instances_.find(instance_id.value);
    if (it == instances_.end()) {
      return make_error(ErrorCode::kNotFound, "no such instance");
    }
    instance = it->second;
    instances_.erase(it);
    // Drop this instance's queued runs; in-flight tasks will be discarded
    // at delivery time because the instance is gone.
    auto qlock = timed_lock(queue_mu_, m_queue_lock_wait_);
    (void)queue_.drop_instance(instance_id);
    queue_size_.store(queue_.size(), std::memory_order_relaxed);
    if (m_queue_depth_) m_queue_depth_->set(static_cast<double>(queue_.size()));
    if (config_.journal) config_.journal->on_instance_destroyed(instance_id);
  }
  {
    std::lock_guard ilock(instance->mu);
    instance->open = false;
  }
  instance->cv.notify_all();
  return ok_status();
}

Result<std::uint64_t> Dispatcher::submit(InstanceId instance_id,
                                         std::vector<TaskSpec> tasks,
                                         std::uint64_t submit_seq) {
  // Validate before taking any lock, so a bad bundle never half-enqueues
  // (and never reaches the journal) and the locks below cover O(1) work.
  for (const auto& spec : tasks) {
    if (!spec.id.valid()) {
      return make_error(ErrorCode::kInvalidArgument, "task without id");
    }
  }
  const auto accepted = static_cast<std::uint64_t>(tasks.size());
  {
    auto lock = timed_lock(inst_mu_, m_inst_lock_wait_);
    if (shutdown_.load(std::memory_order_relaxed)) {
      return make_error(ErrorCode::kClosed, "dispatcher shut down");
    }
    auto it = instances_.find(instance_id.value);
    if (it == instances_.end()) {
      return make_error(ErrorCode::kNotFound, "no such instance");
    }
    if (submit_seq != 0) {
      if (submit_seq <= it->second->last_submit_seq) {
        // Duplicate of a submit already accepted (the client retried after
        // a failover ate its reply): acknowledge idempotently, enqueue
        // nothing — the tasks are already in the queue or the journal.
        return accepted;
      }
      it->second->last_submit_seq = submit_seq;
    }
    const double now = clock_.now_s();
    if (tracer_ != nullptr && tracer_->enabled()) {
      // Ahead of queue_mu_: get_work cannot see the tasks before the push.
      for (const auto& spec : tasks) {
        tracer_->instant(spec.id, obs::Stage::kSubmit, now);
      }
    }
    auto qlock = timed_lock(queue_mu_, m_queue_lock_wait_);
    // Journal before the tasks become visible to get_work (see the ordering
    // contract in core/journal.h).
    if (config_.journal) {
      config_.journal->on_submit(instance_id, submit_seq, tasks);
    }
    queue_.push_back(std::move(tasks),
                     WaitQueue::Meta{instance_id, now, 0, {}});
    queue_size_.store(queue_.size(), std::memory_order_relaxed);
    if (m_submitted_) {
      m_submitted_->inc(accepted);
      m_queue_depth_->set(static_cast<double>(queue_.size()));
    }
  }
  // Durability barrier outside inst_mu_/queue_mu_: the submit ack implies
  // the RecSubmit reached the WAL even when journaling is asynchronous.
  if (config_.journal) config_.journal->barrier();
  n_submitted_.fetch_add(accepted, std::memory_order_relaxed);
  pump_notifications();
  return accepted;
}

Result<std::vector<TaskResult>> Dispatcher::wait_results(
    InstanceId instance_id, std::uint32_t max_results, double timeout_s) {
  std::shared_ptr<Instance> instance;
  {
    auto lock = timed_lock(inst_mu_, m_inst_lock_wait_);
    auto it = instances_.find(instance_id.value);
    if (it == instances_.end()) {
      return make_error(ErrorCode::kNotFound, "no such instance");
    }
    instance = it->second;
  }
  if (max_results == 0) max_results = 1;
  // Model-time timeout -> real wait for scaled clocks.
  const double real_timeout = timeout_s / clock_.rate();
  std::unique_lock ilock(instance->mu);
  instance->cv.wait_for(
      ilock, std::chrono::duration<double>(real_timeout),
      [&] { return !instance->results.empty() || !instance->open; });
  // Bulk-move the drained range out of the mailbox: one reserve + one
  // range move + one erase instead of a push_back/pop_front pair per
  // result under the mailbox lock.
  const std::size_t take =
      std::min<std::size_t>(instance->results.size(), max_results);
  std::vector<TaskResult> out;
  out.reserve(take);
  const auto first = instance->results.begin();
  const auto last = first + static_cast<std::ptrdiff_t>(take);
  out.assign(std::make_move_iterator(first), std::make_move_iterator(last));
  instance->results.erase(first, last);
  // Journal the pick-up while still holding the mailbox lock: after
  // recovery these results must not be re-delivered (docs/HA.md).
  if (config_.journal && !out.empty()) {
    std::vector<TaskId> ids;
    ids.reserve(out.size());
    for (const auto& result : out) ids.push_back(result.task_id);
    config_.journal->on_delivered(instance_id, ids);
  }
  if (take > 0 && instance->streaming) {
    // A poll raced the push stream: whatever the drain had pushed may just
    // have been consumed here instead. Reset the regime — the surviving
    // mailbox re-streams under fresh cursor positions and the client's
    // task-id dedup absorbs any overlap. Loss is impossible either way:
    // results only leave the mailbox here (journaled above) or on ack.
    instance->streamed_prefix = 0;
    instance->stream_acked = instance->stream_pushed;
    ++instance->stream_epoch;
    if (!instance->results.empty()) {
      schedule_drain_locked(instance_id, instance);
    }
  }
  if (out.empty() && !instance->open) {
    return make_error(ErrorCode::kClosed, "instance destroyed");
  }
  return out;
}

Result<std::uint64_t> Dispatcher::subscribe_results(InstanceId instance_id,
                                                    std::uint64_t ack_seq) {
  std::shared_ptr<Instance> instance;
  {
    auto lock = timed_lock(inst_mu_, m_inst_lock_wait_);
    auto it = instances_.find(instance_id.value);
    if (it == instances_.end()) {
      return make_error(ErrorCode::kNotFound, "no such instance");
    }
    instance = it->second;
  }
  std::uint64_t cursor = 0;
  {
    std::lock_guard ilock(instance->mu);
    if (ack_seq == 0) {
      // (Re)subscribe: start a fresh streaming regime. The whole backlog —
      // including results pushed under the previous regime — re-streams
      // from seq 1; the client resets its cursor on subscribe and dedups
      // re-deliveries by task id.
      instance->streaming = true;
      instance->streamed_prefix = 0;
      instance->stream_pushed = 0;
      instance->stream_acked = 0;
      ++instance->stream_epoch;
    } else {
      // Cumulative acknowledgement. Clamped to [acked, pushed] so a stale
      // or duplicate ack can never pop more than was actually streamed in
      // this regime. (Clients serialise SubscribeResults calls per
      // instance, so an ack never overtakes the subscribe that reset the
      // regime.)
      const std::uint64_t acked =
          std::min(std::max(ack_seq, instance->stream_acked),
                   instance->stream_pushed);
      const std::uint64_t delta = acked - instance->stream_acked;
      const std::size_t pop = static_cast<std::size_t>(
          std::min<std::uint64_t>(delta, instance->streamed_prefix));
      if (pop > 0) {
        // Journal while still holding the mailbox lock, exactly like
        // wait_results: an acknowledged result must never be re-delivered
        // after failover (docs/HA.md).
        if (config_.journal) {
          std::vector<TaskId> ids;
          ids.reserve(pop);
          for (std::size_t i = 0; i < pop; ++i) {
            ids.push_back(instance->results[i].task_id);
          }
          config_.journal->on_delivered(instance_id, ids);
        }
        const auto first = instance->results.begin();
        instance->results.erase(first, first + static_cast<std::ptrdiff_t>(pop));
        instance->streamed_prefix -= pop;
        if (m_stream_acked_) m_stream_acked_->inc(pop);
      }
      instance->stream_acked = acked;
    }
    cursor = instance->stream_pushed;
    if (instance->streaming &&
        instance->streamed_prefix < instance->results.size()) {
      schedule_drain_locked(instance_id, instance);
    }
  }
  return cursor;
}

void Dispatcher::restore(const DispatcherImage& image) {
  const double now = clock_.now_s();
  auto lock = timed_lock(inst_mu_, m_inst_lock_wait_);
  auto qlock = timed_lock(queue_mu_, m_queue_lock_wait_);
  for (const auto& inst : image.instances) {
    auto instance = std::make_shared<Instance>();
    instance->client = inst.client;
    instance->last_submit_seq = inst.last_submit_seq;
    // Undelivered results go back into the mailbox; the client-side dedup
    // set absorbs any the old primary managed to deliver after journaling.
    for (const auto& result : inst.mailbox) {
      instance->results.push_back(result);
    }
    instances_[inst.id.value] = std::move(instance);
  }
  instance_ids_.reset(image.next_instance_id);
  for (const auto& queued : image.queue) {
    queue_.requeue(
        WaitQueue::Task{queued.spec,
                        WaitQueue::Meta{queued.instance, now, queued.attempts,
                                        {}}},
        /*front=*/false);
  }
  queue_size_.store(queue_.size(), std::memory_order_relaxed);
  if (m_queue_depth_) m_queue_depth_->set(static_cast<double>(queue_.size()));
  n_submitted_.store(image.submitted, std::memory_order_relaxed);
  n_completed_.store(image.completed, std::memory_order_relaxed);
  n_failed_.store(image.failed, std::memory_order_relaxed);
  n_retried_.store(image.retried, std::memory_order_relaxed);
  n_quarantined_.store(image.quarantined, std::memory_order_relaxed);
}

// ---------------------------------------------------------------- executor

Result<ExecutorId> Dispatcher::register_executor(
    const wire::RegisterRequest& request, std::shared_ptr<ExecutorSink> sink) {
  if (shutdown_.load(std::memory_order_relaxed)) {
    return make_error(ErrorCode::kClosed, "dispatcher shut down");
  }
  ExecutorId id;
  {
    std::lock_guard lock(ids_mu_);
    id = executor_ids_.next();
  }
  auto entry = std::make_shared<ExecutorEntry>();
  entry->id = id;
  entry->info = request;
  entry->sink = std::move(sink);
  entry->registered_s = clock_.now_s();
  entry->last_heartbeat_s = entry->registered_s;
  {
    Shard& shard = shard_for(id.value);
    std::lock_guard lock(shard.mu);
    shard.entries.emplace(id.value, std::move(entry));
  }
  registered_.fetch_add(1, std::memory_order_relaxed);
  // Registration-time cache digest (data diffusion): seed the mirror and
  // P2P endpoint before the first notification can route on this executor.
  if (request.data_port != 0 || !request.cached.empty()) {
    apply_digest(id, /*generation=*/0, request.data_port, request.cached);
  }
  idle_insert(id.value);  // fresh entries start idle
  pump_notifications();
  return id;
}

WaitQueue::Task Dispatcher::to_queued(DispatchedTask task) {
  return WaitQueue::Task{
      std::move(task.spec),
      WaitQueue::Meta{task.instance, task.enqueue_s, task.attempts,
                      std::move(task.killers)}};
}

void Dispatcher::requeue_task(WaitQueue::Task task, bool front) {
  auto qlock = timed_lock(queue_mu_, m_queue_lock_wait_);
  queue_.requeue(std::move(task), front);
  queue_size_.store(queue_.size(), std::memory_order_relaxed);
  if (m_queue_depth_) m_queue_depth_->set(static_cast<double>(queue_.size()));
}

bool Dispatcher::remove_executor(std::uint64_t executor_value,
                                 const std::string& reason, bool blame,
                                 std::vector<PendingRoute>& to_route) {
  std::shared_ptr<ExecutorEntry> entry;
  {
    Shard& shard = shard_for(executor_value);
    std::lock_guard lock(shard.mu);
    auto it = shard.entries.find(executor_value);
    if (it == shard.entries.end()) return false;
    entry = std::move(it->second);
    shard.entries.erase(it);
  }
  registered_.fetch_sub(1, std::memory_order_relaxed);
  std::size_t requeued = 0;
  {
    std::lock_guard elock(entry->mu);
    entry->removed = true;
    // Purge the data-diffusion index: a dead executor must not be offered
    // as a P2P source or a locality target (I11).
    {
      std::lock_guard dlock(data_mu_);
      if (entry->cached_objects != nullptr) {
        for (const auto& object : *entry->cached_objects) {
          auto it = holders_.find(object);
          if (it == holders_.end()) continue;
          it->second.erase(executor_value);
          if (it->second.empty()) holders_.erase(it);
        }
      }
      data_endpoints_.erase(executor_value);
    }
    // set_state_locked early-returns when the entry was already idle, so
    // drop it from the idle set explicitly — removed executors must never
    // be notification candidates.
    idle_erase(executor_value);
    set_state_locked(*entry, ExecState::kIdle);
    // Requeue anything in flight on this executor; under `blame` the death
    // is charged to the tasks it held, and a task that has now killed
    // config_.quarantine_threshold distinct executors is poison — fail it
    // permanently instead of handing it to yet another victim.
    for (auto& [task_id, dispatched] : entry->dispatched) {
      DispatchedTask task = std::move(dispatched);
      dispatched_count_.fetch_sub(1, std::memory_order_relaxed);
      if (blame && std::find(task.killers.begin(), task.killers.end(),
                             executor_value) == task.killers.end()) {
        task.killers.push_back(executor_value);
      }
      if (blame && config_.quarantine_threshold > 0 &&
          static_cast<int>(task.killers.size()) >=
              config_.quarantine_threshold) {
        n_quarantined_.fetch_add(1, std::memory_order_relaxed);
        n_failed_.fetch_add(1, std::memory_order_relaxed);
        if (m_quarantined_) m_quarantined_->inc();
        if (m_failed_) m_failed_->inc();
        LOG_WARN("dispatcher",
                 "task %llu quarantined after killing %zu executors",
                 static_cast<unsigned long long>(task.spec.id.value),
                 task.killers.size());
        TaskResult result;
        result.task_id = task.spec.id;
        result.executor_id = ExecutorId{executor_value};
        result.state = TaskState::kFailed;
        result.exit_code = -1;
        result.stderr_data = "quarantined: poison task killed " +
                             std::to_string(task.killers.size()) +
                             " executors";
        result.queue_time_s = task.dispatch_s - task.enqueue_s;
        if (config_.journal) {
          config_.journal->on_complete(task.instance, result,
                                       /*quarantined=*/true);
        }
        to_route.push_back(PendingRoute{task.instance, std::move(result)});
        continue;
      }
      if (config_.journal) {
        config_.journal->on_requeue({task.spec.id}, /*retry=*/false);
      }
      requeue_task(to_queued(std::move(task)), /*front=*/true);
      ++requeued;
    }
    entry->dispatched.clear();
    entry->inflight = 0;
  }
  // Outside the entry lock: let the transport drop per-executor state (its
  // push subscription) no matter which path removed the executor — orderly
  // deregister, failure detector, or poison blame.
  if (entry->sink) entry->sink->on_removed(ExecutorId{executor_value});
  LOG_DEBUG("dispatcher", "executor %llu deregistered (%s), %zu tasks requeued",
            static_cast<unsigned long long>(executor_value), reason.c_str(),
            requeued);
  return true;
}

Status Dispatcher::deregister_executor(ExecutorId executor_id,
                                       const std::string& reason) {
  // An orderly deregistration never blames the executor's tasks, so no
  // quarantine results can be produced here.
  std::vector<PendingRoute> to_route;
  if (!remove_executor(executor_id.value, reason, /*blame=*/false, to_route)) {
    return make_error(ErrorCode::kNotFound, "no such executor");
  }
  route_all(to_route);
  pump_notifications();
  return ok_status();
}

Status Dispatcher::heartbeat(ExecutorId executor_id) {
  if (m_heartbeats_) m_heartbeats_->inc();
  auto entry = find_entry(executor_id.value);
  if (entry == nullptr) return unknown_executor(executor_id.value);
  {
    std::lock_guard elock(entry->mu);
    if (entry->removed) return unknown_executor(executor_id.value);
    entry->last_heartbeat_s = clock_.now_s();
  }
  // Locality-withheld heads (data-aware policies only) wait for their
  // advertised holder; once overdue, any executor may take them — but a
  // deferred executor sits in its notification wait with nothing pending.
  // Heartbeats are the fleet's periodic pulse, so use them to re-offer an
  // overdue head instead of letting it ride until the next submit/delivery.
  if (!policy_head_only_ && config_.max_locality_wait_s > 0) {
    bool overdue = false;
    {
      auto qlock = timed_lock(queue_mu_, m_queue_lock_wait_);
      overdue = !queue_.empty() &&
                clock_.now_s() - queue_.front_meta().enqueue_s >
                    config_.max_locality_wait_s;
    }
    if (overdue) pump_notifications();
  }
  return ok_status();
}

int Dispatcher::check_liveness() {
  if (config_.heartbeat_timeout_s <= 0) return 0;
  const double now = clock_.now_s();
  std::vector<std::uint64_t> dead;
  for (auto& entry : snapshot_entries()) {
    std::lock_guard elock(entry->mu);
    if (!entry->removed &&
        now - entry->last_heartbeat_s > config_.heartbeat_timeout_s) {
      dead.push_back(entry->id.value);
    }
  }
  std::vector<PendingRoute> to_route;
  int removed = 0;
  for (auto id : dead) {
    {
      std::lock_guard lock(suspect_mu_);
      suspected_.insert(id);
    }
    n_suspicions_.fetch_add(1, std::memory_order_relaxed);
    if (m_suspicions_) m_suspicions_->inc();
    (void)remove_executor(id, "heartbeat timeout", /*blame=*/true, to_route);
    ++removed;
  }
  if (removed > 0) pump_notifications();
  route_all(to_route);
  return removed;
}

// ---------------------------------------------------------------- dispatch

void Dispatcher::pump_notifications() {
  if (shutdown_.load(std::memory_order_relaxed)) return;

  if (policy_first_idle_) {
    // Fast path for first-idle policies (next-available): pop the newest
    // idle executor from the ordered set instead of snapshotting, sorting
    // and lock-probing the whole registry per notification — the full scan
    // is O(fleet log fleet) per task, which collapses throughput once
    // hundreds of executors drain a deep queue.
    //
    // Wake only executors that will get a bundle. A notified executor
    // covers its pull size in queued tasks until it pulls, so a 32-task
    // submit to an adaptive fleet wakes one executor instead of every idle
    // one (whose get-work would come back empty), and a deep queue wakes
    // ceil(depth / cap), as many as bundle sizing engages.
    for (;;) {
      TaskId head_id;
      {
        auto qlock = timed_lock(queue_mu_, m_queue_lock_wait_);
        const std::uint64_t covered =
            promised_.load(std::memory_order_relaxed);
        if (queue_.size() <= covered) return;
        head_id = queue_.front().id;
      }
      std::uint64_t candidate;
      {
        std::lock_guard ilock(idle_mu_);
        if (idle_set_.empty()) return;
        auto it = idle_set_.begin();
        candidate = *it;
        idle_set_.erase(it);
      }
      auto entry = find_entry(candidate);
      if (entry == nullptr) continue;  // removed after it was popped
      {
        std::lock_guard elock(entry->mu);
        if (entry->removed || entry->state != ExecState::kIdle ||
            entry->release_requested) {
          // Lost the race to an exchange; the set is already consistent
          // (set_state_locked re-inserts when it goes idle again).
          continue;
        }
        set_state_locked(*entry, ExecState::kNotified);
        entry->notified_s = clock_.now_s();
      }
      auto sink = entry->sink;
      const ExecutorId id = entry->id;
      if (m_notifications_) m_notifications_->inc();
      if (tracer_) {
        tracer_->instant(head_id, obs::Stage::kNotify, clock_.now_s(),
                         id.value);
      }
      if (config_.fault != nullptr &&
          config_.fault->sample(fault::Site::kDispatcherNotify).action ==
              fault::Action::kDrop) {
        continue;
      }
      (void)notify_pool_.submit([sink, id] {
        if (sink) sink->notify(id, id.value);
      });
    }
  }

  // Other policies pick an executor per queue head, so `budget` allows one
  // notification per queued task until queued tasks or idle executors run
  // out.
  std::size_t budget;
  {
    auto qlock = timed_lock(queue_mu_, m_queue_lock_wait_);
    budget = queue_.size();
  }
  while (budget > 0) {
    TaskSpec head;
    {
      auto qlock = timed_lock(queue_mu_, m_queue_lock_wait_);
      if (queue_.empty()) return;
      budget = std::min(budget, queue_.size());
      head = queue_.front();
    }
    // Collect idle candidates one entry lock at a time (never two at once).
    // Newest registration first (LIFO): keeps long-idle executors idle so
    // the distributed release policy can reclaim them, and preserves the
    // seed implementation's observable notification order.
    auto entries = snapshot_entries();
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return b->id < a->id; });
    std::vector<ExecutorCandidate> idle;
    std::vector<std::shared_ptr<ExecutorEntry>> idle_entries;
    for (auto& entry : entries) {
      std::lock_guard elock(entry->mu);
      if (!entry->removed && entry->state == ExecState::kIdle &&
          !entry->release_requested) {
        idle.push_back(candidate_of(*entry));
        idle_entries.push_back(entry);
      }
    }
    if (idle.empty()) return;
    const std::size_t pick =
        std::min(policy_->select(head, idle), idle.size() - 1);
    ExecutorEntry& chosen = *idle_entries[pick];
    {
      std::lock_guard elock(chosen.mu);
      if (chosen.removed || chosen.state != ExecState::kIdle ||
          chosen.release_requested) {
        // Lost the race to another exchange; rescan without spending budget.
        continue;
      }
      set_state_locked(chosen, ExecState::kNotified);
      chosen.notified_s = clock_.now_s();
    }
    auto sink = chosen.sink;
    const ExecutorId id = chosen.id;
    if (m_notifications_) m_notifications_->inc();
    if (tracer_) {
      // Attribute the notification to the queue head — the task that made
      // the dispatcher wake this executor (it may end up pulling others).
      tracer_->instant(head.id, obs::Stage::kNotify, clock_.now_s(), id.value);
    }
    --budget;
    if (config_.fault != nullptr &&
        config_.fault->sample(fault::Site::kDispatcherNotify).action ==
            fault::Action::kDrop) {
      // Lost notification: the executor stays kNotified with no wake-up;
      // only the stale-notification resend (renotify_timeout_s) or a
      // piggy-backed ack can recover it.
      continue;
    }
    // The notification itself happens on the engine's thread pool {3}.
    (void)notify_pool_.submit([sink, id] {
      if (sink) sink->notify(id, id.value);
    });
  }
}

void Dispatcher::dispatch_one_locked(ExecutorEntry& entry, WaitQueue::Task task,
                                     double now, std::vector<TaskSpec>& out) {
  DispatchedTask dispatched;
  dispatched.instance = task.meta.instance;
  dispatched.executor = entry.id;
  dispatched.enqueue_s = task.meta.enqueue_s;
  dispatched.dispatch_s = now;
  dispatched.attempts = task.meta.attempts;
  dispatched.killers = std::move(task.meta.killers);
  // Data-diffusion routing stamp: tell the executor whether we routed it
  // here because its digest advertises the input, and name an alternate
  // holder it can fetch from peer-to-peer on a (stale-digest) miss.
  if (!task.spec.data_object.empty()) {
    task.spec.expect_cached =
        entry.cached_objects != nullptr &&
        entry.cached_objects->count(task.spec.data_object) > 0;
    task.spec.data_source =
        alternate_holder(task.spec.data_object, entry.id.value);
  }
  dispatched.spec = task.spec;
  const std::uint64_t task_id = task.spec.id.value;
  if (tracer_) {
    tracer_->record(task.spec.id, obs::Stage::kQueued, task.meta.enqueue_s,
                    now);
    tracer_->instant(task.spec.id, obs::Stage::kGetWork, now, entry.id.value);
  }
  if (m_queue_time_) m_queue_time_->record(now - task.meta.enqueue_s);
  out.push_back(std::move(task.spec));
  entry.dispatched[task_id] = std::move(dispatched);
  dispatched_count_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<TaskSpec> Dispatcher::take_work_entry_locked(ExecutorEntry& entry,
                                                         std::uint32_t max_tasks,
                                                         bool adaptive) {
  std::uint32_t target;
  if (adaptive) {
    // Size the bundle from queue pressure, but only split the backlog
    // across as many executors as full bundles warrant. Dividing by the
    // whole registered fleet shreds a shallow queue into slivers: 5,000
    // queued tasks over 256 executors is a 19-task bundle, ~10× the RPC
    // exchanges (and context switches) of the 16-executor run for the
    // same workload. Engaging ceil(depth / cap) executors keeps bundles
    // at the cap until the backlog genuinely spans the fleet, at which
    // point this reduces to the even depth/registered share. Fairness
    // for long tasks is still bounded by max_bundle_runtime_s below.
    const std::uint64_t depth = queue_size_.load(std::memory_order_relaxed);
    const auto executors = std::max<std::uint32_t>(
        1, registered_.load(std::memory_order_relaxed));
    const std::uint64_t cap = std::max<std::uint32_t>(
        1, config_.max_adaptive_bundle);
    const std::uint64_t engaged =
        std::clamp<std::uint64_t>((depth + cap - 1) / cap, 1, executors);
    target = static_cast<std::uint32_t>(
        std::clamp<std::uint64_t>(depth / engaged, 1, cap));
  } else {
    target = std::min(max_tasks, config_.max_tasks_per_dispatch);
    if (target == 0) target = 1;
  }
  const double now = clock_.now_s();
  const double budget = config_.max_bundle_runtime_s;
  std::vector<TaskSpec> out;
  out.reserve(std::min<std::size_t>(target, 256));
  double bundle_runtime = 0.0;

  {
    auto qlock = timed_lock(queue_mu_, m_queue_lock_wait_);
    ExecutorCandidate self;
    std::vector<const TaskSpec*> window;
    if (!policy_head_only_) self = candidate_of(entry);
    while (out.size() < target && !queue_.empty()) {
      // Let the policy pick a task from a lookahead window (data-aware
      // scheduling); head-of-queue policies skip the window entirely.
      std::size_t pick = 0;
      const TaskSpec* picked = &queue_.front();
      if (!policy_head_only_) {
        window.clear();
        queue_.window(64, window);
        pick = std::min(policy_->select_task(self, window), window.size() - 1);
        const bool head_overdue =
            config_.max_locality_wait_s > 0 &&
            now - queue_.front_meta().enqueue_s > config_.max_locality_wait_s;
        if (pick == 0 && !head_overdue && config_.max_locality_wait_s > 0 &&
            !queue_.front().data_object.empty()) {
          // Good-cache-compute withhold: the head is a young data task and
          // this executor was picked only as a fallback. If another live
          // executor currently advertises the object, leave the head for
          // it and end this exchange — a racing double-notification (or an
          // idle probe) must not bleed cached work onto a cold executor.
          // I12 keeps this bounded: once the head is overdue, whoever asks
          // gets it.
          const std::string& object = queue_.front().data_object;
          const bool self_holds =
              entry.cached_objects != nullptr &&
              entry.cached_objects->count(object) > 0;
          if (!self_holds &&
              !alternate_holder(object, entry.id.value).empty()) {
            n_data_deferrals_.fetch_add(1, std::memory_order_relaxed);
            if (m_data_deferrals_) m_data_deferrals_->inc();
            break;
          }
        }
        if (pick != 0) {
          // Locality deferral bound (I12): once the queue head has waited
          // past max_locality_wait_s, it dispatches to whoever asks —
          // cache affinity never starves a task.
          if (config_.max_locality_wait_s > 0 &&
              now - queue_.front_meta().enqueue_s >
                  config_.max_locality_wait_s) {
            pick = 0;
          } else {
            n_data_deferrals_.fetch_add(1, std::memory_order_relaxed);
            if (m_data_deferrals_) m_data_deferrals_->inc();
          }
        }
        // Self-checks (docs/DATA.md): both counters must stay 0.
        // I12: a non-head pick while the head is overdue would be a
        // starvation window the bound failed to close.
        if (pick != 0 && config_.max_locality_wait_s > 0 &&
            now - queue_.front_meta().enqueue_s > config_.max_locality_wait_s) {
          n_data_overwait_.fetch_add(1, std::memory_order_relaxed);
          if (m_data_overwait_) m_data_overwait_->inc();
        }
        picked = window[pick];
        // I11: a locality pick must be backed by a currently advertised
        // (and not since evicted) digest entry for THIS executor.
        if (pick != 0 && !picked->data_object.empty()) {
          const bool advertised =
              entry.cached_objects != nullptr &&
              entry.cached_objects->count(picked->data_object) > 0;
          if (!advertised) {
            n_data_stale_routes_.fetch_add(1, std::memory_order_relaxed);
            if (m_data_stale_routes_) m_data_stale_routes_->inc();
          }
        }
      }
      // Estimate-balanced bundling: never grow a non-empty bundle past the
      // runtime budget (section 3.4's runtime-estimate fix for imbalance).
      if (budget > 0 && !out.empty() &&
          bundle_runtime + picked->estimated_runtime_s > budget) {
        break;
      }
      WaitQueue::Task task = queue_.take(pick);
      bundle_runtime += task.spec.estimated_runtime_s;
      dispatch_one_locked(entry, std::move(task), now, out);
    }
    queue_size_.store(queue_.size(), std::memory_order_relaxed);
    if (m_queue_depth_) m_queue_depth_->set(static_cast<double>(queue_.size()));
  }

  if (bundle_runtime > 0) {
    // The executor reports the bundle only once all of it has run, so each
    // task's replay deadline waits for the bundle's summed estimate.
    for (const auto& spec : out) {
      entry.dispatched[spec.id.value].bundle_estimate_s = bundle_runtime;
    }
  }
  if (m_dispatched_ && !out.empty()) {
    m_dispatched_->inc(out.size());
  }
  if (m_bundle_size_ && !out.empty()) {
    m_bundle_size_->record(static_cast<double>(out.size()));
  }
  if (!out.empty()) {
    set_state_locked(entry, ExecState::kBusy);
    entry.inflight += static_cast<std::uint32_t>(out.size());
    // Journal the assignment while entry.mu is still held: a completion for
    // these tasks needs the same lock, so it can only be journaled later.
    if (config_.journal) {
      std::vector<TaskId> ids;
      ids.reserve(out.size());
      for (const auto& spec : out) ids.push_back(spec.id);
      config_.journal->on_assign(entry.id, ids);
    }
  } else if (entry.inflight == 0) {
    set_state_locked(entry, ExecState::kIdle);
  }
  entry.notified_s = -1.0;  // the executor pulled: notification consumed
  return out;
}

std::uint32_t Dispatcher::pull_size(std::uint32_t max_tasks) const {
  if (config_.max_bundle_runtime_s > 0) return 1;
  if (max_tasks == wire::kAdaptiveBundle) {
    return std::max<std::uint32_t>(1, config_.max_adaptive_bundle);
  }
  return std::max<std::uint32_t>(
      1, std::min(max_tasks, config_.max_tasks_per_dispatch));
}

Result<std::vector<TaskSpec>> Dispatcher::get_work(ExecutorId executor_id,
                                                   std::uint32_t max_tasks) {
  auto entry = find_entry(executor_id.value);
  if (entry == nullptr) return unknown_executor(executor_id.value);
  std::vector<TaskSpec> out;
  bool was_notified;
  {
    auto elock = timed_lock(entry->mu, m_lock_wait_);
    if (entry->removed) return unknown_executor(executor_id.value);
    entry->last_heartbeat_s = clock_.now_s();
    was_notified = entry->state == ExecState::kNotified;
    const bool adaptive = (max_tasks == wire::kAdaptiveBundle);
    out = take_work_entry_locked(*entry, max_tasks, adaptive);
    // Only notified executors count their pull in promised_, and a pull
    // always ends that state (a notified executor holds no tasks).
    assert(entry->state != ExecState::kNotified);
    entry->pull = pull_size(max_tasks);
  }
  // The pull dropped this executor's promise. Whatever it left queued (a
  // bundle cut short, or tasks submitted while it was on its way) is
  // offered to the next idle executor.
  if (was_notified && policy_first_idle_) pump_notifications();
  return out;
}

void Dispatcher::deliver_batch(InstanceId instance_id,
                               const std::shared_ptr<Instance>& instance,
                               std::vector<TaskResult> results) {
  if (results.empty()) return;
  bool notify_client = false;
  bool inline_drain = false;
  std::size_t ready = 0;
  {
    std::lock_guard ilock(instance->mu);
    if (!instance->open) return;
    const bool was_empty = instance->results.empty();
    instance->results.insert(instance->results.end(),
                             std::make_move_iterator(results.begin()),
                             std::make_move_iterator(results.end()));
    ready = instance->results.size();
    if (instance->streaming) {
      if (!instance->drain_scheduled &&
          !frame_fillable(instance->results.size() -
                          instance->streamed_prefix)) {
        // A full frame is ready — or no work still out could fill one — and
        // no drain is pending: stream it inline on this (delivering)
        // thread, exactly like the polling path encodes its reply on the
        // handler thread. Hopping to the notify pool costs a scheduling
        // round trip per frame, which on a busy host is most of the tail of
        // the fig. 3 curve; on a shallow queue it is most of the return leg.
        instance->drain_scheduled = true;
        inline_drain = true;
      } else {
        schedule_drain_locked(instance_id, instance);
      }
    } else {
      // Client notification {8}, sent off the delivery path.
      // Edge-triggered: only the batch that turned the mailbox non-empty
      // notifies — a client woken by it drains everything that piled up
      // since, and the check and the drain run under the same mailbox
      // lock, so no wake-up is lost. At high completion rates this
      // collapses one push frame per delivery into one per mailbox drain.
      notify_client = was_empty;
    }
  }
  instance->cv.notify_all();
  if (inline_drain) {
    stream_drain(instance_id, instance, /*flush=*/false);
    return;
  }
  if (!notify_client) return;
  std::shared_ptr<ClientSink> sink;
  {
    std::lock_guard lock(listeners_mu_);
    sink = client_sink_;
  }
  if (sink) {
    (void)notify_pool_.submit([sink, instance_id, ready] {
      sink->notify(instance_id, ready);
    });
  }
}

void Dispatcher::schedule_drain_locked(
    InstanceId instance_id, const std::shared_ptr<Instance>& instance) {
  if (instance->drain_scheduled || !instance->open) return;
  instance->drain_scheduled = true;
  (void)notify_pool_.submit([this, instance_id, instance] {
    stream_drain(instance_id, instance, /*flush=*/true);
  });
}

bool Dispatcher::frame_fillable(std::size_t backlog) const {
  if (backlog >= kMinStreamFrameResults) return false;
  // Tasks that may still land in a mailbox: queued or on an executor. The
  // count spans every instance, so it overstates what this one may still
  // receive: a frame judged unfillable is (up to the results a concurrent
  // delivery holds between its entry lock and route_all).
  const std::uint64_t unrouted =
      queue_size_.load(std::memory_order_relaxed) +
      dispatched_count_.load(std::memory_order_relaxed);
  return backlog + unrouted >= kMinStreamFrameResults;
}

void Dispatcher::stream_drain(InstanceId instance_id,
                              const std::shared_ptr<Instance>& instance,
                              bool flush) {
  std::shared_ptr<ClientSink> sink;
  {
    std::lock_guard lock(listeners_mu_);
    sink = client_sink_;
  }
  std::unique_lock ilock(instance->mu);
  // drain_scheduled stays TRUE for the whole drain: appends landing while a
  // frame is in flight must not schedule a second, concurrent drain (two
  // drains could enqueue frames out of order and force a client resync).
  // This drain's own re-check picks them up instead; the flag drops back to
  // false only on exit, under the lock, after the loop condition has gone
  // false — so a result landing after that schedules afresh and no wake-up
  // is lost.
  while (instance->open && instance->streaming &&
         instance->streamed_prefix < instance->results.size()) {
    if (frame_fillable(instance->results.size() - instance->streamed_prefix)) {
      // Sub-frame backlog that work still out could fill. The inline caller
      // leaves it to a scheduled flush — its RPC reply must not wait on a
      // coalescing window. The pool flush waits briefly: under fan-in a
      // fuller frame is a few hundred microseconds away, and one frame of
      // 1024 costs far less than eight frames of 128 (encode setup, write
      // queue wake, client wake apiece). An idle producer lets the window
      // lapse and the tail flushes. A backlog nothing can fill never waits.
      if (!flush) break;
      instance->cv.wait_for(
          ilock, std::chrono::microseconds(200), [&] {
            return !instance->open || !instance->streaming ||
                   !frame_fillable(instance->results.size() -
                                   instance->streamed_prefix);
          });
      if (!(instance->open && instance->streaming &&
            instance->streamed_prefix < instance->results.size())) {
        break;
      }
    }
    const std::size_t from = instance->streamed_prefix;
    const std::size_t to = std::min(instance->results.size(),
                                    from + kMaxStreamFrameResults);
    // A copy: the results stay in the mailbox until acknowledged. The sink
    // takes this copy over.
    std::vector<TaskResult> batch(
        instance->results.begin() + static_cast<std::ptrdiff_t>(from),
        instance->results.begin() + static_cast<std::ptrdiff_t>(to));
    const std::size_t count = batch.size();
    instance->streamed_prefix = to;
    instance->stream_pushed += count;
    const std::uint64_t seq = instance->stream_pushed;
    const std::uint64_t epoch = instance->stream_epoch;
    // Encode + write-queue enqueue run OFF the mailbox lock: with a whole
    // fleet funnelling deliver_batch() appends into one instance,
    // serialising the wire encode behind instance->mu costs the tail of the
    // fig. 3 curve.
    // Safe because results never leave the mailbox at push time — a poll or
    // ack racing this window works off its own consistent cursor state, and
    // a stale in-flight frame is absorbed by the client's task-id dedup.
    ilock.unlock();
    const bool delivered =
        sink != nullptr && sink->deliver(instance_id, seq, std::move(batch));
    ilock.lock();
    if (!delivered) {
      // No push transport for this instance (client gone, key never
      // subscribed): roll the cursor advance back and leave streaming mode
      // — the results stay in the mailbox and wait_results polling takes
      // over until the client resubscribes. Skip the rollback if the
      // regime changed while the frame was in flight: the reset already
      // re-accounted for every mailbox result under fresh cursors.
      if (instance->stream_epoch == epoch) {
        instance->streamed_prefix -=
            std::min<std::size_t>(count, instance->streamed_prefix);
        instance->stream_pushed -=
            std::min<std::uint64_t>(count, instance->stream_pushed);
        instance->streaming = false;
      }
      if (m_stream_push_failures_) m_stream_push_failures_->inc();
      instance->drain_scheduled = false;
      return;
    }
    if (m_stream_pushed_) {
      m_stream_pushed_->inc(count);
      m_stream_frames_->inc();
    }
  }
  instance->drain_scheduled = false;
  if (!flush && instance->open && instance->streaming &&
      instance->streamed_prefix < instance->results.size()) {
    // Inline drain left a sub-frame tail behind: hand it to the pool so it
    // still flushes promptly even if no further delivery ever lands.
    schedule_drain_locked(instance_id, instance);
  }
}

void Dispatcher::route_all(std::vector<PendingRoute>& to_route) {
  if (to_route.empty()) return;
  // Group by instance, preserving arrival order within each group. The
  // common case is a whole ResultBundle for one instance, so a flat vector
  // with linear probing beats a map.
  struct Group {
    InstanceId id;
    std::shared_ptr<Instance> instance;
    std::vector<TaskResult> results;
  };
  std::vector<Group> groups;
  for (auto& pending : to_route) {
    Group* group = nullptr;
    for (auto& g : groups) {
      if (g.id == pending.instance_id) {
        group = &g;
        break;
      }
    }
    if (group == nullptr) {
      groups.push_back(Group{pending.instance_id, nullptr, {}});
      group = &groups.back();
    }
    group->results.push_back(std::move(pending.result));
  }
  // One registry pass resolves every distinct instance; one mailbox lock,
  // one bulk append and one wake-up per (instance, delivery) follow.
  {
    auto lock = timed_lock(inst_mu_, m_inst_lock_wait_);
    for (auto& g : groups) {
      auto it = instances_.find(g.id.value);
      if (it != instances_.end()) g.instance = it->second;
    }
  }
  if (m_route_batches_) {
    m_route_batches_->inc();
    m_route_results_->inc(to_route.size());
  }
  for (auto& g : groups) {
    if (m_route_batch_size_) {
      m_route_batch_size_->record(static_cast<double>(g.results.size()));
    }
    if (g.instance) deliver_batch(g.id, g.instance, std::move(g.results));
  }
  to_route.clear();
}

Result<Dispatcher::DeliverOutcome> Dispatcher::deliver_results(
    ExecutorId executor_id, std::vector<TaskResult> results,
    std::uint32_t want_tasks) {
  auto entry = find_entry(executor_id.value);
  if (entry == nullptr) {
    // A delivery from a "dead" executor: it was alive all along. Its tasks
    // were already requeued; dropping this delivery keeps the exactly-once
    // result guarantee.
    return unknown_executor(executor_id.value);
  }
  if (config_.fault != nullptr &&
      config_.fault->sample(fault::Site::kDispatcherAck).action ==
          fault::Action::kDrop) {
    // Lost ack: the delivery "never arrived" — nothing is processed, the
    // executor sees a failure and redelivers. The late-duplicate drop
    // below keeps redelivered results exactly-once.
    return make_error(ErrorCode::kUnavailable, "injected lost ack");
  }

  // A result accepted under the entry lock, held until the lock is
  // released: the completion listener and instance routing run lock-free.
  struct Accepted {
    TaskResult result;
    InstanceId instance;
    bool route{false};
  };
  std::vector<Accepted> accepted;
  DeliverOutcome outcome;
  bool pump_after = false;
  double now;
  {
    auto elock = timed_lock(entry->mu, m_lock_wait_);
    if (entry->removed) return unknown_executor(executor_id.value);
    now = clock_.now_s();
    entry->last_heartbeat_s = now;

    for (auto& result : results) {
      auto dit = entry->dispatched.find(result.task_id.value);
      if (dit == entry->dispatched.end()) {
        // Late duplicate of a task already replayed (possibly now owned by
        // another executor): drop it so the client sees exactly one result
        // per task.
        continue;
      }
      DispatchedTask dispatched = std::move(dit->second);
      entry->dispatched.erase(dit);
      dispatched_count_.fetch_sub(1, std::memory_order_relaxed);
      if (entry->inflight > 0) --entry->inflight;
      ++outcome.acknowledged;

      result.queue_time_s = dispatched.dispatch_s - dispatched.enqueue_s;
      result.overhead_s = (now - dispatched.dispatch_s) - result.exec_time_s;
      result.executor_id = executor_id;
      if (tracer_) {
        // Result delivery {6}: from when execution finished (dispatch time
        // plus exec time, i.e. `now` minus the measured overhead) until the
        // dispatcher ingested the result.
        tracer_->record(result.task_id, obs::Stage::kDeliverResult,
                        now - std::max(0.0, result.overhead_s), now,
                        executor_id.value);
      }
      if (m_overhead_) m_overhead_->record(result.overhead_s);

      // Mirror the executor's data cache for data-aware dispatch.
      if (!dispatched.spec.data_object.empty()) {
        cache_insert_locked(*entry, dispatched.spec.data_object);
      }

      const InstanceId instance_id = dispatched.instance;
      const bool failed = !result.success();
      if (failed && config_.replay.retry_on_failure &&
          dispatched.attempts < config_.replay.max_retries) {
        ++dispatched.attempts;
        n_retried_.fetch_add(1, std::memory_order_relaxed);
        if (m_retried_) m_retried_->inc();
        // Journal before the push makes the task visible to get_work.
        if (config_.journal) {
          config_.journal->on_requeue({result.task_id}, /*retry=*/true);
        }
        requeue_task(to_queued(std::move(dispatched)), /*front=*/false);
        accepted.push_back(
            Accepted{std::move(result), instance_id, /*route=*/false});
        continue;
      }

      if (failed) {
        n_failed_.fetch_add(1, std::memory_order_relaxed);
        if (m_failed_) m_failed_->inc();
      } else {
        n_completed_.fetch_add(1, std::memory_order_relaxed);
        if (m_completed_) m_completed_->inc();
      }
      if (config_.journal) {
        config_.journal->on_complete(instance_id, result, /*quarantined=*/false);
      }
      if (tracer_) {
        tracer_->instant(result.task_id, obs::Stage::kAck, now,
                         executor_id.value);
      }
      accepted.push_back(
          Accepted{std::move(result), instance_id, /*route=*/true});
    }

    // A late delivery from an executor notified meanwhile (say, after a
    // replay timeout idled it) drops its promise below: re-pump, as
    // get_work does.
    const bool was_notified = entry->state == ExecState::kNotified;
    // Piggy-back new work on the acknowledgement {7} (section 3.4).
    if (want_tasks > 0 && config_.piggyback && !entry->release_requested) {
      const bool adaptive = (want_tasks == wire::kAdaptiveWant);
      outcome.piggyback =
          take_work_entry_locked(*entry, adaptive ? 1 : want_tasks, adaptive);
    }
    if (outcome.piggyback.empty()) {
      if (entry->inflight == 0) set_state_locked(*entry, ExecState::kIdle);
      pump_after = true;
    }
    if (was_notified && policy_first_idle_) pump_after = true;
  }

  if (!accepted.empty()) {
    std::function<void(const TaskResult&, double)> listener;
    {
      std::lock_guard lock(listeners_mu_);
      listener = completion_listener_;
    }
    if (listener) {
      for (const auto& a : accepted) listener(a.result, now);
    }
    std::vector<PendingRoute> to_route;
    to_route.reserve(accepted.size());
    for (auto& a : accepted) {
      if (a.route) {
        to_route.push_back(PendingRoute{a.instance, std::move(a.result)});
      }
    }
    route_all(to_route);
  }
  if (pump_after) pump_notifications();
  return outcome;
}

void Dispatcher::apply_digest(ExecutorId executor_id, std::uint64_t generation,
                              std::uint32_t data_port,
                              const std::vector<std::string>& objects) {
  auto entry = find_entry(executor_id.value);
  if (entry == nullptr) return;
  std::lock_guard elock(entry->mu);
  if (entry->removed) return;
  // A generation at or below the last applied one is a reordered stale
  // digest; routing on it would violate I11. Generation 0 (registration
  // seed) always applies — the entry is fresh.
  if (generation != 0 && generation <= entry->digest_generation) return;
  entry->digest_generation = std::max(entry->digest_generation, generation);
  auto next = std::make_shared<std::unordered_set<std::string>>(
      objects.begin(), objects.end());
  {
    std::lock_guard dlock(data_mu_);
    if (data_port != 0) {
      entry->info.data_port = data_port;
      data_endpoints_[executor_id.value] =
          entry->info.host + ":" + std::to_string(data_port);
    }
    // Full replace: drop index entries no longer advertised, add new ones.
    if (entry->cached_objects != nullptr) {
      for (const auto& object : *entry->cached_objects) {
        if (next->count(object) != 0) continue;
        auto it = holders_.find(object);
        if (it == holders_.end()) continue;
        it->second.erase(executor_id.value);
        if (it->second.empty()) holders_.erase(it);
      }
    }
    for (const auto& object : *next) {
      holders_[object].insert(executor_id.value);
    }
  }
  entry->cached_objects = std::move(next);
  n_data_digests_.fetch_add(1, std::memory_order_relaxed);
  if (m_data_digests_) m_data_digests_->inc();
}

Status Dispatcher::evict_cached_object(ExecutorId executor_id,
                                       const std::string& object) {
  if (object.empty()) {
    return make_error(ErrorCode::kInvalidArgument, "empty object in evict");
  }
  auto entry = find_entry(executor_id.value);
  if (entry == nullptr) return unknown_executor(executor_id.value);
  std::lock_guard elock(entry->mu);
  if (entry->removed) return unknown_executor(executor_id.value);
  if (entry->cached_objects == nullptr ||
      entry->cached_objects->count(object) == 0) {
    return make_error(ErrorCode::kNotFound,
                      "object not advertised by executor: " + object);
  }
  cache_erase_locked(*entry, object);
  n_data_evictions_.fetch_add(1, std::memory_order_relaxed);
  if (m_data_evictions_) m_data_evictions_->inc();
  return ok_status();
}

Dispatcher::DataStats Dispatcher::data_stats() const {
  DataStats stats;
  stats.stale_routes = n_data_stale_routes_.load(std::memory_order_relaxed);
  stats.locality_overwait = n_data_overwait_.load(std::memory_order_relaxed);
  stats.locality_deferrals = n_data_deferrals_.load(std::memory_order_relaxed);
  stats.digests_applied = n_data_digests_.load(std::memory_order_relaxed);
  stats.evictions = n_data_evictions_.load(std::memory_order_relaxed);
  return stats;
}

DispatcherStatus Dispatcher::status() const {
  DispatcherStatus snapshot;
  snapshot.submitted = n_submitted_.load(std::memory_order_relaxed);
  snapshot.completed = n_completed_.load(std::memory_order_relaxed);
  snapshot.failed = n_failed_.load(std::memory_order_relaxed);
  snapshot.retried = n_retried_.load(std::memory_order_relaxed);
  snapshot.suspicions = n_suspicions_.load(std::memory_order_relaxed);
  snapshot.false_suspicions =
      n_false_suspicions_.load(std::memory_order_relaxed);
  snapshot.quarantined = n_quarantined_.load(std::memory_order_relaxed);
  {
    auto qlock = timed_lock(queue_mu_, m_queue_lock_wait_);
    snapshot.queued = queue_.size();
  }
  snapshot.dispatched = dispatched_count_.load(std::memory_order_relaxed);
  snapshot.registered_executors = registered_.load(std::memory_order_relaxed);
  const std::uint32_t busy = busy_.load(std::memory_order_relaxed);
  snapshot.busy_executors = std::min(busy, snapshot.registered_executors);
  snapshot.idle_executors = snapshot.registered_executors -
                            snapshot.busy_executors;
  return snapshot;
}

int Dispatcher::check_replays() {
  if (config_.replay.response_timeout_s <= 0) return 0;
  std::vector<PendingRoute> to_route;
  int requeued = 0;
  bool any_overdue = false;
  const double now = clock_.now_s();
  for (auto& entry : snapshot_entries()) {
    std::lock_guard elock(entry->mu);
    if (entry->removed) continue;
    std::vector<std::uint64_t> overdue;
    for (const auto& [task_id, task] : entry->dispatched) {
      const double deadline = task.dispatch_s +
                              config_.replay.response_timeout_s +
                              task.bundle_estimate_s;
      if (now >= deadline) overdue.push_back(task_id);
    }
    if (overdue.empty()) continue;
    any_overdue = true;
    for (auto task_id : overdue) {
      auto node = entry->dispatched.extract(task_id);
      DispatchedTask task = std::move(node.mapped());
      dispatched_count_.fetch_sub(1, std::memory_order_relaxed);
      if (entry->inflight > 0) --entry->inflight;
      if (task.attempts >= config_.replay.max_retries) {
        // Retry budget exhausted while the task sat on an unresponsive
        // executor: fail it permanently so it reaches a terminal state
        // instead of lingering in the dispatched map forever.
        n_failed_.fetch_add(1, std::memory_order_relaxed);
        if (m_failed_) m_failed_->inc();
        TaskResult result;
        result.task_id = task.spec.id;
        result.executor_id = task.executor;
        result.state = TaskState::kFailed;
        result.exit_code = -1;
        result.stderr_data = "replay timeout: retry budget exhausted";
        result.queue_time_s = task.dispatch_s - task.enqueue_s;
        if (config_.journal) {
          config_.journal->on_complete(task.instance, result,
                                       /*quarantined=*/false);
        }
        to_route.push_back(PendingRoute{task.instance, std::move(result)});
        continue;
      }
      ++task.attempts;
      n_retried_.fetch_add(1, std::memory_order_relaxed);
      if (m_retried_) m_retried_->inc();
      if (config_.journal) {
        config_.journal->on_requeue({task.spec.id}, /*retry=*/true);
      }
      requeue_task(to_queued(std::move(task)), /*front=*/true);
      ++requeued;
    }
    if (entry->inflight == 0) set_state_locked(*entry, ExecState::kIdle);
  }
  if (any_overdue) pump_notifications();
  route_all(to_route);
  return requeued;
}

void Dispatcher::renotify_stale() {
  if (config_.renotify_timeout_s <= 0) return;
  if (shutdown_.load(std::memory_order_relaxed)) return;
  const double now = clock_.now_s();
  std::vector<std::pair<std::shared_ptr<ExecutorSink>, ExecutorId>> to_notify;
  for (auto& entry : snapshot_entries()) {
    std::lock_guard elock(entry->mu);
    if (entry->removed || entry->state != ExecState::kNotified ||
        entry->notified_s < 0 ||
        now - entry->notified_s <= config_.renotify_timeout_s) {
      continue;
    }
    // The executor was notified but never pulled: the notification was
    // lost (or its connection is slow). Send another one.
    entry->notified_s = now;
    if (m_renotifies_) m_renotifies_->inc();
    to_notify.emplace_back(entry->sink, entry->id);
  }
  for (auto& [sink, executor_id] : to_notify) {
    (void)notify_pool_.submit([sink, executor_id] {
      if (sink) sink->notify(executor_id, executor_id.value);
    });
  }
}

std::vector<ExecutorId> Dispatcher::request_release(int count) {
  std::vector<ExecutorId> released;
  std::vector<std::pair<std::shared_ptr<ExecutorSink>, ExecutorId>> to_notify;
  for (auto& entry : snapshot_entries()) {
    if (static_cast<int>(released.size()) >= count) break;
    std::lock_guard elock(entry->mu);
    if (!entry->removed && entry->state == ExecState::kIdle &&
        !entry->release_requested) {
      entry->release_requested = true;
      idle_erase(entry->id.value);
      released.push_back(entry->id);
      to_notify.emplace_back(entry->sink, entry->id);
    }
  }
  for (auto& [sink, id] : to_notify) {
    if (sink) sink->notify(id, kReleaseResourceKey);
  }
  return released;
}

void Dispatcher::set_completion_listener(
    std::function<void(const TaskResult&, double)> listener) {
  std::lock_guard lock(listeners_mu_);
  completion_listener_ = std::move(listener);
}

void Dispatcher::set_client_sink(std::shared_ptr<ClientSink> sink) {
  std::lock_guard lock(listeners_mu_);
  client_sink_ = std::move(sink);
}

}  // namespace falkon::core
