#include "core/data_plane.h"

#include <algorithm>

#include "common/logging.h"
#include "common/strings.h"

namespace falkon::core {

DataPlane::DataPlane(DataPlaneOptions options)
    : options_(options), cache_(options.cache_capacity_bytes) {
  if (options_.obs != nullptr) {
    obs::Registry& reg = options_.obs->registry();
    m_hits_ = &reg.counter("falkon.data.cache_hits");
    m_misses_ = &reg.counter("falkon.data.cache_misses");
    m_fetches_ = &reg.counter("falkon.data.fetches");
    m_fetch_bytes_ = &reg.counter("falkon.data.fetch_bytes");
    m_fetch_served_ = &reg.counter("falkon.data.fetches_served");
    m_fetch_failures_ = &reg.counter("falkon.data.fetch_failures");
  }
}

DataPlane::~DataPlane() { stop(); }

Status DataPlane::start() {
  if (started_) return ok_status();
  net::RpcServerOptions server_options;
  server_options.obs = options_.obs;
  auto status = server_.start(
      [this](const wire::Message& request) { return handle(request); },
      options_.port, /*fault=*/nullptr, std::move(server_options));
  if (!status.ok()) return status;
  started_ = true;
  return ok_status();
}

void DataPlane::stop() {
  if (!started_) return;
  started_ = false;
  server_.stop();
}

std::uint16_t DataPlane::port() const { return server_.port(); }

bool DataPlane::access(const std::string& object) {
  bool hit;
  {
    std::lock_guard lock(mu_);
    hit = cache_.access(object);
  }
  if (hit) {
    if (m_hits_) m_hits_->inc();
  } else {
    if (m_misses_) m_misses_->inc();
  }
  return hit;
}

void DataPlane::insert(const std::string& object, std::uint64_t bytes) {
  std::lock_guard lock(mu_);
  cache_.insert(object, bytes);
  ++generation_;
  if (cache_.contains(object)) {
    bytes_[object] = bytes;
  }
  for (auto& victim : cache_.take_evictions()) {
    bytes_.erase(victim);
    pending_evicts_.push_back(std::move(victim));
  }
}

bool DataPlane::contains(const std::string& object) const {
  std::lock_guard lock(mu_);
  return cache_.contains(object);
}

void DataPlane::erase(const std::string& object) {
  std::lock_guard lock(mu_);
  if (!cache_.contains(object)) return;
  cache_.erase(object);
  bytes_.erase(object);
  pending_evicts_.push_back(object);
  ++generation_;
}

std::uint64_t DataPlane::cache_hits() const {
  std::lock_guard lock(mu_);
  return cache_.hits();
}

std::uint64_t DataPlane::cache_misses() const {
  std::lock_guard lock(mu_);
  return cache_.misses();
}

std::size_t DataPlane::entries() const {
  std::lock_guard lock(mu_);
  return cache_.entries();
}

DataPlane::Digest DataPlane::digest() const {
  std::lock_guard lock(mu_);
  Digest digest;
  digest.generation = generation_;
  digest.objects = cache_.objects();
  return digest;
}

std::vector<std::string> DataPlane::take_evict_notices() {
  std::lock_guard lock(mu_);
  std::vector<std::string> out;
  out.swap(pending_evicts_);
  return out;
}

Result<std::uint64_t> DataPlane::fetch_from(const std::string& endpoint,
                                            const std::string& object) {
  if (m_fetches_) m_fetches_->inc();
  const auto colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon + 1 >= endpoint.size()) {
    if (m_fetch_failures_) m_fetch_failures_->inc();
    n_fetch_fail_.fetch_add(1, std::memory_order_relaxed);
    return make_error(ErrorCode::kInvalidArgument,
                      "bad data endpoint: " + endpoint);
  }
  const std::string host = endpoint.substr(0, colon);
  const int port = std::atoi(endpoint.c_str() + colon + 1);
  if (port <= 0 || port > 65535) {
    if (m_fetch_failures_) m_fetch_failures_->inc();
    n_fetch_fail_.fetch_add(1, std::memory_order_relaxed);
    return make_error(ErrorCode::kInvalidArgument,
                      "bad data port in endpoint: " + endpoint);
  }
  auto client = net::RpcClient::connect(host, static_cast<std::uint16_t>(port));
  if (!client.ok()) {
    if (m_fetch_failures_) m_fetch_failures_->inc();
    n_fetch_fail_.fetch_add(1, std::memory_order_relaxed);
    return client.error();
  }
  wire::DataFetch request;
  request.object = object;
  auto reply = client.value().call(wire::Message{std::move(request)});
  if (!reply.ok()) {
    if (m_fetch_failures_) m_fetch_failures_->inc();
    n_fetch_fail_.fetch_add(1, std::memory_order_relaxed);
    return reply.error();
  }
  const auto* fetched = std::get_if<wire::DataFetchReply>(&reply.value());
  if (fetched == nullptr || fetched->object != object) {
    if (m_fetch_failures_) m_fetch_failures_->inc();
    n_fetch_fail_.fetch_add(1, std::memory_order_relaxed);
    return make_error(ErrorCode::kProtocolError,
                      "unexpected reply to data fetch");
  }
  // The payload CRC was verified at decode; cross-check the deterministic
  // blob so a peer serving wrong-but-self-consistent bytes is caught too.
  if (fetched->payload != payload_for(object, fetched->object_bytes)) {
    if (m_fetch_failures_) m_fetch_failures_->inc();
    n_fetch_fail_.fetch_add(1, std::memory_order_relaxed);
    return make_error(ErrorCode::kProtocolError,
                      "data fetch payload mismatch for " + object);
  }
  if (m_fetch_bytes_) m_fetch_bytes_->inc(fetched->payload.size());
  n_fetch_ok_.fetch_add(1, std::memory_order_relaxed);
  return fetched->object_bytes;
}

std::string DataPlane::payload_for(const std::string& object,
                                   std::uint64_t object_bytes) {
  const auto n = static_cast<std::size_t>(
      std::min<std::uint64_t>(std::max<std::uint64_t>(object_bytes, 16),
                              kMaxFetchPayload));
  // FNV-1a of the name seeds an xorshift stream: deterministic per object,
  // independent of which holder serves it.
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : object) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  std::uint64_t x = h != 0 ? h : 0x9e3779b97f4a7c15ull;
  std::string out;
  out.reserve(n);
  while (out.size() < n) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    out.push_back(static_cast<char>(x & 0xff));
  }
  return out;
}

wire::Message DataPlane::handle(const wire::Message& request) {
  if (const auto* fetch = std::get_if<wire::DataFetch>(&request)) {
    std::uint64_t object_bytes = 0;
    bool found = false;
    {
      std::lock_guard lock(mu_);
      auto it = bytes_.find(fetch->object);
      if (it != bytes_.end() && cache_.contains(fetch->object)) {
        object_bytes = it->second;
        found = true;
      }
    }
    if (!found) {
      if (m_fetch_failures_) m_fetch_failures_->inc();
      return wire::ErrorReply{ErrorCode::kNotFound,
                              "object not cached: " + fetch->object};
    }
    n_fetch_served_.fetch_add(1, std::memory_order_relaxed);
    if (m_fetch_served_) m_fetch_served_->inc();
    auto reply = wire::make_data_fetch_reply(
        fetch->object, object_bytes, payload_for(fetch->object, object_bytes));
    if (m_fetch_bytes_) m_fetch_bytes_->inc(reply.payload.size());
    return reply;
  }
  return wire::ErrorReply{ErrorCode::kInvalidArgument,
                          "unexpected message on data channel"};
}

P2pDataEngine::P2pDataEngine(Clock& clock, const iomodel::IoModel& model,
                             int concurrency, DataPlane& data, obs::Obs* obs)
    : clock_(clock), model_(model), concurrency_(concurrency), data_(data) {
  if (obs != nullptr) {
    tracer_ = &obs->tracer();
    m_stale_ = &obs->registry().counter("falkon.data.digest_stale");
  }
}

TaskResult P2pDataEngine::run(const TaskSpec& task) {
  const double start = clock_.now_s();
  double io_time = 0.0;
  const bool reads = task.io_mode == IoMode::kRead ||
                     task.io_mode == IoMode::kReadWrite;
  if (!task.data_object.empty() && reads) {
    if (data_.access(task.data_object)) {
      // Local hit: only the cheap local read (plus any write) remains.
      TaskSpec local = task;
      local.data_location = DataLocation::kLocalDisk;
      io_time = model_.io_time_s(local, concurrency_.load());
    } else {
      if (task.expect_cached) {
        // The dispatcher routed on a digest entry we have since evicted
        // (heartbeat staleness race) — fall back to fetching, never fail.
        n_stale_.fetch_add(1, std::memory_order_relaxed);
        if (m_stale_) m_stale_->inc();
      }
      const double fetch_start = clock_.now_s();
      bool fetched = false;
      if (!task.data_source.empty()) {
        fetched = data_.fetch_from(task.data_source, task.data_object).ok();
        if (fetched) n_p2p_.fetch_add(1, std::memory_order_relaxed);
      }
      if (fetched) {
        // Peer copy landed on local disk; charge the local read. The real
        // socket exchange above already cost wall-clock time.
        TaskSpec local = task;
        local.data_location = DataLocation::kLocalDisk;
        io_time = model_.io_time_s(local, concurrency_.load());
      } else {
        io_time = model_.io_time_s(task, concurrency_.load());
      }
      if (tracer_) {
        tracer_->record(task.id, obs::Stage::kDataFetch, fetch_start,
                        clock_.now_s(),
                        actor_.load(std::memory_order_relaxed));
      }
      data_.insert(task.data_object, task.input_bytes);
    }
  } else {
    io_time = model_.io_time_s(task, concurrency_.load());
  }
  const double total = io_time + task.estimated_runtime_s;
  if (total > 0) clock_.sleep_s(total);

  TaskResult result;
  result.task_id = task.id;
  result.exit_code = 0;
  result.state = TaskState::kCompleted;
  result.exec_time_s = clock_.now_s() - start;
  return result;
}

}  // namespace falkon::core
