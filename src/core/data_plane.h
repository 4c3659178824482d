// Executor-side data plane for data diffusion (docs/DATA.md).
//
// The paper's data-diffusion follow-up caches popular objects on executor
// local disks and routes tasks to their data. This module is the TCP half
// of that story:
//   * DataPlane   — owns the executor's iomodel::DataCache LRU, serves
//                   kDataFetch requests from peers over a net::RpcServer
//                   (riding the shared reactor machinery: one event
//                   loop, pooled buffers), and produces the
//                   compact cache digest piggybacked on registration and
//                   heartbeats plus the kDataEvict notices for objects the
//                   LRU dropped;
//   * P2pDataEngine — a TaskEngine that stages each task's input through
//                   the DataPlane: local-cache hit, else peer-to-peer
//                   fetch from the dispatcher-stamped data_source, else
//                   the shared-FS IoModel — charging modeled I/O time the
//                   same way DataStagingEngine does, and counting
//                   falkon.data.digest_stale when the dispatcher routed on
//                   a digest entry the LRU has since evicted.
//
// Payloads on the wire are deterministic synthetic blobs (capped at
// kMaxFetchPayload) — the IoModel remains the source of truth for *time*;
// object_bytes carries the modeled size separately from the frame size.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "common/task.h"
#include "core/task_engine.h"
#include "iomodel/data_cache.h"
#include "iomodel/io_model.h"
#include "net/rpc.h"
#include "obs/obs.h"

namespace falkon::core {

/// Cap on the synthetic payload carried by one kDataFetchReply. Modeled
/// object sizes (task.input_bytes) routinely exceed this; the wire carries
/// a representative blob while object_bytes reports the modeled size.
inline constexpr std::uint64_t kMaxFetchPayload = 64u * 1024;

struct DataPlaneOptions {
  /// LRU capacity of the local cache.
  std::uint64_t cache_capacity_bytes{1ull << 30};
  /// Port for the P2P fetch server (0 = ephemeral).
  std::uint16_t port{0};
  /// Observability (falkon.data.* counters); nullptr disables.
  obs::Obs* obs{nullptr};
};

class DataPlane {
 public:
  explicit DataPlane(DataPlaneOptions options = {});
  ~DataPlane();

  DataPlane(const DataPlane&) = delete;
  DataPlane& operator=(const DataPlane&) = delete;

  /// Start the P2P fetch server; port() is valid afterwards.
  Status start();
  void stop();
  [[nodiscard]] std::uint16_t port() const;

  // ---- local cache (thread-safe) ----

  /// LRU-refreshing lookup; counts a hit or miss.
  bool access(const std::string& object);
  /// Insert (or refresh) an object of `bytes` modeled size; LRU evictions
  /// become pending kDataEvict notices.
  void insert(const std::string& object, std::uint64_t bytes);
  [[nodiscard]] bool contains(const std::string& object) const;
  void erase(const std::string& object);

  [[nodiscard]] std::uint64_t cache_hits() const;
  [[nodiscard]] std::uint64_t cache_misses() const;
  [[nodiscard]] std::size_t entries() const;

  // ---- digest / evict advertising ----

  struct Digest {
    /// Monotone per-plane sequence; bumps on every cache mutation so the
    /// dispatcher can drop reordered digests (invariant I11).
    std::uint64_t generation{0};
    std::vector<std::string> objects;  // MRU first
  };
  [[nodiscard]] Digest digest() const;

  /// Drain object names the LRU evicted since the last call — the caller
  /// turns each into a kDataEvict notice to the dispatcher.
  std::vector<std::string> take_evict_notices();

  // ---- peer-to-peer client side ----

  /// Fetch `object` from a peer's data plane at "host:port". On success
  /// returns the peer's modeled object size; the caller decides whether to
  /// insert. CRC of the payload is verified at decode.
  Result<std::uint64_t> fetch_from(const std::string& endpoint,
                                   const std::string& object);

  [[nodiscard]] std::uint64_t fetches_ok() const {
    return n_fetch_ok_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t fetches_failed() const {
    return n_fetch_fail_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t fetches_served() const {
    return n_fetch_served_.load(std::memory_order_relaxed);
  }

  /// Deterministic synthetic payload for `object` — every holder produces
  /// identical bytes, so a fetched blob is checkable against any peer.
  [[nodiscard]] static std::string payload_for(const std::string& object,
                                               std::uint64_t object_bytes);

 private:
  wire::Message handle(const wire::Message& request);

  DataPlaneOptions options_;

  mutable std::mutex mu_;
  iomodel::DataCache cache_;
  /// Modeled size per cached object (the DataCache tracks totals only).
  std::unordered_map<std::string, std::uint64_t> bytes_;
  std::vector<std::string> pending_evicts_;
  std::uint64_t generation_{0};

  net::RpcServer server_;
  bool started_{false};

  std::atomic<std::uint64_t> n_fetch_ok_{0};
  std::atomic<std::uint64_t> n_fetch_fail_{0};
  std::atomic<std::uint64_t> n_fetch_served_{0};

  obs::Counter* m_hits_{nullptr};
  obs::Counter* m_misses_{nullptr};
  obs::Counter* m_fetches_{nullptr};
  obs::Counter* m_fetch_bytes_{nullptr};
  obs::Counter* m_fetch_served_{nullptr};
  obs::Counter* m_fetch_failures_{nullptr};
};

/// Data-diffusion task engine: stages the input via the local DataPlane
/// cache, then a P2P fetch from the dispatcher-stamped alternate holder,
/// then the shared-FS IoModel; charges modeled I/O + compute time like
/// DataStagingEngine. Thread-safe.
class P2pDataEngine final : public TaskEngine {
 public:
  P2pDataEngine(Clock& clock, const iomodel::IoModel& model, int concurrency,
                DataPlane& data, obs::Obs* obs = nullptr);

  [[nodiscard]] TaskResult run(const TaskSpec& task) override;

  void set_concurrency(int concurrency) { concurrency_.store(concurrency); }
  /// ExecutorId recorded as the actor of kDataFetch trace spans.
  void set_actor(std::uint64_t actor) {
    actor_.store(actor, std::memory_order_relaxed);
  }

  /// Tasks routed here as expect_cached whose object the LRU had already
  /// evicted (dispatcher raced a heartbeat) — they fell back to fetch.
  [[nodiscard]] std::uint64_t digest_stale() const {
    return n_stale_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t p2p_fetches() const {
    return n_p2p_.load(std::memory_order_relaxed);
  }

 private:
  Clock& clock_;
  const iomodel::IoModel& model_;
  std::atomic<int> concurrency_;
  DataPlane& data_;
  std::atomic<std::uint64_t> actor_{0};
  std::atomic<std::uint64_t> n_stale_{0};
  std::atomic<std::uint64_t> n_p2p_{0};
  obs::Tracer* tracer_{nullptr};
  obs::Counter* m_stale_{nullptr};
};

}  // namespace falkon::core
