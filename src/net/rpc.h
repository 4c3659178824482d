// Request/response RPC over TCP, with dispatcher-initiated frames on the
// same connection.
//
// This is the C++ stand-in for the GT4 WS container of the original Falkon
// together with its custom TCP notification protocol (paper section 3.3).
// The original split them over two channels; here one connection per peer
// carries both:
//   * requests and their replies (submit, get-work, deliver-result,
//     status, ...) under correlation ids >= 1;
//   * frames the server initiates (Notify {3}, ClientNotify {8},
//     ResultStream) under the reserved correlation id 0. A peer asks for
//     them by sending a Notify{key} subscription frame with correlation
//     id 0; the server binds the key to that connection and push(key, ...)
//     writes to it. Executors still dial out, so the paper's firewall
//     argument holds.
//
// The channel is *pipelined*: the client keeps many calls outstanding on
// one connection and a reader thread demuxes replies to per-call waiters
// (and hands correlation-id-0 frames to a callback). The server side runs
// on a falkon::net::Reactor — one event loop owns every accepted
// connection, so a dispatcher holding hundreds of registered executors
// costs one loop thread plus the handler pool, not a thread per
// connection. Handlers run on the pool (the loop thread never blocks);
// replies and pushes drain through per-connection outboxes as gathered
// writes with watermark backpressure.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.h"
#include "fault/fault.h"
#include "net/reactor.h"
#include "net/socket.h"
#include "obs/obs.h"
#include "wire/message.h"

namespace falkon::net {

/// Server-side request handler: one message in, one message out. The
/// handler owns the decoded request and may move parts of it onward (a
/// submit's tasks, a delivery's results); handlers that only read it can
/// still take `const wire::Message&`.
using RpcHandler = std::function<wire::Message(wire::Message&&)>;

struct RpcServerOptions {
  /// Handler pool size. 0 means one shared handler thread (strict FIFO
  /// through a single worker, what unit tests expect); N > 0 gives a pool
  /// of N so a blocking handler (wait_results) cannot stall pipelined
  /// calls behind it and replies genuinely reorder. Handlers never run on
  /// the reactor loop thread.
  std::size_t handler_threads{0};
  /// Optional metrics sink (falkon.net.frames_coalesced, the
  /// falkon.net.reactor.* family and falkon.net.push.backpressure_drops).
  obs::Obs* obs{nullptr};
  /// Watermarks of the server's reactor (ReactorOptions).
  std::size_t high_watermark_bytes{8u << 20};
  std::size_t low_watermark_bytes{1u << 20};
  /// Test-only: shrink SO_SNDBUF on accepted sockets to force the
  /// partial-write/EAGAIN paths.
  int sndbuf_bytes{0};
};

/// Accepts connections on its own one-loop reactor and serves framed
/// request/response exchanges. Connections are reactor-owned Conn objects
/// (no per-connection threads); requests are decoded and handled on the
/// handler pool, and replies drain through the connection outbox as
/// coalesced gathered writes.
///
/// A correlation-id-0 Notify{key} from a peer is a subscription, not a
/// request: it is decoded and bound inline on the loop thread, so it takes
/// effect before any later frame of the same connection reaches the pool.
/// A key names one connection (re-binding moves it); a connection may hold
/// many keys. Bindings end with the connection or with unbind(); neither
/// unbind() nor re-binding ever closes a connection, because it also
/// carries the peer's calls.
class RpcServer {
 public:
  RpcServer() = default;
  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  /// Bind (port 0 = ephemeral) and start accepting. `fault` (optional,
  /// test-only) injects reply-frame faults at Site::kRpcReply and
  /// pushed-frame faults at Site::kPushFrame. `options.obs` also feeds
  /// falkon.net.push.backpressure_drops.
  Status start(RpcHandler handler, std::uint16_t port = 0,
               fault::FaultInjector* fault = nullptr,
               RpcServerOptions options = {});

  /// Stop accepting, sever all connections, drain the handler pool.
  /// Idempotent.
  void stop();

  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }
  [[nodiscard]] std::size_t active_connections() const;

  /// Write `message` under correlation id 0 to the connection bound to
  /// `key`; kNotFound if none is. A connection whose outbox is past the
  /// high watermark has the frame shed (counted, reported as sent): a lost
  /// Notify is recovered by the dispatcher's renotify sweep, a lost
  /// ResultStream by the client's resubscribe or poll.
  Status push(std::uint64_t key, const wire::Message& message);

  /// Drop the binding of `key`, if any; the connection stays open.
  void unbind(std::uint64_t key);

 private:
  void on_accept(int fd);
  /// Correlation-id-0 frame: bind the subscription key (loop thread).
  void bind(const std::shared_ptr<Reactor::Conn>& conn,
            std::vector<std::uint8_t>&& payload);
  void on_frame(const std::shared_ptr<Reactor::Conn>& conn,
                std::uint64_t corr, std::vector<std::uint8_t>&& payload);
  void on_close(const std::shared_ptr<Reactor::Conn>& conn);
  void enqueue_reply(const std::shared_ptr<Reactor::Conn>& conn,
                     std::uint64_t corr, const wire::Message& reply);

  TcpListener listener_;
  RpcHandler handler_;
  fault::FaultInjector* fault_{nullptr};
  std::unique_ptr<ThreadPool> pool_;
  /// Kept from stop() until the next start() or destruction: a producer
  /// still holding a Conn may touch its buffer pool.
  std::unique_ptr<Reactor> reactor_;
  int sndbuf_bytes_{0};
  obs::Counter* m_bp_drops_{nullptr};
  mutable std::mutex mu_;
  std::vector<std::weak_ptr<Reactor::Conn>> connections_;
  /// Subscription key -> connection (guarded by mu_).
  std::unordered_map<std::uint64_t, std::shared_ptr<Reactor::Conn>> bindings_;
  std::atomic<bool> stopping_{false};
  bool started_{false};
};

/// Pipelined RPC client: many outstanding calls share one connection. Each
/// call takes a fresh correlation id and parks on its own waiter; a reader
/// thread demuxes reply frames by correlation id. Out-of-order replies (a
/// pooled server finishing a fast call before a slow one) route correctly.
///
/// Failure semantics: a frame that fails to *decode* (corrupt payload,
/// intact framing) fails only the call it correlates to; a stream-level
/// error (drop, truncation, peer death) fails every call in flight on the
/// connection, which is exactly the set mapped to the lost stream.
/// Correlation-id-0 frames are server-initiated; see subscribe().
class RpcClient {
 public:
  /// Receives each decoded correlation-id-0 frame, on the reader thread.
  /// It must not wait on a call of the same client: that call's reply is
  /// read by the thread the handler is running on.
  using PushHandler = std::function<void(wire::Message)>;

  /// `fault` (optional, test-only) injects connect faults at
  /// Site::kRpcConnect and request-frame faults at Site::kRpcRequest.
  /// `obs` (optional) exposes the falkon.net.rpc.inflight gauge.
  static Result<RpcClient> connect(const std::string& host, std::uint16_t port,
                                   fault::FaultInjector* fault = nullptr,
                                   obs::Obs* obs = nullptr);

  RpcClient(RpcClient&&) noexcept;
  RpcClient& operator=(RpcClient&&) noexcept;
  ~RpcClient();

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  /// Send a request, wait for the reply. Safe to call from many threads
  /// concurrently; calls overlap on the wire. An ErrorReply from the server
  /// is surfaced as a failed Status with the carried code.
  Result<wire::Message> call(const wire::Message& request);

  /// Ask the server to bind `key` to this connection (a correlation-id-0
  /// Notify{key}) and pass every frame it pushes here to `handler`, which
  /// replaces any earlier one. One connection may subscribe many keys;
  /// the binding is in place before any call issued after this returns is
  /// handled.
  Status subscribe(std::uint64_t key, PushHandler handler);

  /// Sever the connection; in-flight and future calls fail.
  void close();

 private:
  struct Impl;
  explicit RpcClient(std::unique_ptr<Impl> impl);

  std::unique_ptr<Impl> impl_;
};

}  // namespace falkon::net
