// falkon::net::Reactor — the epoll event loop for the server side of the
// stack.
//
// Before this existed every accepted connection cost the dispatcher two
// threads (a blocking reader plus a transient handshake thread); at a few
// hundred registered executors a single-core host spends its cycles
// context-switching instead of dispatching. The reactor replaces all of
// that with readiness-driven I/O on one event-loop thread per server: it
// owns the epoll fd, an eventfd wakeup, a deadline list, a pooled buffer
// allocator and every adopted connection. Reads are decoded incrementally
// into frames and writes drain from a per-connection outbox of pre-framed
// chunks. Handlers never run socket syscalls and the loop thread never
// blocks — producers enqueue and request a flush through a pending list +
// eventfd, completions re-arm EPOLLOUT the same way.
//
// One loop is enough: every reply, Notify and ResultStream frame is
// produced on a handler-pool or notify-pool thread, so the loop only moves
// bytes. At 256 executors it stays under a fifth of a core
// (docs/PERFORMANCE.md, decision 4).
//
// Buffers: a size-classed pool (falkon.net.pool.*) serves outbox chunks and
// inbound decode buffers. Chunks recycle when written out or on close; an
// idle loop shrinks the pool. This bounds the per-connection memory the old
// always-malloc scheme leaked into fragmented heaps at high fan-in.
//
// Slow readers are handled with high/low watermarks instead of unbounded
// queues: once a connection's outbox passes the high watermark the loop
// stops reading new requests from it (EPOLLIN off) until the backlog
// drains below the low watermark. Push-style callers can also consult
// Conn::overloaded() and shed load instead.
//
// The deadline list carries the reactor's two internal timers: accept
// backoff after fd exhaustion, and the fault injector's delay action (a
// pause marker in the outbox rather than a sleeping thread), so injected
// latency never stalls the loop.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "obs/obs.h"
#include "wire/framing.h"

namespace falkon::net {

struct ReactorOptions {
  /// Backpressure watermarks, bytes buffered per connection: above high the
  /// loop stops reading that connection's requests, below low it resumes.
  std::size_t high_watermark_bytes{8u << 20};
  std::size_t low_watermark_bytes{1u << 20};
  /// Metrics (falkon.net.reactor.*, falkon.net.pool.*,
  /// falkon.net.accept_rejected, falkon.net.frames_coalesced); nullptr
  /// disables at zero cost.
  obs::Obs* obs{nullptr};
};

/// Readiness-driven event loop owning sockets and per-connection frame
/// state. Servers adopt accepted fds as Conn objects and get called back
/// with complete frames; everything socket-shaped happens on the loop
/// thread.
class Reactor {
 public:
  class Conn;

  /// A complete frame arrived. Runs on the loop thread — do not block;
  /// hand real work to a pool. The payload is moved out; give it back with
  /// Conn::recycle() once decoded to keep the buffer pool warm.
  using FrameHandler = std::function<void(const std::shared_ptr<Conn>&,
                                          std::uint64_t corr,
                                          std::vector<std::uint8_t>&& payload)>;
  /// The connection died (peer close, write error, protocol error, or
  /// explicit close). Fired exactly once, on the loop thread, after the fd
  /// is withdrawn — no frame callback follows it.
  using CloseHandler = std::function<void(const std::shared_ptr<Conn>&)>;
  /// An accepted socket (already non-blocking, TCP_NODELAY set). Ownership
  /// of the fd transfers to the handler; runs on the loop thread.
  using AcceptHandler = std::function<void(int fd)>;

  explicit Reactor(ReactorOptions options = {});
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Spawn the loop thread (named "loop"). Must be called before anything
  /// else.
  Status start();

  /// Stop the loop, close every adopted connection (firing on_close on the
  /// loop thread), join the thread. Idempotent.
  void stop();

  /// Take ownership of a connected non-blocking fd. The connection is
  /// registered with the loop asynchronously; sends enqueued before the
  /// registration lands are flushed after it.
  std::shared_ptr<Conn> adopt(int fd, FrameHandler on_frame,
                              CloseHandler on_close);

  /// Watch a listening fd (not owned) and call on_accept for every
  /// accepted connection. On EMFILE/ENFILE the reactor pauses accepting
  /// with exponential backoff (counting falkon.net.accept_rejected)
  /// instead of spinning, and re-arms from the deadline list.
  void add_listener(int listen_fd, AcceptHandler on_accept);

  /// Stop watching a listening fd. Asynchronous; follow with barrier()
  /// before closing the fd.
  void remove_listener(int listen_fd);

  /// Wait until the loop has drained its pending operation queue. After
  /// this returns, all close()/remove_listener() calls issued before it
  /// have taken effect and their callbacks have run.
  void barrier();

  [[nodiscard]] std::size_t open_connections() const;

 private:
  struct BufferPool;

  /// Enqueue an operation on the loop thread; false if the loop has
  /// stopped.
  bool post(std::function<void()> op);
  /// Ask the loop to flush `conn`'s outbox. Allocation-free fast path (a
  /// shared_ptr in the pending list instead of a std::function per send).
  void request_flush(const std::shared_ptr<Conn>& conn);
  /// Write to the eventfd if the loop has no wake-up pending (ops_mu_ held).
  void wake_locked();

  // Loop-thread-only machinery (see reactor.cpp).
  void run_loop();
  void arm_timer(double delay_s, std::function<void()> fn);
  void run_due_timers();
  [[nodiscard]] int next_timeout_ms() const;
  [[nodiscard]] double now_s() const;
  void do_accept(int listen_fd);
  void do_close(const std::shared_ptr<Conn>& conn);
  void handle_readable(const std::shared_ptr<Conn>& conn);
  void handle_writable(const std::shared_ptr<Conn>& conn);
  void deliver_frame(const std::shared_ptr<Conn>& conn, std::uint64_t corr,
                     std::vector<std::uint8_t>&& payload);
  void loop_flush(const std::shared_ptr<Conn>& conn);
  void arm_writable(const std::shared_ptr<Conn>& conn);
  void update_epoll(const std::shared_ptr<Conn>& conn);
  void maybe_update_read_interest(const std::shared_ptr<Conn>& conn);

  friend class Conn;

  ReactorOptions options_;
  int epfd_{-1};
  int evfd_{-1};
  std::thread thread_;
  std::atomic<std::size_t> open_conns_{0};
  std::atomic<bool> stopping_{false};
  bool started_{false};

  std::mutex ops_mu_;
  std::vector<std::function<void()>> ops_;
  /// Flush requests, drained alongside ops_ on the same eventfd wake.
  std::vector<std::shared_ptr<Conn>> flush_q_;
  bool wake_pending_{false};
  /// True whenever the loop thread is not running: posts are refused.
  bool stopped_{true};

  // ---- loop-thread-only ----
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;
  struct ListenerState {
    AcceptHandler on_accept;
    bool armed{true};
    double backoff_s{0.0};
  };
  std::unordered_map<int, ListenerState> listeners_;
  /// Pending timers by absolute deadline (now_s() seconds).
  std::multimap<double, std::function<void()>> timers_;
  std::chrono::steady_clock::time_point t0_;
  double last_trim_s_{0.0};

  std::unique_ptr<BufferPool> pool_;
  /// Pooled bytes (mirrors falkon.net.pool.bytes).
  std::atomic<std::int64_t> pool_bytes_{0};

  // Metric handles (null when options_.obs is null).
  obs::Counter* m_wakeups_{nullptr};
  obs::Counter* m_accept_rejected_{nullptr};
  obs::Counter* m_read_paused_{nullptr};
  obs::Counter* m_coalesced_{nullptr};
  obs::Counter* m_pool_hits_{nullptr};
  obs::Counter* m_pool_misses_{nullptr};
  obs::Counter* m_pool_trims_{nullptr};
  obs::Gauge* m_pool_bytes_{nullptr};
  obs::Histogram* m_epoll_batch_{nullptr};
  obs::Histogram* m_writable_stall_{nullptr};
  obs::Gauge* m_connections_{nullptr};
};

/// One adopted connection. Producers (handler pool threads, push callers)
/// only touch the outbox under its mutex; all socket I/O and frame
/// assembly happen on the loop thread.
class Reactor::Conn : public std::enable_shared_from_this<Reactor::Conn> {
 public:
  /// Queue one framed message (12-byte header + payload) for write.
  /// kClosed once the connection is dead.
  Status send_frame(std::uint64_t corr, const std::vector<std::uint8_t>& payload);

  /// Queue pre-encoded raw bytes (fault paths write deliberately broken
  /// frames through this).
  Status send_raw(std::vector<std::uint8_t> bytes);

  /// Return a decoded payload buffer to the reactor's pool. Optional —
  /// dropping the vector is always correct — but handlers that recycle
  /// keep the decode path allocation-free.
  void recycle(std::vector<std::uint8_t>&& buffer);

  /// Insert a pause marker: output enqueued after this point waits
  /// delay_s seconds (served by the loop's deadline list — the loop thread
  /// never sleeps). This is the fault injector's kDelay on the reactor path.
  void pause_output(double delay_s);

  /// Reject new sends now, flush what is queued, then sever. Reading stops
  /// immediately.
  void close_after_flush();

  /// Sever now; queued output is discarded. on_close fires asynchronously
  /// on the loop thread.
  void close();

  [[nodiscard]] std::size_t queued_bytes() const;
  /// True when the outbox is past the high watermark (slow reader); push
  /// paths use this to shed load instead of buffering without bound.
  [[nodiscard]] bool overloaded() const;
  [[nodiscard]] int fd() const { return fd_; }

 private:
  friend class Reactor;
  struct OutChunk {
    std::vector<std::uint8_t> bytes;
    double pause_s{0.0};  // > 0: pause marker, bytes empty
  };

  /// Queue `chunk` and request a flush; kClosed once the connection is dead.
  Status enqueue(OutChunk chunk);

  Reactor* reactor_{nullptr};
  int fd_{-1};
  FrameHandler on_frame_;
  CloseHandler on_close_;

  // ---- producer-shared state (guarded by mu_) ----
  mutable std::mutex mu_;
  std::deque<OutChunk> outbox_;
  std::size_t queued_{0};
  bool dead_{false};
  bool flush_requested_{false};
  bool close_after_flush_{false};

  // ---- loop-thread-only state ----
  std::size_t front_off_{0};
  bool registered_{false};
  bool closed_{false};
  bool epollout_{false};
  bool output_paused_{false};
  bool read_on_{true};
  bool read_paused_bp_{false};
  double stall_start_{-1.0};
  std::uint8_t header_[wire::kFrameHeaderBytes];
  std::size_t header_got_{0};
  std::uint64_t cur_corr_{0};
  std::uint32_t cur_len_{0};
  std::vector<std::uint8_t> payload_;
  std::size_t payload_got_{0};
  bool reading_payload_{false};
};

}  // namespace falkon::net
