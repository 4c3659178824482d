#include "net/reactor.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <future>
#include <utility>

#include "net/socket.h"

namespace falkon::net {

namespace {

constexpr int kMaxEvents = 64;
constexpr int kMaxIov = 64;
// Bytes decoded per connection per readiness event before yielding, so one
// fire-hosing peer cannot starve the other connections on the loop.
constexpr std::size_t kReadBudget = 256 * 1024;
// epoll_wait timeout when no timer is pending.
constexpr int kIdleTimeoutMs = 100;
constexpr double kAcceptBackoffMinS = 0.05;
constexpr double kAcceptBackoffMaxS = 1.0;
// Minimum spacing between shrink-on-idle pool trims per loop.
constexpr double kPoolTrimIntervalS = 1.0;

// Which reactor loop the current thread is, if it is a loop thread at all.
// Reuseport accept mode uses this to keep a kernel-balanced accepted
// connection on the loop whose listener accepted it (void* because
// Reactor::Loop is private at namespace scope).
thread_local const void* tls_reactor = nullptr;
thread_local void* tls_loop = nullptr;

}  // namespace

struct Reactor::Timer {
  std::uint64_t deadline_tick{0};
  std::function<void()> fn;
};

/// Size-classed free lists of byte buffers, one pool per loop. The owning
/// loop thread is the dominant caller (decode buffers, write completions,
/// close-time recycle) but producers acquire send chunks and handlers may
/// recycle decoded payloads from pool threads, so the pool keeps its own
/// leaf mutex — never held while any other lock is taken.
struct Reactor::BufferPool {
  static constexpr std::size_t kNClasses = 7;
  static constexpr std::size_t kClassBytes[kNClasses] = {
      256, 1u << 10, 4u << 10, 16u << 10, 64u << 10, 256u << 10, 1u << 20};
  /// Per-class retention cap: bounds worst-case pooled memory per loop at
  /// sum(class_bytes) * kMaxPerClass (~43 MB) though trim-on-idle keeps the
  /// steady state far below it.
  static constexpr std::size_t kMaxPerClass = 64;

  std::mutex mu;
  std::array<std::vector<std::vector<std::uint8_t>>, kNClasses> free_lists;

  /// Smallest class that fits `n` bytes, or -1 when larger than every class
  /// (then the allocation is unpooled).
  static int class_for_size(std::size_t n) {
    for (std::size_t c = 0; c < kNClasses; ++c) {
      if (n <= kClassBytes[c]) return static_cast<int>(c);
    }
    return -1;
  }

  /// Largest class whose buffers fit inside `capacity`, or -1 for tiny
  /// one-off vectors not worth keeping.
  static int class_for_capacity(std::size_t capacity) {
    int best = -1;
    for (std::size_t c = 0; c < kNClasses; ++c) {
      if (kClassBytes[c] <= capacity) best = static_cast<int>(c);
    }
    return best;
  }

  std::vector<std::uint8_t> acquire(Reactor& reactor, std::size_t n) {
    const int cls = class_for_size(n);
    if (cls >= 0) {
      std::unique_lock<std::mutex> lock(mu);
      auto& list = free_lists[static_cast<std::size_t>(cls)];
      if (!list.empty()) {
        std::vector<std::uint8_t> buf = std::move(list.back());
        list.pop_back();
        lock.unlock();
        reactor.pool_bytes_.fetch_sub(
            static_cast<std::int64_t>(buf.capacity()),
            std::memory_order_relaxed);
        if (reactor.m_pool_hits_ != nullptr) reactor.m_pool_hits_->inc();
        if (reactor.m_pool_bytes_ != nullptr) {
          reactor.m_pool_bytes_->set(static_cast<double>(
              reactor.pool_bytes_.load(std::memory_order_relaxed)));
        }
        buf.resize(n);  // capacity >= class size >= n: no reallocation
        return buf;
      }
    }
    if (reactor.m_pool_misses_ != nullptr) reactor.m_pool_misses_->inc();
    std::vector<std::uint8_t> buf;
    if (cls >= 0) buf.reserve(kClassBytes[static_cast<std::size_t>(cls)]);
    buf.resize(n);
    return buf;
  }

  void release(Reactor& reactor, std::vector<std::uint8_t>&& buf) {
    const std::size_t capacity = buf.capacity();
    const int cls = class_for_capacity(capacity);
    // Oversized one-offs (beyond 2x the largest class) are returned to the
    // allocator rather than pinned in the pool forever.
    if (cls < 0 || capacity > 2 * kClassBytes[kNClasses - 1]) return;
    buf.clear();
    {
      std::lock_guard<std::mutex> lock(mu);
      auto& list = free_lists[static_cast<std::size_t>(cls)];
      if (list.size() >= kMaxPerClass) return;
      list.push_back(std::move(buf));
    }
    reactor.pool_bytes_.fetch_add(static_cast<std::int64_t>(capacity),
                                  std::memory_order_relaxed);
    if (reactor.m_pool_bytes_ != nullptr) {
      reactor.m_pool_bytes_->set(static_cast<double>(
          reactor.pool_bytes_.load(std::memory_order_relaxed)));
    }
  }

  /// Shrink-on-idle: drop half of every free list (called from the owning
  /// loop when epoll has been idle), so a burst's buffers drain back to the
  /// allocator instead of sitting hot forever.
  void trim(Reactor& reactor) {
    std::int64_t freed = 0;
    bool any = false;
    {
      std::lock_guard<std::mutex> lock(mu);
      for (auto& list : free_lists) {
        const std::size_t keep = list.size() / 2;
        while (list.size() > keep) {
          freed += static_cast<std::int64_t>(list.back().capacity());
          list.pop_back();
          any = true;
        }
      }
    }
    if (!any) return;
    reactor.pool_bytes_.fetch_sub(freed, std::memory_order_relaxed);
    if (reactor.m_pool_trims_ != nullptr) reactor.m_pool_trims_->inc();
    if (reactor.m_pool_bytes_ != nullptr) {
      reactor.m_pool_bytes_->set(static_cast<double>(
          reactor.pool_bytes_.load(std::memory_order_relaxed)));
    }
  }
};

constexpr std::size_t Reactor::BufferPool::kClassBytes[];

struct Reactor::Loop {
  // Hashed timer wheel: 1 ms ticks over 512 slots; entries keep an absolute
  // deadline tick so multi-rotation timers just stay in their slot until the
  // cursor passes them with the right deadline.
  static constexpr std::size_t kWheelSlots = 512;
  static constexpr double kTickS = 0.001;

  Reactor* reactor{nullptr};
  int index{0};
  int epfd{-1};
  int evfd{-1};
  std::thread thread;

  std::mutex ops_mu;
  std::vector<std::function<void()>> ops;
  /// Flush requests: the allocation-free fast path for "this connection has
  /// output queued" — a shared_ptr enqueue instead of a std::function per
  /// send. Drained alongside ops, same eventfd wake.
  std::vector<std::shared_ptr<Conn>> flush_q;
  bool wake_pending{false};
  bool stopped{false};

  // ---- loop-thread-only ----
  std::unordered_map<int, std::shared_ptr<Conn>> conns;
  struct ListenerState {
    AcceptHandler on_accept;
    bool armed{true};
    double backoff_s{0.0};
  };
  std::unordered_map<int, ListenerState> listeners;
  std::array<std::vector<Timer>, kWheelSlots> wheel;
  std::size_t n_timers{0};
  std::uint64_t cursor_tick{0};
  std::chrono::steady_clock::time_point t0;
  BufferPool pool;
  double last_trim_s{0.0};

  [[nodiscard]] double now_s() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  }
  [[nodiscard]] std::uint64_t now_tick() const {
    return static_cast<std::uint64_t>(now_s() / kTickS);
  }

  /// Run `fn` on this loop ~delay_s seconds from now (at least one tick).
  void arm_timer(double delay_s, std::function<void()> fn) {
    const auto ticks = static_cast<std::uint64_t>(delay_s / kTickS);
    const std::uint64_t deadline =
        now_tick() + std::max<std::uint64_t>(1, ticks);
    wheel[deadline % kWheelSlots].push_back(Timer{deadline, std::move(fn)});
    ++n_timers;
  }

  /// Fire every timer whose deadline has passed. Fns run after extraction
  /// so they may add timers.
  void advance_timers() {
    if (n_timers == 0) {
      cursor_tick = now_tick();
      return;
    }
    const std::uint64_t target = now_tick();
    std::vector<Timer> due;
    while (cursor_tick < target) {
      ++cursor_tick;
      auto& slot = wheel[cursor_tick % kWheelSlots];
      for (std::size_t i = 0; i < slot.size();) {
        if (slot[i].deadline_tick <= cursor_tick) {
          due.push_back(std::move(slot[i]));
          slot.erase(slot.begin() + static_cast<std::ptrdiff_t>(i));
          --n_timers;
        } else {
          ++i;
        }
      }
    }
    for (auto& timer : due) timer.fn();
  }

  /// Milliseconds until the nearest deadline (timer population is small —
  /// a handful of backoff/pause entries — so a full scan is cheap).
  [[nodiscard]] int next_timeout_ms() const {
    if (n_timers == 0) return kIdleTimeoutMs;
    std::uint64_t nearest = UINT64_MAX;
    for (const auto& slot : wheel) {
      for (const auto& timer : slot) {
        nearest = std::min(nearest, timer.deadline_tick);
      }
    }
    const std::uint64_t now = now_tick();
    if (nearest <= now) return 0;
    const std::uint64_t delta = nearest - now;
    return static_cast<int>(std::min<std::uint64_t>(delta, kIdleTimeoutMs));
  }
};

Reactor::Reactor(ReactorOptions options) : options_(options) {
  if (options_.n_loops < 1) options_.n_loops = 1;
  if (options_.low_watermark_bytes > options_.high_watermark_bytes) {
    options_.low_watermark_bytes = options_.high_watermark_bytes / 2;
  }
  if (options_.obs != nullptr) {
    auto& reg = options_.obs->registry();
    m_wakeups_ = &reg.counter("falkon.net.reactor.wakeups");
    m_accept_rejected_ = &reg.counter("falkon.net.accept_rejected");
    m_read_paused_ = &reg.counter("falkon.net.reactor.read_paused");
    m_coalesced_ = &reg.counter("falkon.net.frames_coalesced");
    m_migrations_ = &reg.counter("falkon.net.reactor.migrations");
    m_pool_hits_ = &reg.counter("falkon.net.pool.hits");
    m_pool_misses_ = &reg.counter("falkon.net.pool.misses");
    m_pool_trims_ = &reg.counter("falkon.net.pool.trims");
    m_pool_bytes_ = &reg.gauge("falkon.net.pool.bytes");
    m_epoll_batch_ =
        &reg.histogram("falkon.net.reactor.epoll_batch", 1.0, 64.0);
    m_writable_stall_ =
        &reg.histogram("falkon.net.reactor.writable_stall_s", 1e-6, 10.0);
    m_connections_ = &reg.gauge("falkon.net.reactor.connections");
  }
}

Reactor::~Reactor() { stop(); }

Status Reactor::start() {
  if (started_) return ok_status();
  for (int i = 0; i < options_.n_loops; ++i) {
    auto loop = std::make_unique<Loop>();
    loop->reactor = this;
    loop->index = i;
    loop->t0 = std::chrono::steady_clock::now();
    loop->epfd = ::epoll_create1(EPOLL_CLOEXEC);
    loop->evfd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (loop->epfd < 0 || loop->evfd < 0) {
      if (loop->epfd >= 0) ::close(loop->epfd);
      if (loop->evfd >= 0) ::close(loop->evfd);
      loops_.clear();
      return make_error(ErrorCode::kIoError,
                        "reactor: epoll/eventfd setup failed: " +
                            std::string(std::strerror(errno)));
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = loop->evfd;
    ::epoll_ctl(loop->epfd, EPOLL_CTL_ADD, loop->evfd, &ev);
    loops_.push_back(std::move(loop));
  }
  for (auto& loop : loops_) {
    loop->thread = std::thread([this, raw = loop.get()] { run_loop(*raw); });
  }
  started_ = true;
  return ok_status();
}

void Reactor::stop() {
  if (!started_) return;
  stopping_.store(true, std::memory_order_release);
  for (auto& loop : loops_) {
    std::uint64_t one = 1;
    [[maybe_unused]] auto n = ::write(loop->evfd, &one, sizeof(one));
  }
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
    ::close(loop->epfd);
    ::close(loop->evfd);
  }
  loops_.clear();
  {
    std::lock_guard<std::mutex> lock(homes_mu_);
    listener_home_.clear();
  }
  started_ = false;
  stopping_.store(false, std::memory_order_release);
}

Reactor::Loop& Reactor::loop_for_new_conn() {
  if (options_.reuseport && tls_reactor == this && tls_loop != nullptr) {
    // Reuseport accept mode: the kernel already load-balanced this
    // connection onto the accepting loop's listener — adopting it right
    // here skips the cross-thread handoff.
    return *static_cast<Loop*>(tls_loop);
  }
  const std::size_t i =
      next_loop_.fetch_add(1, std::memory_order_relaxed) % loops_.size();
  return *loops_[i];
}

Reactor::Loop& Reactor::loop_for_key(std::uint64_t key) {
  return *loops_[key % loops_.size()];
}

bool Reactor::post(Loop& loop, std::function<void()> op) {
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(loop.ops_mu);
    if (loop.stopped) return false;
    loop.ops.push_back(std::move(op));
    if (!loop.wake_pending) {
      loop.wake_pending = true;
      wake = true;
    }
  }
  if (wake) {
    std::uint64_t one = 1;
    [[maybe_unused]] auto n = ::write(loop.evfd, &one, sizeof(one));
  }
  return true;
}

void Reactor::request_flush(const std::shared_ptr<Conn>& conn) {
  Loop* target = conn->loop_.load(std::memory_order_acquire);
  if (target == nullptr) return;
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(target->ops_mu);
    // A stopped loop closes every connection on shutdown; nothing to flush.
    if (target->stopped) return;
    target->flush_q.push_back(conn);
    if (!target->wake_pending) {
      target->wake_pending = true;
      wake = true;
    }
  }
  if (wake) {
    std::uint64_t one = 1;
    [[maybe_unused]] auto n = ::write(target->evfd, &one, sizeof(one));
  }
}

void Reactor::post_to_owner(
    const std::shared_ptr<Conn>& conn,
    std::function<void(Loop&, const std::shared_ptr<Conn>&)> op) {
  Loop* target = conn->loop_.load(std::memory_order_acquire);
  if (target == nullptr) return;
  post(*target, [this, target, conn, op = std::move(op)]() mutable {
    // A migration may have rebound the connection between enqueue and
    // execution; chase it to the current owner so the op never touches a
    // loop that no longer holds the fd.
    if (conn->loop_.load(std::memory_order_acquire) != target) {
      post_to_owner(conn, std::move(op));
      return;
    }
    op(*target, conn);
  });
}

void Reactor::migrate(Loop& from, const std::shared_ptr<Conn>& conn,
                      Loop& target) {
  if (&from == &target || conn->closed_) return;
  if (!conn->registered_) {
    // Adoption registration always lands before any migration op on the
    // same queue; an unregistered conn here means registration failed —
    // just retarget the pointer.
    conn->loop_.store(&target, std::memory_order_release);
    return;
  }
  ::epoll_ctl(from.epfd, EPOLL_CTL_DEL, conn->fd_, nullptr);
  from.conns.erase(conn->fd_);
  conn->loop_.store(&target, std::memory_order_release);
  if (m_migrations_ != nullptr) m_migrations_->inc();
  const bool posted = post(target, [this, &target, conn] {
    if (conn->closed_) return;
    epoll_event ev{};
    ev.events = 0;
    if (conn->read_on_ && !conn->read_paused_bp_) ev.events |= EPOLLIN;
    if (conn->epollout_) ev.events |= EPOLLOUT;
    ev.data.fd = conn->fd_;
    if (::epoll_ctl(target.epfd, EPOLL_CTL_ADD, conn->fd_, &ev) != 0) {
      do_close(target, conn);
      return;
    }
    target.conns[conn->fd_] = conn;
    loop_flush(target, conn);  // output may have queued mid-migration
  });
  if (!posted) {
    // Target loop already shut down; sever here (do_close tolerates the fd
    // being absent from this loop's registry).
    do_close(from, conn);
  }
}

std::shared_ptr<Reactor::Conn> Reactor::adopt(int fd, FrameHandler on_frame,
                                              CloseHandler on_close) {
  auto conn = std::make_shared<Conn>();
  conn->reactor_ = this;
  conn->fd_ = fd;
  conn->on_frame_ = std::move(on_frame);
  conn->on_close_ = std::move(on_close);
  if (loops_.empty()) {
    ::close(fd);
    std::lock_guard<std::mutex> lock(conn->mu_);
    conn->dead_ = true;
    conn->fd_ = -1;
    return conn;
  }
  Loop& loop = loop_for_new_conn();
  conn->loop_.store(&loop, std::memory_order_release);
  (void)set_nonblocking(fd);
  const bool posted = post(loop, [this, &loop, conn] {
    bool dead;
    {
      std::lock_guard<std::mutex> lock(conn->mu_);
      dead = conn->dead_;
    }
    if (dead) {  // closed before registration landed
      ::close(conn->fd_);
      conn->fd_ = -1;
      return;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = conn->fd_;
    if (::epoll_ctl(loop.epfd, EPOLL_CTL_ADD, conn->fd_, &ev) != 0) {
      ::close(conn->fd_);
      conn->fd_ = -1;
      std::lock_guard<std::mutex> lock(conn->mu_);
      conn->dead_ = true;
      return;
    }
    loop.conns[conn->fd_] = conn;
    conn->registered_ = true;
    open_conns_.fetch_add(1, std::memory_order_relaxed);
    if (m_connections_ != nullptr) {
      m_connections_->set(static_cast<double>(
          open_conns_.load(std::memory_order_relaxed)));
    }
    loop_flush(loop, conn);  // sends may have queued before registration
  });
  if (!posted) {
    ::close(fd);
    std::lock_guard<std::mutex> lock(conn->mu_);
    conn->dead_ = true;
    conn->fd_ = -1;
  }
  return conn;
}

void Reactor::add_listener(int listen_fd, AcceptHandler on_accept) {
  if (loops_.empty()) return;
  const std::size_t index =
      next_listener_loop_.fetch_add(1, std::memory_order_relaxed) %
      loops_.size();
  Loop& loop = *loops_[index];
  {
    std::lock_guard<std::mutex> lock(homes_mu_);
    listener_home_[listen_fd] = static_cast<int>(index);
  }
  (void)set_nonblocking(listen_fd);
  post(loop, [this, &loop, listen_fd, handler = std::move(on_accept)]() mutable {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listen_fd;
    if (::epoll_ctl(loop.epfd, EPOLL_CTL_ADD, listen_fd, &ev) != 0) return;
    Loop::ListenerState state;
    state.on_accept = std::move(handler);
    loop.listeners.emplace(listen_fd, std::move(state));
  });
}

void Reactor::remove_listener(int listen_fd) {
  if (loops_.empty()) return;
  int index = 0;
  {
    std::lock_guard<std::mutex> lock(homes_mu_);
    auto it = listener_home_.find(listen_fd);
    if (it != listener_home_.end()) {
      index = it->second;
      listener_home_.erase(it);
    }
  }
  Loop& loop = *loops_[static_cast<std::size_t>(index)];
  post(loop, [&loop, listen_fd] {
    auto it = loop.listeners.find(listen_fd);
    if (it == loop.listeners.end()) return;
    if (it->second.armed) {
      ::epoll_ctl(loop.epfd, EPOLL_CTL_DEL, listen_fd, nullptr);
    }
    loop.listeners.erase(it);
  });
}

void Reactor::barrier() {
  std::vector<std::future<void>> futures;
  for (auto& loop : loops_) {
    auto promise = std::make_shared<std::promise<void>>();
    auto future = promise->get_future();
    if (post(*loop, [promise] { promise->set_value(); })) {
      futures.push_back(std::move(future));
    }
  }
  for (auto& future : futures) future.wait();
}

std::size_t Reactor::open_connections() const {
  return open_conns_.load(std::memory_order_relaxed);
}

std::vector<std::size_t> Reactor::connections_per_loop() {
  std::vector<std::size_t> out(loops_.size(), 0);
  std::vector<std::future<void>> futures;
  for (std::size_t i = 0; i < loops_.size(); ++i) {
    Loop* loop = loops_[i].get();
    auto promise = std::make_shared<std::promise<void>>();
    auto future = promise->get_future();
    if (post(*loop, [&out, i, loop, promise] {
          out[i] = loop->conns.size();
          promise->set_value();
        })) {
      futures.push_back(std::move(future));
    }
  }
  for (auto& future : futures) future.wait();
  return out;
}

// ---------------------------------------------------------------------------
// Loop body
// ---------------------------------------------------------------------------

void Reactor::run_loop(Loop& loop) {
  tls_reactor = this;
  tls_loop = &loop;
  epoll_event events[kMaxEvents];
  while (true) {
    // Drain posted operations and flush requests.
    std::vector<std::function<void()>> batch;
    std::vector<std::shared_ptr<Conn>> flushes;
    {
      std::lock_guard<std::mutex> lock(loop.ops_mu);
      std::swap(batch, loop.ops);
      std::swap(flushes, loop.flush_q);
      loop.wake_pending = false;
    }
    for (auto& op : batch) op();
    for (auto& conn : flushes) {
      if (conn->loop_.load(std::memory_order_acquire) != &loop) {
        request_flush(conn);  // migrated after the request: chase it
        continue;
      }
      {
        std::lock_guard<std::mutex> lock(conn->mu_);
        conn->flush_requested_ = false;
      }
      loop_flush(loop, conn);
    }
    if (stopping_.load(std::memory_order_acquire)) break;

    loop.advance_timers();

    int timeout = loop.next_timeout_ms();
    {
      std::lock_guard<std::mutex> lock(loop.ops_mu);
      if (!loop.ops.empty() || !loop.flush_q.empty()) {
        timeout = 0;  // op posted from a timer/callback
      }
    }
    const int n = ::epoll_wait(loop.epfd, events, kMaxEvents, timeout);
    if (m_wakeups_ != nullptr) m_wakeups_->inc();
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd itself failed; nothing recoverable
    }
    if (n > 0 && m_epoll_batch_ != nullptr) {
      m_epoll_batch_->record(static_cast<double>(n));
    }
    if (n == 0 && timeout > 0 &&
        loop.now_s() - loop.last_trim_s >= kPoolTrimIntervalS) {
      // Idle wake-up with nothing to do: give pooled buffers back.
      loop.last_trim_s = loop.now_s();
      loop.pool.trim(*this);
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      const std::uint32_t mask = events[i].events;
      if (fd == loop.evfd) {
        std::uint64_t drained = 0;
        [[maybe_unused]] auto r = ::read(loop.evfd, &drained, sizeof(drained));
        continue;
      }
      if (auto lit = loop.listeners.find(fd); lit != loop.listeners.end()) {
        do_accept(loop, fd);
        continue;
      }
      auto cit = loop.conns.find(fd);
      if (cit == loop.conns.end()) continue;  // closed earlier in this batch
      std::shared_ptr<Conn> conn = cit->second;
      if ((mask & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
        handle_readable(loop, conn);
      }
      if (!conn->closed_ && (mask & EPOLLOUT) != 0) {
        handle_writable(loop, conn);
      }
    }
  }

  // Shutdown: refuse further posts, run stragglers, close every connection
  // (firing on_close on this thread, as documented). Pending flush requests
  // are dropped — the close below discards queued output anyway.
  {
    std::lock_guard<std::mutex> lock(loop.ops_mu);
    loop.stopped = true;
  }
  std::vector<std::function<void()>> rest;
  {
    std::lock_guard<std::mutex> lock(loop.ops_mu);
    std::swap(rest, loop.ops);
    loop.flush_q.clear();
  }
  for (auto& op : rest) op();
  std::vector<std::shared_ptr<Conn>> remaining;
  remaining.reserve(loop.conns.size());
  for (auto& [fd, conn] : loop.conns) remaining.push_back(conn);
  for (auto& conn : remaining) do_close(loop, conn);
  for (auto& [fd, state] : loop.listeners) {
    if (state.armed) ::epoll_ctl(loop.epfd, EPOLL_CTL_DEL, fd, nullptr);
  }
  loop.listeners.clear();
}

void Reactor::do_accept(Loop& loop, int listen_fd) {
  auto it = loop.listeners.find(listen_fd);
  if (it == loop.listeners.end()) return;
  while (true) {
    const int fd =
        ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd >= 0) {
      int yes = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &yes, sizeof(yes));
      it->second.backoff_s = 0.0;
      it->second.on_accept(fd);
      // The handler may have removed the listener (server stopping).
      it = loop.listeners.find(listen_fd);
      if (it == loop.listeners.end()) return;
      continue;
    }
    if (errno == EINTR || errno == ECONNABORTED || errno == EPROTO) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
        errno == ENOMEM) {
      // Out of descriptors: spinning on accept would peg the loop without
      // ever succeeding. Withdraw the listener and retry after a backoff —
      // pending connections sit in the kernel backlog meanwhile.
      if (m_accept_rejected_ != nullptr) m_accept_rejected_->inc();
      double& backoff = it->second.backoff_s;
      backoff = (backoff <= 0.0)
                    ? kAcceptBackoffMinS
                    : std::min(backoff * 2.0, kAcceptBackoffMaxS);
      ::epoll_ctl(loop.epfd, EPOLL_CTL_DEL, listen_fd, nullptr);
      it->second.armed = false;
      loop.arm_timer(backoff, [this, &loop, listen_fd] {
        auto lit = loop.listeners.find(listen_fd);
        if (lit == loop.listeners.end()) return;  // removed while backed off
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = listen_fd;
        if (::epoll_ctl(loop.epfd, EPOLL_CTL_ADD, listen_fd, &ev) == 0) {
          lit->second.armed = true;
        }
        do_accept(loop, listen_fd);  // drain whatever queued during backoff
      });
      return;
    }
    // Listener closed or unusable (EBADF, EINVAL): withdraw it.
    if (it->second.armed) {
      ::epoll_ctl(loop.epfd, EPOLL_CTL_DEL, listen_fd, nullptr);
    }
    loop.listeners.erase(it);
    return;
  }
}

void Reactor::update_epoll(Loop& loop, const std::shared_ptr<Conn>& conn) {
  if (!conn->registered_ || conn->closed_) return;
  epoll_event ev{};
  ev.events = 0;
  if (conn->read_on_ && !conn->read_paused_bp_) ev.events |= EPOLLIN;
  if (conn->epollout_) ev.events |= EPOLLOUT;
  ev.data.fd = conn->fd_;
  ::epoll_ctl(loop.epfd, EPOLL_CTL_MOD, conn->fd_, &ev);
}

void Reactor::handle_readable(Loop& loop, const std::shared_ptr<Conn>& conn) {
  if (conn->closed_ || !conn->read_on_) return;
  std::size_t budget = kReadBudget;
  while (budget > 0 && !conn->closed_ && !conn->read_paused_bp_) {
    std::uint8_t* dst;
    std::size_t want;
    if (!conn->reading_payload_) {
      dst = conn->header_ + conn->header_got_;
      want = wire::kFrameHeaderBytes - conn->header_got_;
    } else {
      dst = conn->payload_.data() + conn->payload_got_;
      want = conn->cur_len_ - conn->payload_got_;
    }
    const ssize_t n = ::recv(conn->fd_, dst, std::min(want, budget), 0);
    if (n == 0) {  // peer closed
      do_close(loop, conn);
      return;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      do_close(loop, conn);
      return;
    }
    budget -= static_cast<std::size_t>(n);
    if (!conn->reading_payload_) {
      conn->header_got_ += static_cast<std::size_t>(n);
      if (conn->header_got_ < wire::kFrameHeaderBytes) continue;
      std::uint32_t len = 0;
      std::uint64_t corr = 0;
      for (int b = 0; b < 4; ++b) {
        len |= static_cast<std::uint32_t>(conn->header_[b]) << (8 * b);
      }
      for (int b = 0; b < 8; ++b) {
        corr |= static_cast<std::uint64_t>(conn->header_[4 + b]) << (8 * b);
      }
      if (len > wire::kMaxFrameBytes) {  // corrupted length; don't allocate it
        do_close(loop, conn);
        return;
      }
      conn->header_got_ = 0;
      conn->cur_corr_ = corr;
      conn->cur_len_ = len;
      conn->payload_got_ = 0;
      if (len == 0) {
        deliver_frame(loop, conn, corr, {});
        continue;
      }
      conn->payload_ = loop.pool.acquire(*this, len);
      conn->reading_payload_ = true;
    } else {
      conn->payload_got_ += static_cast<std::size_t>(n);
      if (conn->payload_got_ < conn->cur_len_) continue;
      conn->reading_payload_ = false;
      std::vector<std::uint8_t> payload = std::move(conn->payload_);
      conn->payload_ = {};
      deliver_frame(loop, conn, conn->cur_corr_, std::move(payload));
    }
  }
}

void Reactor::deliver_frame(Loop& loop, const std::shared_ptr<Conn>& conn,
                            std::uint64_t corr,
                            std::vector<std::uint8_t>&& payload) {
  if (conn->on_frame_) conn->on_frame_(conn, corr, std::move(payload));
  maybe_update_read_interest(loop, conn);
}

void Reactor::maybe_update_read_interest(Loop& loop,
                                         const std::shared_ptr<Conn>& conn) {
  if (conn->closed_) return;
  std::size_t queued;
  {
    std::lock_guard<std::mutex> lock(conn->mu_);
    queued = conn->queued_;
  }
  if (!conn->read_paused_bp_ && queued >= options_.high_watermark_bytes) {
    conn->read_paused_bp_ = true;
    if (m_read_paused_ != nullptr) m_read_paused_->inc();
    update_epoll(loop, conn);
  } else if (conn->read_paused_bp_ && queued <= options_.low_watermark_bytes) {
    conn->read_paused_bp_ = false;
    update_epoll(loop, conn);
  }
}

void Reactor::handle_writable(Loop& loop, const std::shared_ptr<Conn>& conn) {
  if (conn->closed_) return;
  if (conn->epollout_) {
    conn->epollout_ = false;
    if (conn->stall_start_ >= 0.0) {
      if (m_writable_stall_ != nullptr) {
        m_writable_stall_->record(loop.now_s() - conn->stall_start_);
      }
      conn->stall_start_ = -1.0;
    }
    update_epoll(loop, conn);
  }
  loop_flush(loop, conn);
}

void Reactor::arm_writable(Loop& loop, const std::shared_ptr<Conn>& conn) {
  if (conn->epollout_) return;
  conn->epollout_ = true;
  conn->stall_start_ = loop.now_s();
  update_epoll(loop, conn);
}

void Reactor::loop_flush(Loop& loop, const std::shared_ptr<Conn>& conn) {
  if (conn->closed_ || !conn->registered_) return;
  if (conn->output_paused_.load(std::memory_order_acquire) || conn->epollout_) {
    return;
  }

  // Fully-written buffers, recycled into this loop's pool once the
  // connection mutex is back off (the pool mutex is a leaf).
  std::vector<std::vector<std::uint8_t>> done_bufs;

  while (true) {
    iovec iov[kMaxIov];
    int niov = 0;
    std::size_t gathered = 0;
    double pause_s = 0.0;
    {
      // Producers only push_back, which never invalidates references to
      // existing deque elements, so the gathered pointers stay valid after
      // the lock is dropped; only this thread pops.
      std::lock_guard<std::mutex> lock(conn->mu_);
      std::size_t off = conn->front_off_;
      for (const auto& chunk : conn->outbox_) {
        if (chunk.pause_s > 0.0) {
          if (niov == 0) pause_s = chunk.pause_s;
          break;
        }
        if (niov == kMaxIov) break;
        iov[niov].iov_base =
            const_cast<std::uint8_t*>(chunk.bytes.data()) + off;
        iov[niov].iov_len = chunk.bytes.size() - off;
        gathered += iov[niov].iov_len;
        ++niov;
        off = 0;
      }
      if (pause_s > 0.0) conn->outbox_.pop_front();
    }
    if (pause_s > 0.0) {
      // Fault-injected delay: park the outbox on the timer wheel instead of
      // sleeping a thread. Bytes queued behind the marker wait it out. The
      // timer stays on this loop even if the connection migrates, so the
      // resume goes through request_flush to reach the then-current owner.
      conn->output_paused_.store(true, std::memory_order_release);
      loop.arm_timer(pause_s, [this, conn] {
        conn->output_paused_.store(false, std::memory_order_release);
        request_flush(conn);
      });
      break;
    }
    if (niov == 0) break;  // outbox drained

    const ssize_t n = ::writev(conn->fd_, iov, niov);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        arm_writable(loop, conn);
        break;
      }
      do_close(loop, conn);
      return;
    }
    std::size_t frames_done = 0;
    {
      std::lock_guard<std::mutex> lock(conn->mu_);
      conn->queued_ -= static_cast<std::size_t>(n);
      std::size_t left = static_cast<std::size_t>(n);
      while (left > 0) {
        auto& front = conn->outbox_.front();
        const std::size_t remain = front.bytes.size() - conn->front_off_;
        if (left >= remain) {
          left -= remain;
          conn->front_off_ = 0;
          done_bufs.push_back(std::move(front.bytes));
          conn->outbox_.pop_front();
          ++frames_done;
        } else {
          conn->front_off_ += left;
          left = 0;
        }
      }
    }
    if (frames_done > 1 && m_coalesced_ != nullptr) {
      m_coalesced_->inc(frames_done - 1);
    }
    if (static_cast<std::size_t>(n) < gathered) {  // partial write
      arm_writable(loop, conn);
      break;
    }
  }

  for (auto& buf : done_bufs) loop.pool.release(*this, std::move(buf));

  bool drained;
  bool close_after;
  {
    std::lock_guard<std::mutex> lock(conn->mu_);
    drained = conn->outbox_.empty();
    close_after = conn->close_after_flush_;
  }
  if (drained && close_after &&
      !conn->output_paused_.load(std::memory_order_acquire) &&
      !conn->epollout_) {
    do_close(loop, conn);
    return;
  }
  maybe_update_read_interest(loop, conn);
}

void Reactor::do_close(Loop& loop, const std::shared_ptr<Conn>& conn) {
  if (conn->closed_) return;
  conn->closed_ = true;
  std::deque<Conn::OutChunk> discarded;
  {
    std::lock_guard<std::mutex> lock(conn->mu_);
    conn->dead_ = true;
    discarded.swap(conn->outbox_);
    conn->queued_ = 0;
  }
  // Recycle whatever the connection was holding — unsent output and the
  // in-progress decode buffer go back to the owning loop's pool.
  for (auto& chunk : discarded) {
    if (!chunk.bytes.empty() || chunk.bytes.capacity() > 0) {
      loop.pool.release(*this, std::move(chunk.bytes));
    }
  }
  if (conn->payload_.capacity() > 0) {
    loop.pool.release(*this, std::move(conn->payload_));
    conn->payload_ = {};
  }
  if (conn->registered_) {
    ::epoll_ctl(loop.epfd, EPOLL_CTL_DEL, conn->fd_, nullptr);
    loop.conns.erase(conn->fd_);
    open_conns_.fetch_sub(1, std::memory_order_relaxed);
    if (m_connections_ != nullptr) {
      m_connections_->set(static_cast<double>(
          open_conns_.load(std::memory_order_relaxed)));
    }
  }
  ::close(conn->fd_);
  conn->fd_ = -1;
  if (conn->on_close_) conn->on_close_(conn);
  conn->on_frame_ = nullptr;
  conn->on_close_ = nullptr;
}

// ---------------------------------------------------------------------------
// Conn
// ---------------------------------------------------------------------------

Status Reactor::Conn::send_frame(std::uint64_t corr,
                                 const std::vector<std::uint8_t>& payload) {
  const std::size_t total = wire::kFrameHeaderBytes + payload.size();
  std::vector<std::uint8_t> bytes;
  Loop* loop = loop_.load(std::memory_order_acquire);
  if (loop != nullptr) {
    bytes = loop->pool.acquire(*reactor_, total);
  } else {
    bytes.resize(total);
  }
  wire::put_frame_header(bytes.data(), corr,
                         static_cast<std::uint32_t>(payload.size()));
  if (!payload.empty()) {
    std::memcpy(bytes.data() + wire::kFrameHeaderBytes, payload.data(),
                payload.size());
  }
  return send_raw(std::move(bytes));
}

Status Reactor::Conn::send_raw(std::vector<std::uint8_t> bytes) {
  bool need_post = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (dead_) return make_error(ErrorCode::kClosed, "connection closed");
    queued_ += bytes.size();
    OutChunk chunk;
    chunk.bytes = std::move(bytes);
    outbox_.push_back(std::move(chunk));
    if (!flush_requested_) {
      flush_requested_ = true;
      need_post = true;
    }
  }
  if (need_post) reactor_->request_flush(shared_from_this());
  return ok_status();
}

void Reactor::Conn::set_affinity(std::uint64_t key) {
  Reactor* reactor = reactor_;
  if (reactor == nullptr || reactor->loops_.size() <= 1) return;
  Loop& target = reactor->loop_for_key(key);
  if (loop_.load(std::memory_order_acquire) == &target) return;
  reactor->post_to_owner(
      shared_from_this(),
      [reactor, &target](Loop& owner, const std::shared_ptr<Conn>& conn) {
        reactor->migrate(owner, conn, target);
      });
}

void Reactor::Conn::recycle(std::vector<std::uint8_t>&& buffer) {
  Reactor* reactor = reactor_;
  Loop* loop = loop_.load(std::memory_order_acquire);
  if (reactor == nullptr || loop == nullptr) return;
  loop->pool.release(*reactor, std::move(buffer));
}

int Reactor::Conn::owner_loop_index() const {
  Loop* loop = loop_.load(std::memory_order_acquire);
  return loop != nullptr ? loop->index : -1;
}

void Reactor::Conn::pause_output(double delay_s) {
  bool need_post = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (dead_) return;
    OutChunk marker;
    marker.pause_s = delay_s;
    outbox_.push_back(std::move(marker));
    if (!flush_requested_) {
      flush_requested_ = true;
      need_post = true;
    }
  }
  if (need_post) reactor_->request_flush(shared_from_this());
}

void Reactor::Conn::close_after_flush() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (dead_) return;
    dead_ = true;
    close_after_flush_ = true;
  }
  reactor_->post_to_owner(
      shared_from_this(),
      [](Loop& owner, const std::shared_ptr<Conn>& conn) {
        if (conn->closed_) return;
        conn->read_on_ = false;
        conn->reactor_->update_epoll(owner, conn);
        conn->reactor_->loop_flush(owner, conn);
      });
}

void Reactor::Conn::close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (dead_ && close_after_flush_) {
      close_after_flush_ = false;  // upgrade a graceful close to immediate
    } else if (dead_) {
      return;
    }
    dead_ = true;
  }
  reactor_->post_to_owner(shared_from_this(),
                          [](Loop& owner, const std::shared_ptr<Conn>& conn) {
                            conn->reactor_->do_close(owner, conn);
                          });
}

std::size_t Reactor::Conn::queued_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_;
}

bool Reactor::Conn::overloaded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_ >= reactor_->options_.high_watermark_bytes;
}

}  // namespace falkon::net
