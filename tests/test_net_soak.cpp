// Connection-scale soak for the reactor: accept a 10k-connection fleet on
// its one loop, heartbeat every connection, and tear it all down — the
// accept path, epoll registration, buffer pool, and close paths under real
// fd pressure. Labeled `soak`: runs in its own ci.sh
// stage, not in tier-1.
//
// The client fleet lives in a forked child process: 10k connections are
// 20k fds when both ends share one process, which busts the typical
// RLIMIT_NOFILE hard cap. Forking (before any reactor thread starts)
// gives each side its own descriptor table, and also makes the soak a
// genuine remote-peer test — the reactor sees real SYNs and FINs, not
// loopback shortcuts inside its own process.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "net/reactor.h"
#include "net/socket.h"
#include "obs/obs.h"
#include "wire/framing.h"

namespace falkon::net {
namespace {

constexpr int kTargetConns = 10000;

/// Child side: build the fleet, heartbeat every connection, then hold the
/// sockets open until the parent has finished its checks. Plain exit codes
/// instead of gtest — the parent asserts on them.
int run_client_fleet(std::uint16_t port, int go_fd, int done_fd) {
  char byte = 0;
  if (::read(go_fd, &byte, 1) != 1) return 10;  // reactor is up
  std::vector<TcpStream> clients;
  clients.reserve(kTargetConns);
  for (int i = 0; i < kTargetConns; ++i) {
    auto stream = TcpStream::connect("127.0.0.1", port);
    if (!stream.ok()) return 11;
    clients.push_back(stream.take());
    // Pace so the kernel accept backlog never overflows; the reactor
    // drains between batches.
    if (i % 256 == 255) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  const std::vector<std::uint8_t> beat = {0xfa, 0x1c, 0x04};
  for (std::size_t i = 0; i < clients.size(); ++i) {
    if (!wire::write_frame(clients[i], i + 1, beat).ok()) return 12;
  }
  wire::Frame frame;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    if (!wire::read_frame(clients[i], frame).ok()) return 13;
    if (frame.corr != i + 1 || frame.payload != beat) return 14;
  }
  if (::write(done_fd, &byte, 1) != 1) return 15;  // fleet up + beaten
  if (::read(go_fd, &byte, 1) != 1) return 16;     // parent checks done
  clients.clear();                                 // 10k FINs at once
  return 0;
}

TEST(ReactorSoak, TenThousandConnectionAcceptAndHeartbeat) {
  // Each side needs kTargetConns fds plus headroom within its own limit.
  rlimit limit{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &limit), 0);
  const rlim_t needed = kTargetConns + 256u;
  if (limit.rlim_cur < needed) {
    rlimit raised = limit;
    raised.rlim_cur = needed < raised.rlim_max ? needed : raised.rlim_max;
    (void)::setrlimit(RLIMIT_NOFILE, &raised);
    ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &limit), 0);
    if (limit.rlim_cur < needed) {
      GTEST_SKIP() << "needs " << needed << " fds, limit is "
                   << limit.rlim_cur;
    }
  }

  auto listener = TcpListener::bind(0);
  ASSERT_TRUE(listener.ok());
  int go_pipe[2];
  int done_pipe[2];
  ASSERT_EQ(::pipe(go_pipe), 0);
  ASSERT_EQ(::pipe(done_pipe), 0);

  // Fork before the reactor spawns threads: the child is single-threaded
  // from birth, so it may allocate and block freely.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Do NOT TcpListener::close() here: it shutdown(2)s the shared socket,
    // which would kill the parent's listener too. _exit closes the child's
    // fd copies without touching socket state.
    ::close(go_pipe[1]);
    ::close(done_pipe[0]);
    ::_exit(run_client_fleet(listener.value().port(), go_pipe[0],
                             done_pipe[1]));
  }
  ::close(go_pipe[0]);
  ::close(done_pipe[1]);

  obs::Obs obs;
  Reactor reactor(ReactorOptions{.obs = &obs});
  ASSERT_TRUE(reactor.start().ok());
  std::atomic<int> heartbeats{0};
  std::atomic<int> closes{0};
  reactor.add_listener(listener.value().fd(), [&](int fd) {
    reactor.adopt(
        fd,
        [&](const std::shared_ptr<Reactor::Conn>& conn, std::uint64_t corr,
            std::vector<std::uint8_t>&& payload) {
          heartbeats.fetch_add(1, std::memory_order_relaxed);
          (void)conn->send_frame(corr, payload);
          conn->recycle(std::move(payload));
        },
        [&](const std::shared_ptr<Reactor::Conn>&) {
          closes.fetch_add(1, std::memory_order_relaxed);
        });
  });

  char byte = 0;
  ASSERT_EQ(::write(go_pipe[1], &byte, 1), 1);
  // Child reports back once every connection is up and every heartbeat
  // echoed; budget generously — this is 10k connects + 20k frames through
  // one host.
  if (::read(done_pipe[0], &byte, 1) != 1) {
    int status = 0;
    ::waitpid(child, &status, 0);
    FAIL() << "client fleet died: exited=" << WIFEXITED(status)
           << " code=" << (WIFEXITED(status) ? WEXITSTATUS(status) : -1)
           << " signal=" << (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
  }

  EXPECT_EQ(reactor.open_connections(),
            static_cast<std::size_t>(kTargetConns));
  EXPECT_EQ(heartbeats.load(), kTargetConns);

  // Release the child: it severs all 10k connections at once and the
  // reactor unwinds the fleet.
  ASSERT_EQ(::write(go_pipe[1], &byte, 1), 1);
  for (int spin = 0; spin < 30000 && reactor.open_connections() > 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(reactor.open_connections(), 0u);
  EXPECT_EQ(closes.load(), kTargetConns);

  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  ::close(go_pipe[1]);
  ::close(done_pipe[0]);
  reactor.remove_listener(listener.value().fd());
  reactor.stop();
}

}  // namespace
}  // namespace falkon::net
