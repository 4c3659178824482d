// TCP substrate tests: sockets, the reactor event loop, RPC
// request/response, server-initiated frames on the same connection, and the
// watermark backpressure and fd-exhaustion paths of the server side.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <vector>

#include "net/rpc.h"
#include "net/socket.h"
#include "obs/obs.h"
#include "wire/framing.h"

namespace falkon::net {
namespace {

TEST(Socket, ListenerPicksEphemeralPort) {
  auto listener = TcpListener::bind(0);
  ASSERT_TRUE(listener.ok());
  EXPECT_GT(listener.value().port(), 0);
}

TEST(Socket, ConnectRefusedOnClosedPort) {
  // Bind then immediately close to learn a (probably) dead port.
  auto listener = TcpListener::bind(0);
  ASSERT_TRUE(listener.ok());
  const std::uint16_t port = listener.value().port();
  listener.value().close();
  auto stream = TcpStream::connect("127.0.0.1", port);
  EXPECT_FALSE(stream.ok());
}

TEST(Rpc, EchoCallRoundtrip) {
  RpcServer server;
  ASSERT_TRUE(server
                  .start([](const wire::Message& request) -> wire::Message {
                    if (const auto* notify = std::get_if<wire::Notify>(&request)) {
                      return wire::Notify{notify->executor_id,
                                          notify->resource_key + 1};
                    }
                    return wire::ErrorReply{ErrorCode::kProtocolError, "?"};
                  })
                  .ok());

  auto client = RpcClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  auto reply = client.value().call(wire::Notify{ExecutorId{5}, 41});
  ASSERT_TRUE(reply.ok());
  const auto* notify = std::get_if<wire::Notify>(&reply.value());
  ASSERT_NE(notify, nullptr);
  EXPECT_EQ(notify->resource_key, 42u);
  server.stop();
}

TEST(Rpc, ServerErrorReplySurfacesAsStatus) {
  RpcServer server;
  ASSERT_TRUE(server
                  .start([](const wire::Message&) -> wire::Message {
                    return wire::ErrorReply{ErrorCode::kNotFound, "nope"};
                  })
                  .ok());
  auto client = RpcClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  auto reply = client.value().call(wire::StatusRequest{});
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.error().code, ErrorCode::kNotFound);
  server.stop();
}

TEST(Rpc, ManySequentialCallsOnOneConnection) {
  std::atomic<int> handled{0};
  RpcServer server;
  ASSERT_TRUE(server
                  .start([&](const wire::Message&) -> wire::Message {
                    handled.fetch_add(1);
                    return wire::StatusReply{};
                  })
                  .ok());
  auto client = RpcClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(client.value().call(wire::StatusRequest{}).ok());
  }
  EXPECT_EQ(handled.load(), 200);
  server.stop();
}

TEST(Rpc, MultipleConcurrentClients) {
  RpcServer server;
  ASSERT_TRUE(server
                  .start([](const wire::Message&) -> wire::Message {
                    return wire::StatusReply{};
                  })
                  .ok());
  std::vector<std::thread> threads;
  std::atomic<int> successes{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      auto client = RpcClient::connect("127.0.0.1", server.port());
      if (!client.ok()) return;
      for (int i = 0; i < 50; ++i) {
        if (client.value().call(wire::StatusRequest{}).ok()) {
          successes.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(successes.load(), 8 * 50);
  server.stop();
}

TEST(Rpc, PipelinedCallsShareOneConnection) {
  // Many threads issue calls through ONE client: all calls multiplex over a
  // single connection (correlation ids demux the replies) and every caller
  // gets its own answer back.
  RpcServerOptions options;
  options.handler_threads = 4;
  RpcServer server;
  ASSERT_TRUE(server
                  .start(
                      [](const wire::Message& request) -> wire::Message {
                        const auto* notify = std::get_if<wire::Notify>(&request);
                        if (notify == nullptr) {
                          return wire::ErrorReply{ErrorCode::kProtocolError, "?"};
                        }
                        return wire::Notify{notify->executor_id,
                                            notify->resource_key * 2};
                      },
                      0, nullptr, options)
                  .ok());
  auto client = RpcClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  std::atomic<int> correct{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < 50; ++i) {
        const std::uint64_t key = static_cast<std::uint64_t>(t) * 1000 + i;
        auto reply = client.value().call(wire::Notify{ExecutorId{1}, key});
        if (!reply.ok()) continue;
        const auto* notify = std::get_if<wire::Notify>(&reply.value());
        if (notify != nullptr && notify->resource_key == key * 2) {
          correct.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(correct.load(), 8 * 50);
  EXPECT_EQ(server.active_connections(), 1u);
  server.stop();
}

TEST(Rpc, OutOfOrderRepliesRouteByCorrelationId) {
  // A pooled server finishes a fast call while a slow one is still being
  // handled on the same connection; the fast reply overtakes the slow one
  // on the wire and the client must route both correctly.
  constexpr std::uint64_t kSlowKey = 1;
  constexpr std::uint64_t kFastKey = 2;
  RpcServerOptions options;
  options.handler_threads = 2;
  RpcServer server;
  ASSERT_TRUE(server
                  .start(
                      [&](const wire::Message& request) -> wire::Message {
                        const auto* notify = std::get_if<wire::Notify>(&request);
                        if (notify == nullptr) {
                          return wire::ErrorReply{ErrorCode::kProtocolError, "?"};
                        }
                        if (notify->resource_key == kSlowKey) {
                          std::this_thread::sleep_for(
                              std::chrono::milliseconds(300));
                        }
                        return *notify;
                      },
                      0, nullptr, options)
                  .ok());
  auto client = RpcClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  std::mutex mu;
  std::vector<std::uint64_t> completion_order;
  std::thread slow([&] {
    auto reply = client.value().call(wire::Notify{ExecutorId{1}, kSlowKey});
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(std::get_if<wire::Notify>(&reply.value())->resource_key, kSlowKey);
    std::lock_guard lock(mu);
    completion_order.push_back(kSlowKey);
  });
  // Give the slow call time to reach the server before racing it.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  auto reply = client.value().call(wire::Notify{ExecutorId{1}, kFastKey});
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(std::get_if<wire::Notify>(&reply.value())->resource_key, kFastKey);
  {
    std::lock_guard lock(mu);
    completion_order.push_back(kFastKey);
  }
  slow.join();
  ASSERT_EQ(completion_order.size(), 2u);
  EXPECT_EQ(completion_order[0], kFastKey);  // overtook the slow call
  EXPECT_EQ(completion_order[1], kSlowKey);
  server.stop();
}

TEST(Rpc, CorruptReplyFailsOnlyItsOwnCall) {
  // Reply #3 is corrupted in-flight (payload bytes flipped, framing intact):
  // exactly that call fails with a protocol error; earlier and later calls
  // on the SAME connection succeed — the stream never desynchronises.
  fault::FaultPlan plan;
  plan.at(fault::Site::kRpcReply, fault::Action::kCorrupt, /*nth_op=*/3);
  fault::FaultInjector inject(plan);
  RpcServer server;
  ASSERT_TRUE(server
                  .start(
                      [](const wire::Message&) -> wire::Message {
                        return wire::StatusReply{};
                      },
                      0, &inject)
                  .ok());
  auto client = RpcClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  for (int i = 1; i <= 5; ++i) {
    auto reply = client.value().call(wire::StatusRequest{});
    if (i == 3) {
      ASSERT_FALSE(reply.ok()) << "corrupted reply must fail its call";
      EXPECT_EQ(reply.error().code, ErrorCode::kProtocolError);
    } else {
      EXPECT_TRUE(reply.ok()) << "call " << i << ": " << (reply.ok() ? "" : reply.error().str());
    }
  }
  server.stop();
}

TEST(Rpc, DroppedReplyFailsEveryCallInFlight) {
  // A dropped reply severs the stream (fault semantics at kRpcReply): every
  // call in flight on that connection fails — they were all mapped to the
  // lost stream — and the client stays broken rather than silently hanging.
  fault::FaultPlan plan;
  plan.at(fault::Site::kRpcReply, fault::Action::kDrop, /*nth_op=*/2);
  fault::FaultInjector inject(plan);
  RpcServer server;
  ASSERT_TRUE(server
                  .start(
                      [](const wire::Message&) -> wire::Message {
                        return wire::StatusReply{};
                      },
                      0, &inject)
                  .ok());
  auto client = RpcClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  ASSERT_TRUE(client.value().call(wire::StatusRequest{}).ok());

  // Two concurrent calls: reply #2's flush severs the connection, so BOTH
  // fail — one by the drop itself, the other by the stream's death.
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      if (!client.value().call(wire::StatusRequest{}).ok()) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 2);
  // The connection is gone for good; later calls fail fast, never hang.
  EXPECT_FALSE(client.value().call(wire::StatusRequest{}).ok());
  server.stop();
}

TEST(Rpc, DelayedReplyHoldsItsConnectionButNotTheLoop) {
  // A kDelay at the reply site parks a pause marker in the connection's
  // outbox: that reply, and every later frame on the same connection, waits
  // at least `param` seconds on the loop's deadline list. The loop itself
  // never sleeps, so a second connection it serves keeps completing calls.
  constexpr double kDelayS = 1.0;
  fault::FaultPlan plan;
  plan.at(fault::Site::kRpcReply, fault::Action::kDelay, /*nth_op=*/1, kDelayS);
  fault::FaultInjector inject(plan);
  RpcServer server;
  ASSERT_TRUE(server
                  .start(
                      [](const wire::Message&) -> wire::Message {
                        return wire::StatusReply{};
                      },
                      0, &inject)
                  .ok());
  const auto replies_sampled = [&] {
    return inject.stats(fault::Site::kRpcReply).ops;
  };

  auto held = TcpStream::connect("127.0.0.1", server.port());
  ASSERT_TRUE(held.ok());
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed_s = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  const auto request = wire::encode_message(wire::StatusRequest{});
  // Reply #1 draws the delay; reply #2 queues behind its pause marker.
  for (std::uint64_t corr = 1; corr <= 2; ++corr) {
    ASSERT_TRUE(wire::write_frame(held.value(), corr, request).ok());
    for (int i = 0; i < 1000 && replies_sampled() < corr; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_EQ(replies_sampled(), corr);
  }

  auto other = RpcClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(other.ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(other.value().call(wire::StatusRequest{}).ok());
  }
  ASSERT_LT(elapsed_s(), kDelayS) << "the pause stalled the loop";
  pollfd readable{held.value().fd(), POLLIN, 0};
  EXPECT_EQ(::poll(&readable, 1, 0), 0) << "held output left early";

  wire::Frame frame;
  ASSERT_TRUE(wire::read_frame(held.value(), frame).ok());
  EXPECT_EQ(frame.corr, 1u);
  EXPECT_GE(elapsed_s(), kDelayS);
  ASSERT_TRUE(wire::read_frame(held.value(), frame).ok());
  EXPECT_EQ(frame.corr, 2u);
  server.stop();
}

TEST(Rpc, InflightGaugeRegistersWithObs) {
  obs::Obs obs;
  RpcServer server;
  ASSERT_TRUE(server
                  .start([](const wire::Message&) -> wire::Message {
                    return wire::StatusReply{};
                  })
                  .ok());
  auto client = RpcClient::connect("127.0.0.1", server.port(), nullptr, &obs);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value().call(wire::StatusRequest{}).ok());
  // After a completed call the gauge exists and reads zero in flight.
  EXPECT_EQ(obs.registry().gauge("falkon.net.rpc.inflight").value(), 0.0);
  server.stop();
}

/// Collects the Notify frames pushed to one RpcClient, in arrival order.
struct PushLog {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::uint64_t> keys;  // resource_key of each Notify

  RpcClient::PushHandler handler() {
    return [this](wire::Message message) {
      if (const auto* notify = std::get_if<wire::Notify>(&message)) {
        std::lock_guard lock(mu);
        keys.push_back(notify->resource_key);
        cv.notify_all();
      }
    };
  }
  bool wait_for(std::size_t count) {
    std::unique_lock lock(mu);
    return cv.wait_for(lock, std::chrono::seconds(5),
                       [&] { return keys.size() >= count; });
  }
};

RpcHandler status_handler() {
  return [](const wire::Message&) -> wire::Message {
    return wire::StatusReply{};
  };
}

TEST(RpcPush, SubscribeAndReceiveOnTheRpcConnection) {
  RpcServer server;
  ASSERT_TRUE(server.start(status_handler()).ok());
  auto client = RpcClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  PushLog log;
  ASSERT_TRUE(client.value().subscribe(77, log.handler()).ok());
  // The binding is in place before any later call is handled.
  ASSERT_TRUE(client.value().call(wire::StatusRequest{}).ok());

  for (std::uint64_t k = 1; k <= 5; ++k) {
    ASSERT_TRUE(server.push(77, wire::Notify{ExecutorId{77}, k}).ok());
  }
  ASSERT_TRUE(log.wait_for(5));
  {
    std::lock_guard lock(log.mu);
    EXPECT_EQ(log.keys, (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
  }
  // Calls keep working on the same, single connection.
  EXPECT_TRUE(client.value().call(wire::StatusRequest{}).ok());
  EXPECT_EQ(server.active_connections(), 1u);
  server.stop();
}

TEST(RpcPush, PushToUnknownKeyFails) {
  RpcServer server;
  ASSERT_TRUE(server.start(status_handler()).ok());
  auto status = server.push(12345, wire::Notify{});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, ErrorCode::kNotFound);
  server.stop();
}

TEST(RpcPush, SubscriptionIsBoundBeforeTheNextRequestIsHandled) {
  // The subscribe frame is bound inline on the loop thread, so a request
  // sent right behind it — handled on a 16-thread pool — always finds the
  // binding. A streaming client relies on this: its SubscribeResults
  // {ack_seq=0} arms a drain that pushes to the key it just subscribed.
  RpcServerOptions options;
  options.handler_threads = 16;
  RpcServer server;
  ASSERT_TRUE(server
                  .start(
                      [&server](const wire::Message& request) -> wire::Message {
                        const auto* notify = std::get_if<wire::Notify>(&request);
                        if (notify == nullptr) {
                          return wire::ErrorReply{ErrorCode::kProtocolError, "?"};
                        }
                        auto pushed = server.push(notify->executor_id.value,
                                                  wire::ClientNotify{});
                        if (!pushed.ok()) {
                          return wire::ErrorReply{pushed.error().code,
                                                  pushed.error().message};
                        }
                        return wire::StatusReply{};
                      },
                      0, nullptr, options)
                  .ok());
  auto client = RpcClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  for (std::uint64_t key = 1; key <= 200; ++key) {
    ASSERT_TRUE(client.value().subscribe(key, [](wire::Message) {}).ok());
    auto reply = client.value().call(wire::Notify{ExecutorId{key}, 0});
    ASSERT_TRUE(reply.ok()) << "key " << key << ": " << reply.error().str();
  }
  server.stop();
}

TEST(RpcPush, SubscriptionIsBoundWhileEveryHandlerIsBusy) {
  // The bind never waits for the handler pool: with its only worker
  // blocked, a new subscription still takes effect.
  RpcServerOptions options;
  options.handler_threads = 1;
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool release = false;
  RpcServer server;
  ASSERT_TRUE(server
                  .start(
                      [&](const wire::Message&) -> wire::Message {
                        std::unique_lock lock(mu);
                        entered = true;
                        cv.notify_all();
                        cv.wait(lock, [&] { return release; });
                        return wire::StatusReply{};
                      },
                      0, nullptr, options)
                  .ok());
  auto busy = RpcClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(busy.ok());
  auto client = RpcClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  std::thread blocker(
      [&] { EXPECT_TRUE(busy.value().call(wire::StatusRequest{}).ok()); });
  {
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return entered; });
  }
  PushLog log;
  EXPECT_TRUE(client.value().subscribe(7, log.handler()).ok());
  bool bound = false;
  for (int i = 0; i < 500 && !bound; ++i) {
    bound = server.push(7, wire::Notify{ExecutorId{7}, 1}).ok();
    if (!bound) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const bool received = bound && log.wait_for(1);
  {
    std::lock_guard lock(mu);
    release = true;
  }
  cv.notify_all();
  blocker.join();
  EXPECT_TRUE(bound);
  EXPECT_TRUE(received);
  server.stop();
}

TEST(RpcPush, PushesInterleaveWithPipelinedRepliesWithoutMisrouting) {
  // Pushed frames (ClientNotify, correlation id 0) and replies to eight
  // threads' pipelined calls (Notify echoes) share one connection: every
  // reply must reach its own caller and every push the handler, in order.
  constexpr int kPushes = 500;
  RpcServerOptions options;
  options.handler_threads = 4;
  RpcServer server;
  ASSERT_TRUE(server
                  .start(
                      [](const wire::Message& request) -> wire::Message {
                        const auto* notify = std::get_if<wire::Notify>(&request);
                        if (notify == nullptr) {
                          return wire::ErrorReply{ErrorCode::kProtocolError, "?"};
                        }
                        return wire::Notify{notify->executor_id,
                                            notify->resource_key * 2};
                      },
                      0, nullptr, options)
                  .ok());
  auto client = RpcClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::uint64_t> pushed;
  std::atomic<int> strays{0};
  ASSERT_TRUE(client.value()
                  .subscribe(5,
                             [&](wire::Message message) {
                               const auto* frame =
                                   std::get_if<wire::ClientNotify>(&message);
                               if (frame == nullptr) {
                                 strays.fetch_add(1);
                                 return;
                               }
                               std::lock_guard lock(mu);
                               pushed.push_back(frame->completed);
                               cv.notify_all();
                             })
                  .ok());
  ASSERT_TRUE(client.value().call(wire::Notify{ExecutorId{1}, 0}).ok());

  std::thread pusher([&] {
    for (std::uint64_t i = 1; i <= kPushes; ++i) {
      EXPECT_TRUE(server.push(5, wire::ClientNotify{InstanceId{5}, i}).ok());
    }
  });
  std::atomic<int> correct{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 8; ++t) {
    callers.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < 50; ++i) {
        const std::uint64_t key = static_cast<std::uint64_t>(t) * 1000 + i;
        auto reply = client.value().call(wire::Notify{ExecutorId{1}, key});
        if (!reply.ok()) continue;
        const auto* notify = std::get_if<wire::Notify>(&reply.value());
        if (notify != nullptr && notify->resource_key == key * 2) {
          correct.fetch_add(1);
        }
      }
    });
  }
  pusher.join();
  for (auto& caller : callers) caller.join();
  EXPECT_EQ(correct.load(), 8 * 50);
  {
    std::unique_lock lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5), [&] {
      return pushed.size() >= static_cast<std::size_t>(kPushes);
    }));
    ASSERT_EQ(pushed.size(), static_cast<std::size_t>(kPushes));
    for (std::size_t i = 0; i < pushed.size(); ++i) {
      ASSERT_EQ(pushed[i], i + 1);
    }
  }
  EXPECT_EQ(strays.load(), 0);
  EXPECT_EQ(server.active_connections(), 1u);
  server.stop();
}

TEST(RpcPush, UnbindKeepsTheConnectionAndItsInflightCalls) {
  // The binding is all that unbind drops: a call in flight when it happens
  // completes, later calls still work, and pushes to the key fail.
  RpcServerOptions options;
  options.handler_threads = 2;
  RpcServer server;
  ASSERT_TRUE(server
                  .start(
                      [](const wire::Message& request) -> wire::Message {
                        if (std::holds_alternative<wire::Notify>(request)) {
                          std::this_thread::sleep_for(
                              std::chrono::milliseconds(200));
                        }
                        return wire::StatusReply{};
                      },
                      0, nullptr, options)
                  .ok());
  auto client = RpcClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  PushLog log;
  ASSERT_TRUE(client.value().subscribe(9, log.handler()).ok());
  ASSERT_TRUE(client.value().call(wire::StatusRequest{}).ok());
  ASSERT_TRUE(server.push(9, wire::Notify{ExecutorId{9}, 1}).ok());
  ASSERT_TRUE(log.wait_for(1));

  std::thread slow([&] {
    EXPECT_TRUE(client.value().call(wire::Notify{ExecutorId{9}, 0}).ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.unbind(9);
  auto status = server.push(9, wire::Notify{ExecutorId{9}, 2});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, ErrorCode::kNotFound);
  slow.join();
  EXPECT_TRUE(client.value().call(wire::StatusRequest{}).ok());
  EXPECT_EQ(server.active_connections(), 1u);
  server.stop();
}

// EMFILE on accept must pause the listener with backoff (counting
// falkon.net.accept_rejected) instead of spinning or dying, and the pending
// connection must complete once descriptors free up.
TEST(Rpc, AcceptBackoffOnFdExhaustionThenRecovers) {
  obs::Obs obs;
  RpcServerOptions options;
  options.obs = &obs;
  RpcServer server;
  ASSERT_TRUE(server
                  .start(
                      [](const wire::Message&) -> wire::Message {
                        return wire::StatusReply{};
                      },
                      0, nullptr, options)
                  .ok());
  auto& rejected = obs.registry().counter("falkon.net.accept_rejected");
  ASSERT_EQ(rejected.value(), 0u);

  // Lower RLIMIT_NOFILE to just above current usage and hoard the rest,
  // keeping exactly one slot free for the client's own socket.
  rlimit old_limit{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &old_limit), 0);
  std::vector<int> hoard;
  {
    long used = 0;
    for (int fd = 0; fd < 4096; ++fd) {
      if (::fcntl(fd, F_GETFD) != -1) used = fd + 1;
    }
    rlimit tight = old_limit;
    tight.rlim_cur = static_cast<rlim_t>(used + 8);
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);
    int fd = -1;
    while ((fd = ::open("/dev/null", O_RDONLY)) >= 0) hoard.push_back(fd);
    ASSERT_FALSE(hoard.empty());
    ::close(hoard.back());  // the client's slot
    hoard.pop_back();
  }

  // The TCP handshake completes in the kernel backlog; accept4 in the
  // reactor hits EMFILE and backs off.
  auto stream = TcpStream::connect("127.0.0.1", server.port());
  ASSERT_TRUE(stream.ok());
  for (int i = 0; i < 1000 && rejected.value() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(rejected.value(), 1u);

  // Free the descriptors: the next backoff retry adopts the connection and
  // the exchange completes end to end.
  for (int fd : hoard) ::close(fd);
  hoard.clear();
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &old_limit), 0);
  ASSERT_TRUE(wire::write_frame(stream.value(), 1,
                                wire::encode_message(wire::StatusRequest{}))
                  .ok());
  wire::Frame frame;
  ASSERT_TRUE(wire::read_frame(stream.value(), frame).ok());
  EXPECT_EQ(frame.corr, 1u);
  auto reply = wire::decode_message(frame.payload);
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(std::holds_alternative<wire::StatusReply>(reply.value()));
  server.stop();
}

TEST(Rpc, WatermarkBackpressureDrainsOversizedRepliesInOrder) {
  // Oversized replies through a tiny SO_SNDBUF and a slow reader: the
  // connection outbox crosses the high watermark, the reactor stops
  // reading the connection (falkon.net.reactor.read_paused), and the
  // backlog drains through partial writev rounds without reordering or
  // corrupting a single frame.
  constexpr std::size_t kReplyBytes = 1u << 20;
  constexpr int kCalls = 6;
  obs::Obs obs;
  RpcServerOptions options;
  options.obs = &obs;
  options.sndbuf_bytes = 4096;
  options.high_watermark_bytes = 64 * 1024;
  options.low_watermark_bytes = 16 * 1024;
  RpcServer server;
  ASSERT_TRUE(server
                  .start(
                      [](const wire::Message& request) -> wire::Message {
                        const auto* notify =
                            std::get_if<wire::Notify>(&request);
                        if (notify == nullptr) {
                          return wire::ErrorReply{ErrorCode::kProtocolError,
                                                  "?"};
                        }
                        wire::WaitResultsReply reply;
                        TaskResult result;
                        result.task_id = TaskId{notify->resource_key};
                        result.stdout_data = std::string(
                            kReplyBytes,
                            static_cast<char>('a' + notify->resource_key % 26));
                        reply.results.push_back(std::move(result));
                        return reply;
                      },
                      0, nullptr, options)
                  .ok());

  auto stream = TcpStream::connect("127.0.0.1", server.port());
  ASSERT_TRUE(stream.ok());
  // Pipeline every request before reading a single reply byte, so the
  // replies (6 MiB total) pile up behind a ~4 KiB send buffer.
  for (std::uint64_t corr = 1; corr <= kCalls; ++corr) {
    ASSERT_TRUE(wire::write_frame(
                    stream.value(), corr,
                    wire::encode_message(wire::Notify{ExecutorId{corr}, corr}))
                    .ok());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  wire::Frame frame;
  for (std::uint64_t corr = 1; corr <= kCalls; ++corr) {
    // Slow reader: let the outbox stay backed up between frames.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_TRUE(wire::read_frame(stream.value(), frame).ok());
    // One shared handler worker => strict FIFO, replies arrive in request
    // order even though the transport stalled mid-frame many times.
    EXPECT_EQ(frame.corr, corr);
    auto reply = wire::decode_message(frame.payload);
    ASSERT_TRUE(reply.ok());
    const auto* results = std::get_if<wire::WaitResultsReply>(&reply.value());
    ASSERT_NE(results, nullptr);
    ASSERT_EQ(results->results.size(), 1u);
    EXPECT_EQ(results->results[0].task_id.value, corr);
    const std::string expected(
        kReplyBytes, static_cast<char>('a' + corr % 26));
    EXPECT_TRUE(results->results[0].stdout_data == expected)
        << "payload corrupted for corr " << corr;
  }
  EXPECT_GE(obs.registry().counter("falkon.net.reactor.read_paused").value(),
            1u);
  server.stop();
}

TEST(RpcPush, SlowSubscriberShedsInsteadOfBlocking) {
  // A subscriber that never reads must not wedge the dispatcher: once its
  // outbox passes the high watermark, push() sheds frames (counted in
  // falkon.net.push.backpressure_drops) and returns immediately.
  obs::Obs obs;
  RpcServerOptions options;
  options.obs = &obs;
  options.high_watermark_bytes = 64 * 1024;
  options.low_watermark_bytes = 16 * 1024;
  RpcServer server;
  ASSERT_TRUE(server.start(status_handler(), 0, nullptr, options).ok());

  auto stream = TcpStream::connect("127.0.0.1", server.port());
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(wire::write_frame(stream.value(), 0,
                                wire::encode_message(
                                    wire::Notify{ExecutorId{7}, 0}))
                  .ok());
  // A reply to a call sent behind the subscription proves it is bound.
  ASSERT_TRUE(wire::write_frame(stream.value(), 1,
                                wire::encode_message(wire::StatusRequest{}))
                  .ok());
  wire::Frame frame;
  ASSERT_TRUE(wire::read_frame(stream.value(), frame).ok());
  ASSERT_EQ(frame.corr, 1u);

  auto& drops =
      obs.registry().counter("falkon.net.push.backpressure_drops");
  wire::WaitResultsReply big;
  TaskResult result;
  result.stdout_data = std::string(256 * 1024, 'x');
  big.results.push_back(std::move(result));
  for (int i = 0; i < 200 && drops.value() == 0; ++i) {
    // Never blocks and never errors: a full subscriber is shed, not waited
    // on (the stale-notification sweep re-delivers).
    ASSERT_TRUE(server.push(7, big).ok());
  }
  EXPECT_GE(drops.value(), 1u);
  EXPECT_EQ(server.active_connections(), 1u);
  server.stop();
}

TEST(Reactor, ForeignThreadSendsLandOnTheirConnections) {
  // A send_frame issued from a thread that is not the loop (here: the test
  // thread) must drain through the loop's flush path and arrive intact on
  // the right socket.
  Reactor reactor;
  ASSERT_TRUE(reactor.start().ok());
  auto listener = TcpListener::bind(0);
  ASSERT_TRUE(listener.ok());
  std::mutex mu;
  std::vector<std::shared_ptr<Reactor::Conn>> conns;
  reactor.add_listener(listener.value().fd(), [&](int fd) {
    auto conn = reactor.adopt(
        fd,
        [](const std::shared_ptr<Reactor::Conn>&, std::uint64_t,
           std::vector<std::uint8_t>&&) {},
        [](const std::shared_ptr<Reactor::Conn>&) {});
    std::lock_guard<std::mutex> lock(mu);
    conns.push_back(std::move(conn));
  });

  std::vector<TcpStream> clients;
  for (int i = 0; i < 8; ++i) {
    auto stream = TcpStream::connect("127.0.0.1", listener.value().port());
    ASSERT_TRUE(stream.ok());
    clients.push_back(stream.take());
  }
  for (int i = 0; i < 1000 && reactor.open_connections() < 8; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(reactor.open_connections(), 8u);
  {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(conns.size(), 8u);
  }

  // Foreign-thread sends: one frame to every connection, all from here.
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  for (std::size_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(conns[i]->send_frame(i + 1, payload).ok());
  }
  wire::Frame frame;
  for (std::size_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(wire::read_frame(clients[i], frame).ok());
    EXPECT_EQ(frame.corr, i + 1);
    EXPECT_EQ(frame.payload, payload);
  }
  clients.clear();
  reactor.remove_listener(listener.value().fd());
  reactor.stop();
}

TEST(Rpc, WatermarkBackpressureIsolatedPerConnection) {
  // Two connections on the server's one loop: one wedges itself behind a
  // tiny SO_SNDBUF with oversized replies it never reads (the loop pauses
  // reading it), while the other keeps completing fast roundtrips — a
  // stalled connection's backlog must never leak backpressure into the
  // other connections the loop serves.
  constexpr std::size_t kReplyBytes = 1u << 20;
  obs::Obs obs;
  RpcServerOptions options;
  options.obs = &obs;
  options.handler_threads = 2;
  options.sndbuf_bytes = 4096;
  options.high_watermark_bytes = 64 * 1024;
  options.low_watermark_bytes = 16 * 1024;
  RpcServer server;
  ASSERT_TRUE(server
                  .start(
                      [](const wire::Message& request) -> wire::Message {
                        const auto* notify =
                            std::get_if<wire::Notify>(&request);
                        if (notify == nullptr) {
                          return wire::ErrorReply{ErrorCode::kProtocolError,
                                                  "?"};
                        }
                        if (notify->resource_key == 0) {
                          // Fast path: tiny echo.
                          return wire::StatusReply{};
                        }
                        wire::WaitResultsReply reply;
                        TaskResult result;
                        result.task_id = TaskId{notify->resource_key};
                        result.stdout_data = std::string(kReplyBytes, 'x');
                        reply.results.push_back(std::move(result));
                        return reply;
                      },
                      0, nullptr, options)
                  .ok());

  // Slow connection: pipeline six 1 MiB replies and never read a byte.
  auto slow = TcpStream::connect("127.0.0.1", server.port());
  ASSERT_TRUE(slow.ok());
  for (std::uint64_t corr = 1; corr <= 6; ++corr) {
    ASSERT_TRUE(wire::write_frame(
                    slow.value(), corr,
                    wire::encode_message(wire::Notify{ExecutorId{1}, corr}))
                    .ok());
  }
  auto& paused = obs.registry().counter("falkon.net.reactor.read_paused");
  for (int i = 0; i < 1000 && paused.value() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(paused.value(), 1u);

  // Fast connection on the same loop: every echo completes while the slow
  // connection sits read-paused with a full outbox.
  auto fast = RpcClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(fast.ok());
  for (int i = 0; i < 100; ++i) {
    auto reply = fast.value().call(wire::Notify{ExecutorId{2}, 0});
    ASSERT_TRUE(reply.ok());
    ASSERT_TRUE(std::holds_alternative<wire::StatusReply>(reply.value()));
  }
  fast.value().close();
  server.stop();
}

TEST(RpcPush, PushFromForeignThreadLandsOnOwningLoop) {
  // RpcServer::push() is called from dispatcher threads that own no loop;
  // every frame must still land on the loop that owns the subscriber and
  // go out the right socket.
  RpcServer server;
  ASSERT_TRUE(server.start(status_handler()).ok());

  constexpr int kSubscribers = 8;
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::uint64_t> received;
  std::vector<RpcClient> clients;
  for (int key = 0; key < kSubscribers; ++key) {
    auto client = RpcClient::connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client.value()
                    .subscribe(static_cast<std::uint64_t>(key),
                               [&, key](wire::Message message) {
                                 const auto* notify =
                                     std::get_if<wire::Notify>(&message);
                                 if (notify == nullptr) return;
                                 std::lock_guard<std::mutex> lock(mu);
                                 received.push_back(
                                     static_cast<std::uint64_t>(key) * 1000 +
                                     notify->resource_key);
                                 cv.notify_all();
                               })
                    .ok());
    ASSERT_TRUE(client.value().call(wire::StatusRequest{}).ok());
    clients.push_back(std::move(client.value()));
  }
  EXPECT_EQ(server.active_connections(),
            static_cast<std::size_t>(kSubscribers));

  // Push to every key from this (non-loop) thread.
  for (int key = 0; key < kSubscribers; ++key) {
    ASSERT_TRUE(
        server
            .push(static_cast<std::uint64_t>(key),
                  wire::Notify{ExecutorId{static_cast<std::uint64_t>(key)},
                               static_cast<std::uint64_t>(key) + 7})
            .ok());
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5), [&] {
      return received.size() >= static_cast<std::size_t>(kSubscribers);
    }));
    std::vector<std::uint64_t> sorted = received;
    std::sort(sorted.begin(), sorted.end());
    for (int key = 0; key < kSubscribers; ++key) {
      EXPECT_EQ(sorted[static_cast<std::size_t>(key)],
                static_cast<std::uint64_t>(key) * 1000 +
                    static_cast<std::uint64_t>(key) + 7);
    }
  }
  for (auto& client : clients) client.close();
  server.stop();
}

}  // namespace
}  // namespace falkon::net
