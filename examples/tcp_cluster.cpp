// Distributed deployment over TCP (the paper's real topology): a
// dispatcher serving WS-style RPC with notifications on the same
// connections, remote executors, and a remote client — all over loopback
// here, but every byte crosses real sockets using the Falkon wire protocol.
//
//   $ ./tcp_cluster [executors] [tasks]
#include <cstdio>
#include <cstdlib>

#include "common/clock.h"
#include "common/logging.h"
#include "core/client.h"
#include "core/service_tcp.h"

using namespace falkon;

int main(int argc, char** argv) {
  Logger::instance().set_level(LogLevel::kInfo);
  const int executors = argc > 1 ? std::atoi(argv[1]) : 4;
  const int tasks = argc > 2 ? std::atoi(argv[2]) : 1000;

  RealClock clock;
  core::Dispatcher dispatcher(clock, core::DispatcherConfig{});
  core::TcpDispatcherServer server(dispatcher);
  if (auto status = server.start(); !status.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 status.error().str().c_str());
    return 1;
  }
  std::printf("dispatcher up: port %u\n", server.rpc_port());

  std::vector<std::unique_ptr<core::TcpExecutorHarness>> pool;
  for (int e = 0; e < executors; ++e) {
    auto harness = std::make_unique<core::TcpExecutorHarness>(
        clock, "127.0.0.1", server.rpc_port(),
        std::make_unique<core::NoopEngine>(), core::ExecutorOptions{});
    if (auto status = harness->start(); !status.ok()) {
      std::fprintf(stderr, "executor start failed: %s\n",
                   status.error().str().c_str());
      return 1;
    }
    pool.push_back(std::move(harness));
  }
  std::printf("%d executors registered over TCP\n", executors);

  // stream=true opts the client into push-mode result streaming: drained
  // mailbox batches arrive as pushed ResultStream frames instead of one
  // WaitResults long-poll per batch (docs/PROTOCOL.md). Drop the third
  // argument to fall back to pure polling.
  auto client = core::TcpDispatcherClient::connect(
      "127.0.0.1", server.rpc_port(), /*stream=*/true);
  if (!client.ok()) return 1;
  auto session = core::FalkonSession::open(*client.value(), ClientId{1});
  if (!session.ok()) return 1;

  std::vector<TaskSpec> specs;
  for (int i = 1; i <= tasks; ++i) {
    specs.push_back(make_noop_task(TaskId{static_cast<std::uint64_t>(i)}));
  }
  const double start = clock.now_s();
  auto results = session.value()->run(std::move(specs), 60.0);
  const double elapsed = clock.now_s() - start;
  if (!results.ok()) {
    std::fprintf(stderr, "run failed: %s\n", results.error().str().c_str());
    return 1;
  }
  std::printf("%d tasks in %.3f s over loopback TCP: %.0f tasks/s\n", tasks,
              elapsed, tasks / elapsed);
  std::printf("(the 2007 Java/GT4 original peaked at 487 tasks/s)\n");

  pool.clear();
  server.stop();
  return 0;
}
