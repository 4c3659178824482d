// falkon-dispatcher: standalone dispatcher daemon.
//
//   $ falkon-dispatcher [--rpc-port N] [--config file]
//                       [--piggyback 0|1] [--max-retries N] [--verbose]
//
// Serves the Falkon wire protocol on one port (WS-style RPC, with
// notifications on the same connections) until SIGINT/SIGTERM. Executors
// join with falkon-executor, clients submit with falkon-submit.
#include <csignal>
#include <cstdio>
#include <cstring>

#include "common/clock.h"
#include "common/config.h"
#include "common/logging.h"
#include "core/service_tcp.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void handle_signal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace falkon;

  Config config;
  std::uint16_t rpc_port = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--rpc-port") {
      rpc_port = static_cast<std::uint16_t>(std::atoi(next()));
    } else if (arg == "--config") {
      auto loaded = Config::load_file(next());
      if (!loaded.ok()) {
        std::fprintf(stderr, "config: %s\n", loaded.error().str().c_str());
        return 1;
      }
      config = loaded.take();
    } else if (arg == "--piggyback") {
      config.set("piggyback", next());
    } else if (arg == "--max-retries") {
      config.set("max_retries", next());
    } else if (arg == "--verbose") {
      Logger::instance().set_level(LogLevel::kDebug);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--rpc-port N] [--config file]"
                   " [--piggyback 0|1] [--max-retries N] [--verbose]\n",
                   argv[0]);
      return 2;
    }
  }

  core::DispatcherConfig dispatcher_config;
  dispatcher_config.piggyback = config.get_bool("piggyback", true);
  dispatcher_config.replay.max_retries =
      static_cast<int>(config.get_int("max_retries", 3));
  dispatcher_config.replay.response_timeout_s =
      config.get_double("response_timeout_s", 0.0);
  dispatcher_config.notify_threads =
      static_cast<int>(config.get_int("notify_threads", 4));
  dispatcher_config.max_tasks_per_dispatch = static_cast<std::uint32_t>(
      config.get_int("max_tasks_per_dispatch", 1));

  RealClock clock;
  core::Dispatcher dispatcher(clock, dispatcher_config);
  core::TcpDispatcherServer server(dispatcher);
  if (auto status = server.start(rpc_port); !status.ok()) {
    std::fprintf(stderr, "start failed: %s\n", status.error().str().c_str());
    return 1;
  }
  std::printf("falkon-dispatcher up: rpc=%u (piggyback=%s)\n",
              server.rpc_port(), dispatcher_config.piggyback ? "on" : "off");
  std::fflush(stdout);

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  double last_report = clock.now_s();
  while (!g_stop) {
    clock.sleep_s(0.2);
    (void)dispatcher.check_replays();
    if (clock.now_s() - last_report >= 10.0) {
      last_report = clock.now_s();
      const auto status = dispatcher.status();
      std::printf("[status] executors=%u busy=%u queued=%llu completed=%llu"
                  " failed=%llu\n",
                  status.registered_executors, status.busy_executors,
                  static_cast<unsigned long long>(status.queued),
                  static_cast<unsigned long long>(status.completed),
                  static_cast<unsigned long long>(status.failed));
      std::fflush(stdout);
    }
  }
  std::printf("shutting down\n");
  server.stop();
  dispatcher.shutdown();
  return 0;
}
