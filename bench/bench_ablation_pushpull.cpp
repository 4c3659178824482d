// Ablation: hybrid push/pull vs pure polling (paper section 3.3).
//
// The paper rejects a pure-pull (polling) design with a measurement: "a
// cluster with 500 Executors polling every second keeps Dispatcher CPU
// utilization at 100%". We reproduce that trade-off: dispatcher CPU load
// from polling alone as a function of executor count and poll interval,
// versus the hybrid model's load, plus the responsiveness cost of longer
// poll intervals (mean time from submit to dispatch on an idle pool).
#include "bench_util.h"
#include "common/clock.h"
#include "core/client.h"
#include "core/service_tcp.h"
#include "sim/cost_model.h"
#include "sim/sim_falkon.h"

namespace {

using namespace falkon;
using namespace falkon::bench;

/// Pure-pull: every executor issues a get-work WS call every interval,
/// whether or not work exists. Load = calls/s * cpu_per_call.
double polling_cpu_load(int executors, double interval_s,
                        const sim::WsCostModel& ws) {
  const double calls_per_s = executors / interval_s;
  // A poll is a full WS operation on the dispatcher (~ the get-work half
  // of the notify+get-work pair).
  const double cpu_per_call = ws.notify_getwork_cost() / 2.0;
  return calls_per_s * cpu_per_call;
}

}  // namespace

int main() {
  title("Ablation: hybrid push/pull vs pure polling (section 3.3)");

  sim::WsCostModel ws;

  Table load({"executors", "poll 1s: CPU load", "poll 5s", "poll 30s",
              "hybrid (idle): CPU load"});
  for (int executors : {50, 100, 250, 500, 1000, 5000}) {
    load.row({strf("%d", executors),
              strf("%.0f%%", 100 * polling_cpu_load(executors, 1.0, ws)),
              strf("%.0f%%", 100 * polling_cpu_load(executors, 5.0, ws)),
              strf("%.0f%%", 100 * polling_cpu_load(executors, 30.0, ws)),
              "~0%"});
  }
  load.print();
  note("paper: '500 Executors polling every second keeps Dispatcher CPU"
       " utilization at 100%'. Hybrid push/pull costs nothing while idle.");

  title("Responsiveness: submit -> first dispatch latency on an idle pool");
  Table latency({"model", "mean latency"});
  // Pure pull with interval T: a task waits on average T/2 for a poll.
  for (double interval : {1.0, 5.0, 30.0}) {
    latency.row({strf("pure pull, %.0f s interval", interval),
                 strf("%.2f s", interval / 2.0)});
  }
  latency.row({"hybrid push/pull (notification)",
               strf("%.4f s", ws.notify_getwork_cost() + 2 * ws.latency_s)});
  latency.print();
  note("scaling the poll interval to tame CPU load destroys responsiveness;"
       " notifications decouple the two — the paper's design argument.");

  title("Measured over real TCP: submit -> result latency on an idle pool");
  {
    Table real({"executor mode", "mean latency (ms)"});
    auto measure = [](double poll_interval_s) {
      RealClock clock;
      core::Dispatcher dispatcher(clock, core::DispatcherConfig{});
      core::TcpDispatcherServer server(dispatcher);
      if (!server.start().ok()) return -1.0;
      core::ExecutorOptions options;
      options.poll_interval_s = poll_interval_s;
      core::TcpExecutorHarness executor(
          clock, "127.0.0.1", server.rpc_port(),
          std::make_unique<core::NoopEngine>(), options);
      if (!executor.start().ok()) return -1.0;
      auto client =
          core::TcpDispatcherClient::connect("127.0.0.1", server.rpc_port());
      if (!client.ok()) return -1.0;
      auto session = core::FalkonSession::open(*client.value(), ClientId{1});
      if (!session.ok()) return -1.0;
      // 20 single tasks, each submitted against an idle executor; pause
      // between them so every dispatch starts from the waiting state.
      double total = 0.0;
      for (int i = 1; i <= 20; ++i) {
        clock.sleep_s(0.03);
        std::vector<TaskSpec> one;
        one.push_back(make_noop_task(TaskId{static_cast<std::uint64_t>(i)}));
        const double start = clock.now_s();
        auto results = session.value()->run(std::move(one), 10.0);
        if (!results.ok()) return -1.0;
        total += clock.now_s() - start;
      }
      executor.stop();
      server.stop();
      return total / 20.0 * 1e3;
    };
    real.row({"hybrid push/pull", strf("%.2f", measure(0.0))});
    real.row({"polling every 20 ms", strf("%.2f", measure(0.02))});
    real.row({"polling every 100 ms", strf("%.2f", measure(0.1))});
    real.print();
    note("polling latency ~= poll interval / 2 + round trip; push is bounded"
         " by the round trip alone (firewall-bypass mode trades exactly"
         " this).");
  }

  title("Throughput check: hybrid model under load (64 executors)");
  Table thr({"mode", "tasks/s"});
  sim::SimFalkonConfig config;
  config.executors = 64;
  config.task_count = 20000;
  thr.row({"hybrid push/pull + piggyback",
           strf("%.0f", sim::simulate_falkon(config).avg_throughput())});
  sim::SimFalkonConfig no_piggy = config;
  no_piggy.piggyback = false;
  thr.row({"hybrid push/pull, no piggyback",
           strf("%.0f", sim::simulate_falkon(no_piggy).avg_throughput())});
  thr.print();
  return 0;
}
