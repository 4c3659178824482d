// Figure 3 / section 4.1: throughput as a function of executor count, with
// and without security, against the GT4 WS-call upper bound.
//
// Paper numbers on their 2007 testbed (dispatcher on a dual Xeon 3 GHz):
//   GT4 no security:           ~500 WS calls/s (upper bound)
//   Falkon, no security:        487 tasks/s (256 executors)
//   Falkon, GSISecureConv.:     204 tasks/s
//   single executor:            28 / 12 tasks/s (no sec / sec)
//
// We reproduce the *shape* with the calibrated DES, then also measure the
// raw throughput of this C++ implementation (in-process and over loopback
// TCP) — the rewrite the paper's section 6 contemplates.
#include "bench_util.h"
#include "common/clock.h"
#include "core/client.h"
#include "core/service.h"
#include "core/service_tcp.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "sim/sim_falkon.h"

namespace {

using namespace falkon;
using namespace falkon::bench;

double measure_inproc_cpp(int executors, std::uint64_t tasks,
                          obs::Obs* obs = nullptr) {
  RealClock clock;
  core::DispatcherConfig config;
  config.notify_threads = 2;
  config.obs = obs;
  core::InProcFalkon falkon(clock, config);
  auto factory = [](Clock&) { return std::make_unique<core::NoopEngine>(); };
  core::ExecutorOptions options;
  options.obs = obs;
  if (!falkon.add_executors(executors, factory, options).ok()) {
    return 0.0;
  }
  auto session = core::FalkonSession::open(falkon.client(), ClientId{1});
  if (!session.ok()) return 0.0;
  std::vector<TaskSpec> specs;
  specs.reserve(tasks);
  for (std::uint64_t i = 1; i <= tasks; ++i) {
    specs.push_back(make_noop_task(TaskId{i}));
  }
  const double start = clock.now_s();
  auto results = session.value()->run(std::move(specs), 120.0);
  const double elapsed = clock.now_s() - start;
  if (!results.ok() || elapsed <= 0) return 0.0;
  return static_cast<double>(tasks) / elapsed;
}

double measure_tcp_cpp(int executors, std::uint64_t tasks,
                       obs::Obs* obs = nullptr) {
  RealClock clock;
  // Adaptive wire bundling: executors send the adaptive sentinels and the
  // dispatcher sizes each TaskBundle from current queue depth (Fig. 5's
  // bundling win applied to the dispatch path).
  core::DispatcherConfig config;
  config.max_adaptive_bundle = 256;
  config.obs = obs;
  core::Dispatcher dispatcher(clock, config);
  core::TcpDispatcherServer server(dispatcher, obs);
  if (!server.start().ok()) return 0.0;
  std::vector<std::unique_ptr<core::TcpExecutorHarness>> harnesses;
  for (int e = 0; e < executors; ++e) {
    core::ExecutorOptions options;
    options.adaptive_bundle = true;
    options.obs = obs;
    auto harness = std::make_unique<core::TcpExecutorHarness>(
        clock, "127.0.0.1", server.rpc_port(),
        std::make_unique<core::NoopEngine>(), options);
    if (!harness->start().ok()) return 0.0;
    harnesses.push_back(std::move(harness));
  }
  // Streaming client: the instance subscribes on the connection and
  // drained mailbox batches arrive as pushed ResultStream frames — the
  // WaitResultsRequest roundtrip per batch disappears from the hot path.
  auto client = core::TcpDispatcherClient::connect(
      "127.0.0.1", server.rpc_port(), /*stream=*/true);
  if (!client.ok()) return 0.0;
  // Large client-side submit bundles: the C++ binary codec keeps gaining
  // with bundle size (Fig. 5 — no Axis grow-array collapse), so the client
  // feeds the dispatcher in big bites instead of 100-task WS-era chunks.
  core::SessionOptions session_options;
  session_options.bundle_size = 5000;
  auto session =
      core::FalkonSession::open(*client.value(), ClientId{1}, session_options);
  if (!session.ok()) return 0.0;
  std::vector<TaskSpec> specs;
  for (std::uint64_t i = 1; i <= tasks; ++i) {
    specs.push_back(make_noop_task(TaskId{i}));
  }
  const double start = clock.now_s();
  auto results = session.value()->run(std::move(specs), 120.0);
  const double elapsed = clock.now_s() - start;
  harnesses.clear();
  server.stop();
  if (!results.ok() || elapsed <= 0) return 0.0;
  return static_cast<double>(tasks) / elapsed;
}

}  // namespace

int main() {
  title("Figure 3: throughput vs executor count (sleep-0 tasks)");
  note("model: DES calibrated to the paper's GT4/Java testbed");

  Table table({"executors", "Falkon no-sec (tasks/s)", "Falkon GSI (tasks/s)",
               "GT4 bound (calls/s)"});
  for (int executors : {1, 2, 4, 8, 16, 32, 64, 128, 256}) {
    const std::uint64_t tasks =
        std::min<std::uint64_t>(30000, 3000ULL * executors);
    const double insecure = sim::falkon_throughput(executors, false, tasks);
    const double secure = sim::falkon_throughput(executors, true, tasks);
    table.row({strf("%d", executors), strf("%.1f", insecure),
               strf("%.1f", secure), "500"});
  }
  table.print();
  note("paper anchors: 487 (no sec) / 204 (GSI) at saturation; 28 / 12 with"
       " one executor");

  title("This C++ implementation on this host (not the paper's testbed)");
  // Metrics-on run: the registry counters ride along with the measurement
  // and land in BENCH_fig3_throughput.json (the snapshot proves the
  // metrics hot path is cheap enough to leave on).
  //
  // Best of three per configuration, repetitions interleaved across
  // configurations: a machine-wide slow phase lands on one whole pass, not
  // on a single executor count, so the 1-vs-4 scaling ratio reflects the
  // implementation rather than the noisy host.
  obs::Obs obs;
  constexpr int kConfigs[] = {1, 4};
  double inproc_best[2] = {0.0, 0.0};
  double tcp_best[2] = {0.0, 0.0};
  for (int rep = 0; rep < 3; ++rep) {
    for (int c = 0; c < 2; ++c) {
      inproc_best[c] =
          std::max(inproc_best[c], measure_inproc_cpp(kConfigs[c], 20000, &obs));
    }
    for (int c = 0; c < 2; ++c) {
      tcp_best[c] = std::max(tcp_best[c], measure_tcp_cpp(kConfigs[c], 100000));
    }
  }
  // The paper's full x-axis over TCP (Figure 3 runs to 256 executors). The
  // reactor makes the dispatcher side cost one loop + pool regardless of N, so
  // this curve now completes on a single-core host; scripts/bench.sh gates
  // only on the 1/4-executor points above, these columns are informational.
  struct CurvePoint {
    int executors;
    int reps;
    std::uint64_t tasks;
    double best{0.0};
  };
  // Interleaved best-of-N: the 64..256 points gate the curve's shape
  // (20%-per-doubling monotonicity), and a single rep leaves them with
  // ±25% host noise — more than the gate's whole allowance — so the tail
  // points take three reps each, interleaved so a machine-wide slow phase
  // lands on one whole pass rather than one executor count.
  CurvePoint curve[] = {{8, 2, 100000}, {16, 2, 100000}, {64, 3, 60000},
                        {128, 3, 60000}, {256, 3, 60000}};
  for (int rep = 0; rep < 3; ++rep) {
    for (auto& point : curve) {
      if (rep >= point.reps) continue;
      point.best =
          std::max(point.best, measure_tcp_cpp(point.executors, point.tasks));
    }
  }
  Table cpp({"configuration", "executors", "tasks/s"});
  for (int c = 0; c < 2; ++c) {
    obs.registry()
        .gauge("bench.fig3.inproc_tasks_per_s",
               {{"executors", strf("%d", kConfigs[c])}})
        .set(inproc_best[c]);
    cpp.row({"in-process", strf("%d", kConfigs[c]), strf("%.0f", inproc_best[c])});
  }
  for (int c = 0; c < 2; ++c) {
    obs.registry()
        .gauge("bench.fig3.tcp_tasks_per_s",
               {{"executors", strf("%d", kConfigs[c])}})
        .set(tcp_best[c]);
    cpp.row({"loopback TCP", strf("%d", kConfigs[c]), strf("%.0f", tcp_best[c])});
  }
  for (const auto& point : curve) {
    obs.registry()
        .gauge("bench.fig3.tcp_tasks_per_s",
               {{"executors", strf("%d", point.executors)}})
        .set(point.best);
    cpp.row({"loopback TCP", strf("%d", point.executors),
             strf("%.0f", point.best)});
  }
  cpp.print();
  note("the C/C++ rewrite the paper's section 6 anticipates removes the"
       " GT4/XML per-call cost entirely.");

  // Per-task overhead breakdown (the Dask-overheads-style attribution):
  // separate traced runs at the curve's knee and tail, so the cost at 256
  // executors is attributable stage by stage instead of guessed. Tracing
  // costs a ring write per stage per task, so these runs are NOT the gated
  // timing measurements above.
  title("Per-task overhead breakdown (traced TCP runs)");
  Table shares({"executors", "stage", "share of task wall-clock"});
  for (int n : {16, 256}) {
    obs::ObsConfig trace_config;
    trace_config.tracing = true;
    trace_config.trace_capacity = 1u << 19;  // 30000 tasks x 7 stages fits
    obs::Obs traced(trace_config);
    (void)measure_tcp_cpp(n, 30000, &traced);
    const auto breakdown = obs::stage_breakdown(traced.tracer().snapshot());
    const auto label = strf("%d", n);
    auto emit = [&](const char* stage, double share) {
      obs.registry()
          .gauge("bench.fig3.stage_share",
                 {{"executors", label}, {"stage", stage}})
          .set(share);
      shares.row({label, stage, strf("%.1f%%", share * 100.0)});
    };
    emit("queued", breakdown.share(obs::Stage::kQueued));
    emit("exec", breakdown.share(obs::Stage::kExec));
    emit("deliver_result", breakdown.share(obs::Stage::kDeliverResult));
    emit("dispatch_wire", breakdown.gap_share());
  }
  shares.print();
  note("queued = dispatcher FIFO wait; dispatch_wire = span time no stage"
       " covers (notify/get_work transit, thread wake-ups); traced runs,"
       " so absolute throughput is lower than the table above.");
  if (obs::save_metrics_json(obs.registry(), "BENCH_fig3_throughput.json").ok()) {
    note("metrics snapshot: BENCH_fig3_throughput.json");
  }
  return 0;
}
