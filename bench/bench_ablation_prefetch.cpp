// Ablation: executor task pre-fetching (paper section 6 future work,
// implemented here): "executors can request new tasks before they complete
// execution of old tasks, thus overlapping communication and execution."
//
// Measured over real loopback TCP, where the dispatch round trip is an
// actual network exchange worth overlapping. We compare tasks/s with and
// without pre-fetch for short tasks, plus the piggy-backing ablation on
// the same axis (both attack the same per-task round trip).
#include "bench_util.h"
#include "common/clock.h"
#include "common/rng.h"
#include "core/client.h"
#include "core/data_plane.h"
#include "core/policies.h"
#include "core/service_tcp.h"
#include "sim/sim_falkon.h"

namespace {

using namespace falkon;
using namespace falkon::bench;

double run_tcp(bool prefetch, bool piggyback, int executors, int tasks) {
  RealClock clock;
  core::DispatcherConfig config;
  config.piggyback = piggyback;
  core::Dispatcher dispatcher(clock, config);
  core::TcpDispatcherServer server(dispatcher);
  if (!server.start().ok()) return 0.0;
  std::vector<std::unique_ptr<core::TcpExecutorHarness>> pool;
  for (int e = 0; e < executors; ++e) {
    core::ExecutorOptions options;
    options.prefetch = prefetch;
    options.piggyback_tasks = piggyback ? 1 : 0;
    auto harness = std::make_unique<core::TcpExecutorHarness>(
        clock, "127.0.0.1", server.rpc_port(),
        std::make_unique<core::NoopEngine>(), options);
    if (!harness->start().ok()) return 0.0;
    pool.push_back(std::move(harness));
  }
  auto client = core::TcpDispatcherClient::connect("127.0.0.1", server.rpc_port());
  if (!client.ok()) return 0.0;
  auto session = core::FalkonSession::open(*client.value(), ClientId{1});
  if (!session.ok()) return 0.0;

  std::vector<TaskSpec> specs;
  for (int i = 1; i <= tasks; ++i) {
    specs.push_back(make_noop_task(TaskId{static_cast<std::uint64_t>(i)}));
  }
  const double start = clock.now_s();
  auto results = session.value()->run(std::move(specs), 120.0);
  const double elapsed = clock.now_s() - start;
  pool.clear();
  server.stop();
  if (!results.ok() || elapsed <= 0) return 0.0;
  return tasks / elapsed;
}

// ---- staging-ahead vs diffusion (ROADMAP item 2 leftover) ----
//
// The data-plane flavour of pre-fetching, over real loopback TCP, with
// placement as the only variable (next-available dispatch both ways):
// either every executor's cache is staged ahead of the run with the full
// working set (data waits for the tasks), or a single holder seeds it and
// the set diffuses on demand through peer-to-peer kDataFetch off the
// stamped holder (tasks drag the data behind them).
struct DataOutcome {
  double tasks_per_s{0.0};
  std::uint64_t cache_hits{0};
  std::uint64_t cache_misses{0};
  std::uint64_t p2p_fetches{0};
};

DataOutcome run_data_tcp(bool stage_ahead, int executors, int objects,
                         int tasks) {
  constexpr std::uint64_t kObjectBytes = 64ULL << 10;
  RealClock clock;
  // Next-available dispatch: a locality router would pin every task to
  // whichever executor already holds the object and the placement under
  // test would never matter.
  core::Dispatcher dispatcher(clock, core::DispatcherConfig{});
  core::TcpDispatcherServer server(dispatcher);
  if (!server.start().ok()) return {};

  iomodel::IoModel model;
  struct Slot {
    std::unique_ptr<core::DataPlane> plane;
    core::P2pDataEngine* engine{nullptr};  // owned by the harness
    std::unique_ptr<core::TcpExecutorHarness> harness;
  };
  std::vector<Slot> fleet(static_cast<std::size_t>(executors));
  for (int e = 0; e < executors; ++e) {
    auto& cell = fleet[static_cast<std::size_t>(e)];
    core::DataPlaneOptions popts;
    // Room for the whole working set either way: the seeding policy, not
    // the capacity, is the variable under test.
    popts.cache_capacity_bytes =
        static_cast<std::uint64_t>(objects) * kObjectBytes + 1;
    cell.plane = std::make_unique<core::DataPlane>(popts);
    if (stage_ahead) {
      // Staged ahead: every executor already holds the full working set.
      for (int o = 0; o < objects; ++o) {
        cell.plane->insert("object-" + std::to_string(o), kObjectBytes);
      }
    } else if (e == 0) {
      // Diffusion: one holder seeds everything; the rest fill via P2P.
      for (int o = 0; o < objects; ++o) {
        cell.plane->insert("object-" + std::to_string(o), kObjectBytes);
      }
    }
    auto engine = std::make_unique<core::P2pDataEngine>(clock, model,
                                                        executors, *cell.plane);
    cell.engine = engine.get();
    core::ExecutorOptions eopts;
    eopts.node_id = NodeId{static_cast<std::uint64_t>(e + 1)};
    eopts.host = "127.0.0.1";
    eopts.data = cell.plane.get();
    auto harness = std::make_unique<core::TcpExecutorHarness>(
        clock, "127.0.0.1", server.rpc_port(),
        std::move(engine), eopts);
    if (!harness->start().ok()) return {};
    cell.harness = std::move(harness);
  }

  auto client = core::TcpDispatcherClient::connect(
      "127.0.0.1", server.rpc_port(), /*stream=*/true);
  if (!client.ok()) return {};
  auto session = core::FalkonSession::open(*client.value(), ClientId{1});
  if (!session.ok()) return {};

  Rng rng(42);
  std::vector<TaskSpec> specs;
  for (int i = 1; i <= tasks; ++i) {
    const auto object =
        rng.uniform_int(0, static_cast<std::uint64_t>(objects - 1));
    TaskSpec task = make_data_task(TaskId{static_cast<std::uint64_t>(i)},
                                   /*compute_s=*/0.0, DataLocation::kSharedFs,
                                   IoMode::kRead, kObjectBytes, 0);
    task.data_object = "object-" + std::to_string(object);
    task.capture_output = false;
    specs.push_back(std::move(task));
  }

  const double start = clock.now_s();
  auto results = session.value()->run(std::move(specs), 240.0);
  const double elapsed = clock.now_s() - start;

  DataOutcome outcome;
  if (results.ok() && elapsed > 0) {
    outcome.tasks_per_s = static_cast<double>(tasks) / elapsed;
  }
  for (auto& cell : fleet) {
    outcome.cache_hits += cell.plane->cache_hits();
    outcome.cache_misses += cell.plane->cache_misses();
    outcome.p2p_fetches += cell.engine->p2p_fetches();
    cell.harness.reset();
  }
  dispatcher.shutdown();
  server.stop();
  return outcome;
}

}  // namespace

int main() {
  title("Ablation: pre-fetch and piggy-backing over real loopback TCP");
  note("sleep-0 tasks, 2 executors, 4000 tasks per cell");

  Table table({"piggyback", "prefetch", "tasks/s"});
  for (bool piggyback : {false, true}) {
    for (bool prefetch : {false, true}) {
      table.row({piggyback ? "on" : "off", prefetch ? "on" : "off",
                 strf("%.0f", run_tcp(prefetch, piggyback, 2, 4000))});
    }
  }
  table.print();
  note("piggy-backing merges the result/ack/next-task exchanges (2 messages"
       " per task); pre-fetch overlaps the remaining round trip with"
       " execution.");

  title("Staging-ahead vs diffusion: the data-plane pre-fetch (loopback TCP)");
  note("8 executors, 16 x 64 KiB objects, 400 read tasks, next-available"
       " dispatch");
  Table data({"data placement", "tasks/s", "cache hit rate", "p2p fetches"});
  auto hit_rate = [](const DataOutcome& o) {
    const auto total = o.cache_hits + o.cache_misses;
    return total ? 100.0 * static_cast<double>(o.cache_hits) /
                       static_cast<double>(total)
                 : 0.0;
  };
  const auto staged = run_data_tcp(true, 8, 16, 400);
  const auto diffused = run_data_tcp(false, 8, 16, 400);
  data.row({"staged ahead", strf("%.0f", staged.tasks_per_s),
            strf("%.0f%%", hit_rate(staged)),
            strf("%llu", static_cast<unsigned long long>(staged.p2p_fetches))});
  data.row({"diffusion (1 seed holder)", strf("%.0f", diffused.tasks_per_s),
            strf("%.0f%%", hit_rate(diffused)),
            strf("%llu",
                 static_cast<unsigned long long>(diffused.p2p_fetches))});
  data.print();
  note("staging ahead pays the placement cost before the clock starts;"
       " diffusion pays it in-band as P2P fetches off the seed holder until"
       " the working set spreads.");

  title("Same ablation in the calibrated 2007-testbed model");
  Table model({"piggyback", "tasks/s (64 executors)"});
  for (bool piggyback : {false, true}) {
    sim::SimFalkonConfig config;
    config.executors = 64;
    config.task_count = 20000;
    config.piggyback = piggyback;
    model.row({piggyback ? "on" : "off",
               strf("%.0f", sim::simulate_falkon(config).avg_throughput())});
  }
  model.print();
  note("without piggy-backing every task pays the notify+get-work path:"
       " the dispatcher saturates ~40% lower.");
  return 0;
}
