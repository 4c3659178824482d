// Ablation: data-aware dispatch + executor caching vs next-available
// (paper section 6 future work, implemented here).
//
// Workload: tasks repeatedly read a working set of shared-filesystem
// objects. With next-available dispatch, an object is re-fetched from GPFS
// whenever the task lands on an executor that has not seen it. With
// data-aware dispatch, the dispatcher routes tasks to executors whose local
// cache already holds the input, so most reads hit local disk.
#include "bench_util.h"
#include "common/clock.h"
#include "common/rng.h"
#include "core/client.h"
#include "core/data_plane.h"
#include "core/policies.h"
#include "core/service.h"
#include "core/service_tcp.h"

namespace {

using namespace falkon;
using namespace falkon::bench;

struct Outcome {
  double makespan_s{0};
  std::uint64_t cache_hits{0};
  std::uint64_t cache_misses{0};
};

Outcome run(bool data_aware, int executors, int objects, int tasks) {
  ScaledClock clock(2000.0);
  core::DispatcherConfig dispatcher_config;
  std::unique_ptr<core::DispatchPolicy> policy;
  if (data_aware) policy = std::make_unique<core::DataAwarePolicy>();
  core::InProcFalkon falkon(clock, dispatcher_config, std::move(policy));

  iomodel::IoModel model;  // paper-calibrated GPFS/local constants
  std::vector<core::DataStagingEngine*> engines;
  auto factory = [&](Clock& c) {
    auto engine = std::make_unique<core::DataStagingEngine>(
        c, model, /*concurrency=*/executors, /*cache=*/4ULL << 30);
    engines.push_back(engine.get());
    return engine;
  };
  if (!falkon.add_executors(executors, factory, core::ExecutorOptions{}).ok()) {
    return {};
  }

  auto session = core::FalkonSession::open(falkon.client(), ClientId{1});
  if (!session.ok()) return {};

  // Zipf-ish access over a working set of 100 MB GPFS objects.
  Rng rng(42);
  std::vector<TaskSpec> specs;
  for (int i = 1; i <= tasks; ++i) {
    const auto object = rng.uniform_int(0, static_cast<std::uint64_t>(objects - 1));
    TaskSpec task = make_data_task(TaskId{static_cast<std::uint64_t>(i)},
                                   /*compute_s=*/1.0, DataLocation::kSharedFs,
                                   IoMode::kRead, 100ULL << 20, 0);
    task.data_object = "object-" + std::to_string(object);
    specs.push_back(std::move(task));
  }

  const double start = clock.now_s();
  auto results = session.value()->run(std::move(specs), 1e7);
  Outcome outcome;
  if (!results.ok()) return outcome;
  outcome.makespan_s = clock.now_s() - start;
  for (auto* engine : engines) {
    outcome.cache_hits += engine->cache_hits();
    outcome.cache_misses += engine->cache_misses();
  }
  return outcome;
}

// ---- real-socket series (docs/DATA.md) ----
//
// The same ablation over loopback TCP with the real data plane: digests on
// registration/heartbeats, good-cache-compute routing in the dispatcher,
// and peer-to-peer kDataFetch between executors. Per-executor capacity
// holds exactly its partition of the working set, so next-available must
// keep re-staging (P2P off the stamped holder, churning its LRU) while
// data-aware routing leaves each partition in place.
struct TcpOutcome {
  double tasks_per_s{0.0};
  std::uint64_t cache_hits{0};
  std::uint64_t cache_misses{0};
  std::uint64_t p2p_fetches{0};
};

TcpOutcome run_tcp(bool data_aware, int executors, int objects, int tasks) {
  constexpr std::uint64_t kObjectBytes = 64ULL << 10;
  RealClock clock;
  core::DispatcherConfig dconfig;
  std::unique_ptr<core::DispatchPolicy> policy;
  if (data_aware) {
    dconfig.max_locality_wait_s = 0.25;
    policy = std::make_unique<core::GoodCacheComputePolicy>();
  }
  core::Dispatcher dispatcher(clock, dconfig, std::move(policy));
  core::TcpDispatcherServer server(dispatcher, nullptr);
  if (!server.start().ok()) return {};

  iomodel::IoModel model;
  struct Slot {
    std::unique_ptr<core::DataPlane> plane;
    core::P2pDataEngine* engine{nullptr};  // owned by the harness
    std::unique_ptr<core::TcpExecutorHarness> harness;
  };
  const int per_executor = (objects + executors - 1) / executors;
  std::vector<Slot> fleet(static_cast<std::size_t>(executors));
  for (int e = 0; e < executors; ++e) {
    auto& cell = fleet[static_cast<std::size_t>(e)];
    core::DataPlaneOptions popts;
    popts.cache_capacity_bytes =
        static_cast<std::uint64_t>(per_executor) * kObjectBytes + 1;
    cell.plane = std::make_unique<core::DataPlane>(popts);
    for (int o = e; o < objects; o += executors) {
      cell.plane->insert("object-" + std::to_string(o), kObjectBytes);
    }
    auto engine = std::make_unique<core::P2pDataEngine>(
        clock, model, executors, *cell.plane);
    cell.engine = engine.get();
    core::ExecutorOptions eopts;
    eopts.node_id = NodeId{static_cast<std::uint64_t>(e + 1)};
    eopts.host = "127.0.0.1";  // the socket layer is numeric-IPv4 only
    eopts.data = cell.plane.get();
    auto harness = std::make_unique<core::TcpExecutorHarness>(
        clock, "127.0.0.1", server.rpc_port(),
        std::move(engine), eopts);
    if (!harness->start().ok()) return {};
    cell.harness = std::move(harness);
  }

  auto client = core::TcpDispatcherClient::connect("127.0.0.1",
                                                   server.rpc_port());
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
                                   IoMode::kReadWrite, kObjectBytes,
                                   kObjectBytes);
    task.data_object = "object-" + std::to_string(object);
    task.capture_output = false;
    specs.push_back(std::move(task));
  }

  const double start = clock.now_s();
  auto results = session.value()->run(std::move(specs), 240.0);
  const double elapsed = clock.now_s() - start;

  TcpOutcome outcome;
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
  title("Ablation: data-aware dispatch vs next-available (section 6)");
  note("workload: 600 tasks reading 100 MB GPFS objects (working set of"
       " 32 objects), 16 executors with 4 GB local caches");

  Table table({"dispatch policy", "makespan (model s)", "cache hit rate"});
  const auto baseline = run(false, 16, 32, 600);
  const auto aware = run(true, 16, 32, 600);
  auto hit_rate = [](const Outcome& o) {
    const auto total = o.cache_hits + o.cache_misses;
    return total ? 100.0 * static_cast<double>(o.cache_hits) /
                       static_cast<double>(total)
                 : 0.0;
  };
  table.row({"next-available", strf("%.0f", baseline.makespan_s),
             strf("%.0f%%", hit_rate(baseline))});
  table.row({"data-aware", strf("%.0f", aware.makespan_s),
             strf("%.0f%%", hit_rate(aware))});
  table.print();
  note(strf("data-aware speedup: %.2fx (higher locality -> local-disk reads"
            " instead of contended GPFS)",
            baseline.makespan_s / std::max(1.0, aware.makespan_s)));

  title("Real-socket series: loopback TCP, 8 executors, 64 KiB read+write");
  Table tcp({"dispatch policy", "tasks/s", "cache hit rate", "p2p fetches"});
  auto tcp_hit_rate = [](const TcpOutcome& o) {
    const auto total = o.cache_hits + o.cache_misses;
    return total ? 100.0 * static_cast<double>(o.cache_hits) /
                       static_cast<double>(total)
                 : 0.0;
  };
  const auto tcp_baseline = run_tcp(false, 8, 16, 480);
  const auto tcp_aware = run_tcp(true, 8, 16, 480);
  tcp.row({"next-available", strf("%.0f", tcp_baseline.tasks_per_s),
           strf("%.0f%%", tcp_hit_rate(tcp_baseline)),
           strf("%llu",
                static_cast<unsigned long long>(tcp_baseline.p2p_fetches))});
  tcp.row({"good-cache-compute", strf("%.0f", tcp_aware.tasks_per_s),
           strf("%.0f%%", tcp_hit_rate(tcp_aware)),
           strf("%llu",
                static_cast<unsigned long long>(tcp_aware.p2p_fetches))});
  tcp.print();
  note("next-available still diffuses data (P2P fetches off the stamped"
       " holder), but churns every LRU doing it; good-cache-compute sends"
       " the task to the data and leaves the partitions in place.");
  return 0;
}
