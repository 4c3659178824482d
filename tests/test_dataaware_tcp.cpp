// End-to-end data diffusion over real TCP on loopback (docs/DATA.md):
// executors advertise their cache digests on registration and heartbeats,
// the dispatcher's good-cache-compute router sends tasks to their data,
// and on a holder crash work re-routes with peer-to-peer fetches from the
// surviving holder instead of re-staging through the shared FS.
//
// Everything binds port 0 (ephemeral), so the binary is safe under
// parallel ctest.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "core/client.h"
#include "core/data_plane.h"
#include "core/policies.h"
#include "core/service_tcp.h"
#include "iomodel/io_model.h"
#include "obs/obs.h"

namespace falkon::core {
namespace {

constexpr std::uint64_t kObjectBytes = 256ULL << 10;

obs::ObsConfig traced() {
  obs::ObsConfig config;
  config.tracing = true;
  return config;
}

std::vector<TaskSpec> hot_tasks(std::uint64_t first_id, int count,
                                double compute_s) {
  std::vector<TaskSpec> tasks;
  for (int i = 0; i < count; ++i) {
    TaskSpec task = make_data_task(
        TaskId{first_id + static_cast<std::uint64_t>(i)}, compute_s,
        DataLocation::kSharedFs, IoMode::kRead, kObjectBytes,
        /*output_bytes=*/0);
    task.data_object = "hot";
    task.capture_output = false;
    tasks.push_back(std::move(task));
  }
  return tasks;
}

std::uint64_t count_fetch_spans(const obs::Obs& obs) {
  std::uint64_t fetches = 0;
  for (const auto& span : obs.tracer().snapshot()) {
    if (span.stage == obs::Stage::kDataFetch) ++fetches;
  }
  return fetches;
}

/// One fleet slot: the plane outlives the engine and harness that hold
/// references into it, so members are declared cache-first.
struct Slot {
  std::unique_ptr<DataPlane> plane;
  P2pDataEngine* engine{nullptr};  // owned by the harness
  std::unique_ptr<TcpExecutorHarness> harness;
};

TEST(DataAwareTcp, LocalityRoutesToHolderThenPeerFetchAfterCrash) {
  RealClock clock;
  obs::Obs obs{traced()};

  DispatcherConfig dconfig;
  dconfig.obs = &obs;
  dconfig.max_locality_wait_s = 0.3;
  Dispatcher dispatcher(clock, dconfig,
                        std::make_unique<GoodCacheComputePolicy>());
  TcpDispatcherServer server(dispatcher, &obs);
  ASSERT_TRUE(server.start().ok());

  const iomodel::IoModel io_model;
  std::vector<Slot> fleet(3);
  const auto spawn = [&](std::size_t slot) {
    Slot& cell = fleet[slot];
    cell.plane = std::make_unique<DataPlane>(DataPlaneOptions{.obs = &obs});
    if (slot == 0) cell.plane->insert("hot", kObjectBytes);  // seeded holder
    auto engine = std::make_unique<P2pDataEngine>(clock, io_model,
                                                  /*concurrency=*/3,
                                                  *cell.plane, &obs);
    cell.engine = engine.get();
    ExecutorOptions eopts;
    eopts.node_id = NodeId{slot + 1};
    // The registered host seeds peer data_source endpoints, and the socket
    // layer speaks numeric IPv4 only — the "localhost" default would make
    // every P2P fetch fail over to the shared FS.
    eopts.host = "127.0.0.1";
    eopts.obs = &obs;
    eopts.data = cell.plane.get();
    eopts.heartbeat_interval_s = 0.03;
    // No HA standby here: the takeover probe's periodic bare get_work from
    // an idle cold executor could race the holder to a freshly queued task
    // and blur the locality assertions below.
    eopts.takeover_probe_s = 0.0;
    auto harness = std::make_unique<TcpExecutorHarness>(
        clock, "127.0.0.1", server.rpc_port(),
        std::move(engine), eopts);
    ASSERT_TRUE(harness->start().ok());
    cell.engine->set_actor(harness->runtime().id().value);
    cell.harness = std::move(harness);
  };
  for (std::size_t slot = 0; slot < fleet.size(); ++slot) spawn(slot);

  auto client = TcpDispatcherClient::connect("127.0.0.1", server.rpc_port());
  ASSERT_TRUE(client.ok());
  auto session = FalkonSession::open(*client.value(), ClientId{1});
  ASSERT_TRUE(session.ok());

  // ---- phase 1: locality routing to the seeded holder, zero fetches ----
  // One task in flight at a time: with queue depth 1 the notification pump
  // wakes exactly one idle executor — the one the good-cache-compute
  // policy picks — so every task must land on the seeded holder. (A burst
  // would wake the cold executors too: the pump notifies one executor per
  // queued task, and the wait bound only defers non-head picks.) Between
  // tasks, wait for the fleet to settle back to idle: the client sees a
  // result a beat before the dispatcher marks the deliverer idle, and a
  // submit landing in that window would be pumped at the cold executors.
  const auto wait_all_idle = [&] {
    const auto idle_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (dispatcher.status().idle_executors <
               dispatcher.status().registered_executors &&
           std::chrono::steady_clock::now() < idle_deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_EQ(dispatcher.status().idle_executors,
              dispatcher.status().registered_executors);
  };
  for (int i = 1; i <= 6; ++i) {
    wait_all_idle();
    auto warm = session.value()->run(
        hot_tasks(static_cast<std::uint64_t>(i), 1, 0.0), 30.0);
    ASSERT_TRUE(warm.ok()) << warm.error().str();
    ASSERT_EQ(warm.value().size(), 1u);
    EXPECT_TRUE(warm.value().front().success());
  }

  // Every task ran where its data lives: no data_fetch stage anywhere, no
  // staging onto the two cold planes, and the router never picked an
  // unadvertised entry (I11) or overran the wait bound (I12).
  EXPECT_EQ(count_fetch_spans(obs), 0u);
  EXPECT_EQ(fleet[1].plane->entries(), 0u);
  EXPECT_EQ(fleet[2].plane->entries(), 0u);
  EXPECT_GE(fleet[0].plane->cache_hits(), 6u);
  {
    const Dispatcher::DataStats stats = dispatcher.data_stats();
    EXPECT_EQ(stats.stale_routes, 0u);
    EXPECT_EQ(stats.locality_overwait, 0u);
  }

  // ---- make a second holder, then crash the first ----
  const std::uint64_t digests_before = dispatcher.data_stats().digests_applied;
  fleet[1].plane->insert("hot", kObjectBytes);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  while (dispatcher.data_stats().digests_applied <= digests_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GT(dispatcher.data_stats().digests_applied, digests_before)
      << "second holder's digest never reached the dispatcher";

  fleet[0].harness.reset();      // orderly stop deregisters the holder
  fleet[0].plane->stop();        // and its fetch server goes dark
  ASSERT_EQ(dispatcher.status().registered_executors, 2u);

  // ---- phase 2: re-route to the survivor, P2P fetch off the survivor ----
  // Burst of four: the pump notifies both survivors (one per queued task),
  // so the cold executor pulls a head task too, misses its cache, and must
  // stage "hot" peer-to-peer from the surviving holder the dispatcher
  // stamped as data_source.
  auto rerouted = session.value()->run(hot_tasks(101, 4, 0.4), 30.0);
  ASSERT_TRUE(rerouted.ok()) << rerouted.error().str();
  ASSERT_EQ(rerouted.value().size(), 4u);
  for (const auto& result : rerouted.value()) EXPECT_TRUE(result.success());

  // The surviving holder served at least one peer fetch (the cold executor
  // picked up the aged queue head and staged "hot" from it), and nothing
  // ever consulted the dead holder's plane.
  EXPECT_GE(count_fetch_spans(obs), 1u);
  EXPECT_GE(fleet[1].plane->fetches_served(), 1u);
  EXPECT_GE(fleet[2].engine->p2p_fetches(), 1u);
  EXPECT_TRUE(fleet[2].plane->contains("hot"));
  EXPECT_EQ(fleet[0].plane->fetches_served(), 0u);
  {
    const Dispatcher::DataStats stats = dispatcher.data_stats();
    EXPECT_EQ(stats.stale_routes, 0u);
    EXPECT_EQ(stats.locality_overwait, 0u);
  }
  EXPECT_EQ(obs.registry().counter("falkon.data.digest_stale").value(), 0u);

  for (auto& cell : fleet) cell.harness.reset();
  dispatcher.shutdown();
  server.stop();
}

TEST(DataAwareTcp, LruEvictionReachesDispatcherOverHeartbeat) {
  // A capacity eviction on the executor must turn into a kDataEvict notice
  // on the next heartbeat, so the router stops considering the entry; the
  // replacing object's digest lands the same way.
  RealClock clock;
  obs::Obs obs{obs::ObsConfig{}};

  DispatcherConfig dconfig;
  dconfig.obs = &obs;
  dconfig.max_locality_wait_s = 0.3;
  Dispatcher dispatcher(clock, dconfig,
                        std::make_unique<GoodCacheComputePolicy>());
  TcpDispatcherServer server(dispatcher, &obs);
  ASSERT_TRUE(server.start().ok());

  // Room for one 256 KiB object only: the second insert evicts the first.
  DataPlane plane(DataPlaneOptions{.cache_capacity_bytes = kObjectBytes + 1,
                                   .obs = &obs});
  plane.insert("cold", kObjectBytes);
  const iomodel::IoModel io_model;
  ExecutorOptions eopts;
  eopts.node_id = NodeId{1};
  eopts.obs = &obs;
  eopts.data = &plane;
  eopts.heartbeat_interval_s = 0.03;
  TcpExecutorHarness harness(
      clock, "127.0.0.1", server.rpc_port(),
      std::make_unique<P2pDataEngine>(clock, io_model, 1, plane, &obs), eopts);
  ASSERT_TRUE(harness.start().ok());

  plane.insert("warm", kObjectBytes);  // LRU drops "cold"
  EXPECT_FALSE(plane.contains("cold"));

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  while (dispatcher.data_stats().evictions == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const Dispatcher::DataStats stats = dispatcher.data_stats();
  EXPECT_GE(stats.evictions, 1u) << "evict notice never reached the router";
  EXPECT_EQ(stats.stale_routes, 0u);

  harness.stop();
  dispatcher.shutdown();
  server.stop();
}

}  // namespace
}  // namespace falkon::core
