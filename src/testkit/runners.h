// falkon::testkit — backend runners.
//
// Each runner executes one WorkloadSpec end-to-end on a different backend
// and returns the RunHistory the checkers consume:
//
//   run_sim     the DES (sim::simulate_falkon) — model time, single thread,
//               bit-reproducible under the spec's seed
//   run_inproc  real Dispatcher + LocalExecutorHarness fleet — threads and
//               locks, no wire
//   run_tcp     full loopback-TCP deployment (TcpDispatcherServer +
//               TcpExecutorHarness) — the production protocol
//
// All three enable obs tracing with a ring sized to hold the whole run, so
// the resulting histories are complete protocol transcripts. Threaded
// runners supervise the fleet (respawning crashed executors, like a
// provisioner holding an allocation at size) and bound the run with a real
// deadline: a stall is reported through RunHistory::run_error rather than
// hanging the property harness.
#pragma once

#include "testkit/history.h"
#include "testkit/workload.h"

namespace falkon::testkit {

/// Run the spec through the discrete-event simulation.
[[nodiscard]] RunHistory run_sim(const WorkloadSpec& spec);

/// Run the spec on a real dispatcher with in-process executors.
[[nodiscard]] RunHistory run_inproc(const WorkloadSpec& spec);

/// Run the spec on the loopback-TCP stack. `deadline_s` bounds wall time.
[[nodiscard]] RunHistory run_tcp(const WorkloadSpec& spec,
                                 double deadline_s = 60.0);

/// HA-runner knobs beyond the spec (the spec itself carries
/// kill_primary_after so property shrinking can turn the takeover off).
struct HaRunOptions {
  /// Election-capable warm standbys tailing the primary.
  int standbys{2};
  /// After the first takeover has settled, kill the winning standby too,
  /// forcing a second election among the survivors (needs standbys >= 2).
  bool kill_winner_too{false};
  double deadline_s{90.0};
};

/// Run the spec on the loopback-TCP stack with a journaled primary and a
/// fleet of warm standbys; honours spec.kill_primary_after by killing the
/// primary mid-run and riding the election/takeover with an
/// ha::FailoverClient. Fills ha_run/primary_epochs so check_invariants
/// exercises I9 (one primary per epoch) and I10 (exactly-once across
/// promotion).
[[nodiscard]] RunHistory run_tcp_ha(const WorkloadSpec& spec,
                                    const HaRunOptions& ha = {});

}  // namespace falkon::testkit
