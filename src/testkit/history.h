// falkon::testkit — protocol histories and the dispatcher invariant model.
//
// A RunHistory is everything one backend run leaves behind: the dispatcher's
// terminal accounting, the obs lifecycle trace (replayed offline from the
// lock-free ring, so checking never perturbs the hot path), and the result
// ids the client actually picked up.
//
// check_invariants encodes the dispatcher state machine the paper relies on
// (§4.3: no task lost, none double-completed across millions of tasks):
//
//   I1  conservation        submitted == completed + failed; queue and
//                           in-flight set empty at quiesce
//   I2  exactly-one-submit  every traced task has exactly one kSubmit
//   I3  at-most-one-ack     no un-retried double completion: <= 1 kAck per
//                           task, and completed tasks account for all acks
//   I4  stage ordering      kSubmit first; no kExec before the first
//                           kGetWork; kAck never precedes a kDeliverResult
//                           (kNotify excluded: the real dispatcher records
//                           it for the queue head at pump time, which may
//                           not be the task the woken executor pulls)
//   I5  retry budget        dispatch attempts per task <= max_retries + 1
//                           (only checkable when no failure detector
//                           requeues occurred — those are not replays)
//   I6  quarantine monotone sampled quarantine counter never decreases
//   I8  unique delivery     no result id delivered to the client twice
//   I9  one-primary-per-epoch (HA runs) promotion epochs strictly increase:
//                           no two dispatchers ever served the same epoch
//   I10 exactly-once-across-promotion (HA runs) despite takeovers the
//                           client collected every submitted task exactly
//                           once — dupes caught by I8, loss caught here
//   I11 route-on-advertised (data runs) the dispatcher only made locality
//                           picks on digest entries that were advertised
//                           and not yet evicted (stale_route_errors == 0;
//                           executor-side digest_stale misses are the
//                           *legal* race and stay out of scope)
//   I12 bounded deferral    (data runs) locality never starved the queue
//                           head: every task dispatched within
//                           max_locality_wait_s of becoming runnable
//                           (locality_overwait == 0)
//
// The numbers are fixed because code and docs cite them, so a deleted
// invariant leaves a gap in the list.
//
// check_conformance compares two histories of the *same* WorkloadSpec (DES
// vs threaded stack): same task set, both quiescent, same per-task terminal
// ack discipline, and — for recoverable fault plans — full completion on
// both sides.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace falkon::testkit {

/// Everything one run leaves behind for the checkers.
struct RunHistory {
  std::string backend;  // "sim" | "inproc" | "tcp"

  // Terminal dispatcher accounting (DispatcherStatus / SimFalkonResult).
  std::uint64_t submitted{0};
  std::uint64_t completed{0};
  std::uint64_t failed{0};
  std::uint64_t retried{0};
  std::uint64_t quarantined{0};
  std::uint64_t suspicions{0};
  std::uint64_t queued_at_end{0};
  std::uint64_t dispatched_at_end{0};

  /// Retry budget the run was configured with; < 0 = unbounded (I5 skipped).
  int max_retries{-1};

  /// Lifecycle trace, oldest first. Only meaningful when trace_complete.
  std::vector<obs::SpanEvent> events;
  /// Ring kept every event (Tracer::complete()); checkers demand this.
  bool trace_complete{false};

  /// Result ids the client picked up, in delivery order. May be shorter
  /// than `completed` when reply frames were lost; never contains dupes.
  std::vector<std::uint64_t> result_ids;

  /// Periodic samples of the quarantine counter during the run (I6).
  std::vector<std::uint64_t> quarantine_series;

  /// HA runs only (ha_run): the epoch of every dispatcher that served as
  /// primary during the run, in serving order — the seed primary first,
  /// then each promoted standby. I9 demands strict increase.
  bool ha_run{false};
  std::vector<std::uint64_t> primary_epochs;

  /// Data-diffusion runs only (data_run): locality-router self-checks and
  /// executor cache-staleness accounting (docs/DATA.md).
  bool data_run{false};
  /// Locality wait bound the run was configured with; < 0 = none (I12
  /// skipped).
  double max_locality_wait_s{-1.0};
  /// Dispatcher: non-head locality picks whose object was not advertised —
  /// I11 demands 0.
  std::uint64_t stale_route_errors{0};
  /// Dispatcher: non-head picks made past the wait bound — I12 demands 0.
  std::uint64_t locality_overwait{0};
  /// Executor side: tasks routed as expect_cached whose object had been
  /// evicted meanwhile. The legal heartbeat-staleness race; recorded so
  /// suites can assert the fallback fired, never an invariant violation.
  std::uint64_t digest_stale{0};
  /// Dispatcher: kDataEvict notices applied to the cache mirror.
  std::uint64_t data_evictions{0};

  /// Fault-injector decisions that fired during the run (0 for fault-free
  /// specs). Lets suites assert their fault-bearing cases actually bit.
  std::uint64_t injected_faults{0};

  /// Non-empty when the runner itself failed (stall past deadline, refused
  /// connection, ...). Checkers surface it as a violation.
  std::string run_error;
};

/// Replay `history` through the invariant model. Returns human-readable
/// violations; empty = all invariants hold.
[[nodiscard]] std::vector<std::string> check_invariants(
    const RunHistory& history);

/// Compare two histories of the same workload. `require_all_complete`
/// demands completed == submitted on both sides (valid for fault-free specs
/// and for fault::random_plan's recoverable-by-construction plans under a
/// generous retry budget).
[[nodiscard]] std::vector<std::string> check_conformance(
    const RunHistory& a, const RunHistory& b, bool require_all_complete);

/// Render violations for a test failure message, one per line.
[[nodiscard]] std::string join_violations(
    const std::vector<std::string>& violations);

}  // namespace falkon::testkit
