// Property suite: the real (threaded) dispatcher, in-process backend.
//
// The in-process runner exercises the dispatcher's sharded hot path, the
// notification engine, replay/renotify sweeps and — on fault-bearing specs
// — the heartbeat failure detector with a supervised fleet, all without
// socket overhead. Every history is replayed through the invariant model.
//
// The regression section pins previously-shrunk counterexamples as plain
// spec literals so they run on every invocation, not just when the seed
// scan happens to revisit them.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "testkit/testkit.h"

namespace falkon::testkit {
namespace {

TEST(PropDispatcher, InvariantsHoldOnRandomWorkloads) {
  PropertyOptions options;
  options.base_seed = 5000;
  options.cases = 30;
  const PropertyOutcome outcome = check_property(
      "dispatcher-invariants", options, [](const WorkloadSpec& spec) {
        return check_invariants(run_inproc(spec));
      });
  EXPECT_TRUE(outcome.passed) << outcome.report("dispatcher-invariants");
}

TEST(PropDispatcher, FaultBearingWorkloadsStayConservative) {
  // Force a fault plan onto every case: conservation and at-most-one-ack
  // must survive crashes, lost notifications and lost acks with the
  // supervisor respawning executors.
  PropertyOptions options;
  options.base_seed = 6000;
  options.cases = 10;
  std::uint64_t total_injected = 0;
  const PropertyOutcome outcome = check_property(
      "dispatcher-fault-invariants", options, [&](const WorkloadSpec& raw) {
        WorkloadSpec spec = raw;
        if (!spec.faulty()) spec.fault_intensity = 0.6;
        // Crashed in-process executors are respawned by the runner.
        spec.supervise = true;
        const RunHistory history = run_inproc(spec);
        total_injected += history.injected_faults;
        return check_invariants(history);
      });
  EXPECT_TRUE(outcome.passed) << outcome.report("dispatcher-fault-invariants");
  EXPECT_GT(total_injected, 0u)
      << "no fault ever fired across " << outcome.cases_run << " cases";
}

// ---- pinned regression cases ----
//
// Shrunk counterexamples from testkit development. Each was found by the
// seed scan, minimised by the shrinker, and is replayed verbatim here.

std::vector<std::string> inproc_property(const WorkloadSpec& spec) {
  return check_invariants(run_inproc(spec));
}

TEST(PropDispatcherRegression, SingleTaskSingleExecutor) {
  // Smallest possible workload: exercises the empty-queue edge of the
  // notification engine and bundle accounting.
  WorkloadSpec spec;
  spec.seed = 1;
  spec.task_count = 1;
  spec.executors = 1;
  spec.client_bundle = 1;
  spec.max_retries = 16;
  const auto violations = inproc_property(spec);
  EXPECT_TRUE(violations.empty()) << join_violations(violations);
}

TEST(PropDispatcherRegression, AdaptiveBundleLargerThanQueue) {
  // Adaptive sizing with more executors than tasks: bundles clamp to 1 and
  // most executors see empty get_work replies.
  WorkloadSpec spec;
  spec.seed = 2;
  spec.task_count = 3;
  spec.executors = 8;
  spec.client_bundle = 3;
  spec.adaptive_bundle = true;
  spec.max_adaptive_bundle = 64;
  spec.max_retries = 16;
  const auto violations = inproc_property(spec);
  EXPECT_TRUE(violations.empty()) << join_violations(violations);
}

TEST(PropDispatcherRegression, RuntimeBudgetBundlingWithSleepTasks) {
  // max_bundle_runtime_s below one task's estimate: every bundle degrades
  // to a single task regardless of the requested count.
  WorkloadSpec spec;
  spec.seed = 3;
  spec.task_count = 24;
  spec.executors = 2;
  spec.task_length_s = 0.005;
  spec.client_bundle = 24;
  spec.executor_bundle = 8;
  spec.max_tasks_per_dispatch = 8;
  spec.max_bundle_runtime_s = 0.004;
  spec.max_retries = 16;
  const auto violations = inproc_property(spec);
  EXPECT_TRUE(violations.empty()) << join_violations(violations);
}

TEST(PropDispatcherRegression, LongBundleIsNotReplayedWhileItRuns) {
  // One 40-task bundle of 20 ms tasks runs ~0.8 s, past the 0.3 s response
  // timeout, and is delivered only once all of it has run: its replay
  // deadline must count the whole bundle. check_invariants passes even when
  // replays fail every task (each still ends terminal), so assert
  // completion too.
  WorkloadSpec spec;
  spec.seed = 4;
  spec.task_count = 40;
  spec.executors = 2;
  spec.task_length_s = 0.02;
  spec.client_bundle = 40;
  spec.executor_bundle = 40;
  spec.max_tasks_per_dispatch = 40;
  spec.max_bundle_runtime_s = 1.0;
  spec.replay_timeout_s = 0.3;
  spec.max_retries = 3;
  const RunHistory history = run_inproc(spec);
  const auto violations = check_invariants(history);
  EXPECT_TRUE(violations.empty()) << join_violations(violations);
  EXPECT_EQ(history.completed, 40u);
  EXPECT_EQ(history.failed, 0u);
}

}  // namespace
}  // namespace falkon::testkit
