// falkon::testkit unit + integration coverage: generator determinism and
// ranges, fault-plan recoverability bounds, shrinking (monotone, minimal
// counterexample), the property harness, wire debug summaries, obs task
// grouping, and one smoke run per backend through the invariant checker.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "testkit/testkit.h"
#include "wire/message.h"

namespace falkon::testkit {
namespace {

TEST(Workload, SameSeedGeneratesIdenticalSpec) {
  for (std::uint64_t seed : {1ULL, 42ULL, 987654321ULL}) {
    const WorkloadSpec a = generate_workload(seed);
    const WorkloadSpec b = generate_workload(seed);
    EXPECT_EQ(describe(a), describe(b));
    EXPECT_EQ(a.task_count, b.task_count);
    EXPECT_EQ(a.fault_intensity, b.fault_intensity);
  }
}

TEST(Workload, DifferentSeedsDiffer) {
  std::set<std::string> specs;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    specs.insert(describe(generate_workload(seed)));
  }
  // SplitMix64 diffusion: near-identical seeds still give distinct specs.
  EXPECT_GT(specs.size(), 45u);
}

TEST(Workload, GeneratedRangesAreRunnable) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const WorkloadSpec spec = generate_workload(seed);
    EXPECT_GE(spec.task_count, 1u);
    EXPECT_LE(spec.task_count, 160u);
    EXPECT_GE(spec.executors, 1);
    EXPECT_LE(spec.executors, 8);
    EXPECT_GE(spec.client_bundle, 1);
    EXPECT_GE(spec.executor_bundle, 1u);
    EXPECT_GE(spec.max_tasks_per_dispatch, 1u);
    EXPECT_GE(spec.max_retries, 16);
    EXPECT_GE(spec.replay_timeout_s, 0.3);
    EXPECT_GE(spec.fault_intensity, 0.0);
    EXPECT_LE(spec.fault_intensity, 1.0);
  }
}

TEST(Workload, FaultPlanEmptyWithoutIntensity) {
  WorkloadSpec spec = generate_workload(7);
  spec.fault_intensity = 0.0;
  EXPECT_TRUE(fault_plan(spec).rules.empty());
}

TEST(Workload, FaultPlanIsRecoverableByConstruction) {
  // Every drawn rule stays under the recovery machinery's convergence
  // bounds: no probability above kRpcConnect's 0.10 ceiling, no hang
  // beyond 0.15 s, no slow-down beyond 0.02 s.
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const fault::FaultPlan plan = fault::random_plan(seed, 1.0);
    for (const auto& rule : plan.rules) {
      EXPECT_LE(rule.probability, 0.10) << fault::describe(plan);
      if (rule.action == fault::Action::kHang) {
        EXPECT_LE(rule.param, 0.15);
      }
      if (rule.action == fault::Action::kSlow) {
        EXPECT_LE(rule.param, 0.02);
      }
    }
  }
}

TEST(Workload, FaultPlanScalesWithIntensity) {
  std::size_t low = 0, high = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    low += fault::random_plan(seed, 0.2).rules.size();
    high += fault::random_plan(seed, 1.0).rules.size();
  }
  EXPECT_LT(low, high);
  EXPECT_GT(high, 0u);
}

TEST(Shrinking, CandidatesAreStrictlySmaller) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const WorkloadSpec spec = generate_workload(seed);
    for (const WorkloadSpec& candidate : shrink_candidates(spec)) {
      EXPECT_LT(spec_size(candidate), spec_size(spec))
          << describe(spec) << " -> " << describe(candidate);
    }
  }
}

TEST(Shrinking, MinimalSpecHasNoCandidates) {
  WorkloadSpec minimal;
  minimal.task_count = 1;
  minimal.executors = 1;
  minimal.task_length_s = 0.0;
  minimal.client_bundle = 1;
  minimal.piggyback = true;
  minimal.max_tasks_per_dispatch = 1;
  minimal.executor_bundle = 1;
  minimal.adaptive_bundle = false;
  minimal.max_bundle_runtime_s = 0.0;
  minimal.fault_intensity = 0.0;
  EXPECT_TRUE(shrink_candidates(minimal).empty());
}

TEST(Harness, FindsAndShrinksToMinimalCounterexample) {
  // Synthetic property: fails iff task_count >= 20. The harness must find
  // a failing seed and shrink every other axis away, landing exactly on
  // the boundary.
  PropertyOptions options;
  options.base_seed = 1;
  options.cases = 50;
  const PropertyOutcome outcome =
      check_property("synthetic", options, [](const WorkloadSpec& spec) {
        std::vector<std::string> violations;
        if (spec.task_count >= 20) violations.push_back("task_count >= 20");
        return violations;
      });
  ASSERT_FALSE(outcome.passed);
  EXPECT_EQ(outcome.minimal.task_count, 20u);
  EXPECT_EQ(outcome.minimal.executors, 1);
  EXPECT_EQ(outcome.minimal.fault_intensity, 0.0);
  EXPECT_FALSE(outcome.minimal.adaptive_bundle);
  EXPECT_GT(outcome.shrink_steps, 0);
  EXPECT_NE(outcome.report("synthetic").find("FALKON_TEST_SEED="),
            std::string::npos);
}

TEST(Harness, PassingPropertyRunsAllCases) {
  PropertyOptions options;
  options.cases = 25;
  const PropertyOutcome outcome = check_property(
      "always-holds", options,
      [](const WorkloadSpec&) { return std::vector<std::string>{}; });
  EXPECT_TRUE(outcome.passed);
  EXPECT_EQ(outcome.cases_run, 25);
}

TEST(History, GroupByTaskPreservesRingOrderAndCounts) {
  obs::Tracer tracer(64);
  tracer.instant(TaskId{1}, obs::Stage::kSubmit, 0.0);
  tracer.instant(TaskId{2}, obs::Stage::kSubmit, 0.1);
  tracer.instant(TaskId{1}, obs::Stage::kQueued, 0.2);
  tracer.instant(TaskId{1}, obs::Stage::kGetWork, 0.3);
  tracer.instant(TaskId{2}, obs::Stage::kQueued, 0.4);
  const auto tasks = obs::group_by_task(tracer.snapshot());
  ASSERT_EQ(tasks.size(), 2u);
  EXPECT_EQ(tasks[0].task, 1u);
  EXPECT_EQ(tasks[0].events.size(), 3u);
  EXPECT_EQ(tasks[0].count(obs::Stage::kSubmit), 1u);
  EXPECT_EQ(tasks[0].count(obs::Stage::kGetWork), 1u);
  EXPECT_EQ(tasks[1].task, 2u);
  EXPECT_EQ(tasks[1].count(obs::Stage::kQueued), 1u);
  EXPECT_TRUE(tracer.complete());
}

TEST(History, InvariantCheckerFlagsViolations) {
  RunHistory history;
  history.backend = "synthetic";
  history.submitted = 3;
  history.completed = 1;
  history.failed = 1;  // conservation broken: 1 task lost
  history.queued_at_end = 1;
  history.result_ids = {7, 7};  // duplicate delivery
  history.quarantine_series = {0, 2, 1};  // quarantine went backwards
  const auto violations = check_invariants(history);
  const std::string joined = join_violations(violations);
  EXPECT_NE(joined.find("I1 conservation"), std::string::npos) << joined;
  EXPECT_NE(joined.find("I6 quarantine monotone"), std::string::npos);
  EXPECT_NE(joined.find("I8 unique delivery"), std::string::npos);
}

TEST(History, DoubleAckIsCaught) {
  obs::Tracer tracer(64);
  tracer.instant(TaskId{1}, obs::Stage::kSubmit, 0.0);
  tracer.instant(TaskId{1}, obs::Stage::kQueued, 0.1);
  tracer.instant(TaskId{1}, obs::Stage::kGetWork, 0.1);
  tracer.instant(TaskId{1}, obs::Stage::kExec, 0.2);
  tracer.instant(TaskId{1}, obs::Stage::kDeliverResult, 0.3);
  tracer.instant(TaskId{1}, obs::Stage::kAck, 0.3);
  tracer.instant(TaskId{1}, obs::Stage::kAck, 0.4);  // double completion
  RunHistory history;
  history.backend = "synthetic";
  history.submitted = 1;
  history.completed = 1;
  history.events = tracer.snapshot();
  history.trace_complete = true;
  const auto violations = check_invariants(history);
  EXPECT_NE(join_violations(violations).find("I3 at-most-one-ack"),
            std::string::npos)
      << join_violations(violations);
}

TEST(Wire, DebugSummaryShowsProtocolFields) {
  wire::TaskBundle bundle;
  bundle.executor_id = ExecutorId{3};
  bundle.acknowledged = 2;
  bundle.tasks.resize(4);
  EXPECT_EQ(wire::debug_summary(bundle),
            "TaskBundle{executor=3, acked=2, tasks=4}");

  wire::ResultBundle results;
  results.executor_id = ExecutorId{3};
  results.want_tasks = wire::kAdaptiveWant;
  EXPECT_EQ(wire::debug_summary(results),
            "ResultBundle{executor=3, results=0, want=adaptive}");

  wire::GetWorkRequest get_work;
  get_work.executor_id = ExecutorId{1};
  get_work.max_tasks = wire::kAdaptiveBundle;
  EXPECT_EQ(wire::debug_summary(get_work),
            "GetWorkRequest{executor=1, max=adaptive}");

  wire::Notify release;
  release.executor_id = ExecutorId{5};
  release.resource_key = wire::kReleaseResourceKey;
  EXPECT_EQ(wire::debug_summary(release), "Notify{executor=5, release}");
}

// ---- backend smoke runs through the full checker ----

WorkloadSpec smoke_spec() {
  WorkloadSpec spec;
  spec.seed = 20260807;
  spec.task_count = 40;
  spec.executors = 3;
  spec.client_bundle = 16;
  spec.max_retries = 16;
  return spec;
}

TEST(Runners, SimSmokeHoldsInvariants) {
  const RunHistory history = run_sim(smoke_spec());
  EXPECT_EQ(history.completed, 40u);
  EXPECT_TRUE(history.trace_complete);
  const auto violations = check_invariants(history);
  EXPECT_TRUE(violations.empty()) << join_violations(violations);
}

TEST(Runners, SimIsDeterministic) {
  const RunHistory a = run_sim(smoke_spec());
  const RunHistory b = run_sim(smoke_spec());
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.retried, b.retried);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].task, b.events[i].task);
    EXPECT_EQ(a.events[i].stage, b.events[i].stage);
    EXPECT_EQ(a.events[i].begin_s, b.events[i].begin_s);
  }
}

TEST(Runners, InprocSmokeHoldsInvariants) {
  const RunHistory history = run_inproc(smoke_spec());
  EXPECT_EQ(history.completed, 40u);
  EXPECT_EQ(history.result_ids.size(), 40u);
  const auto violations = check_invariants(history);
  EXPECT_TRUE(violations.empty()) << join_violations(violations);
}

TEST(Runners, TcpSmokeHoldsInvariants) {
  WorkloadSpec spec = smoke_spec();
  spec.piggyback = true;
  spec.executor_bundle = 4;
  const RunHistory history = run_tcp(spec);
  EXPECT_EQ(history.completed, 40u);
  const auto violations = check_invariants(history);
  EXPECT_TRUE(violations.empty()) << join_violations(violations);
}

TEST(Runners, SimTcpConformanceOnSmokeSpec) {
  const RunHistory sim = run_sim(smoke_spec());
  const RunHistory tcp = run_tcp(smoke_spec());
  const auto violations =
      check_conformance(sim, tcp, /*require_all_complete=*/true);
  EXPECT_TRUE(violations.empty()) << join_violations(violations);
}

}  // namespace
}  // namespace falkon::testkit
