#include "testkit/history.h"

#include <algorithm>
#include <set>
#include <unordered_set>

namespace falkon::testkit {
namespace {

using obs::Stage;

std::string task_str(std::uint64_t task) {
  return "task " + std::to_string(task);
}

/// First ring index of `stage` within one task's events, or -1.
long first_index_of(const obs::TaskHistory& history, Stage stage) {
  for (std::size_t i = 0; i < history.events.size(); ++i) {
    if (history.events[i].stage == stage) return static_cast<long>(i);
  }
  return -1;
}

void check_task_ordering(const obs::TaskHistory& history,
                         const std::string& backend,
                         std::vector<std::string>& violations) {
  const auto bad = [&](const std::string& what) {
    violations.push_back("[" + backend + "] I4 ordering: " +
                         task_str(history.task) + " " + what);
  };

  // I2: exactly one submit, and it opens the task's history.
  if (history.count(Stage::kSubmit) != 1) {
    violations.push_back("[" + backend + "] I2 exactly-one-submit: " +
                         task_str(history.task) + " has " +
                         std::to_string(history.count(Stage::kSubmit)) +
                         " kSubmit events");
  } else if (history.events.front().stage != Stage::kSubmit) {
    bad("does not begin with kSubmit (first stage: " +
        std::string(obs::stage_name(history.events.front().stage)) + ")");
  }

  const long first_get_work = first_index_of(history, Stage::kGetWork);
  const long first_deliver = first_index_of(history, Stage::kDeliverResult);
  const long first_ack = first_index_of(history, Stage::kAck);
  const long first_exec = first_index_of(history, Stage::kExec);

  if (first_exec >= 0 && (first_get_work < 0 || first_exec < first_get_work)) {
    bad("executed before any dispatch (kExec precedes first kGetWork)");
  }
  if (first_ack >= 0 && (first_deliver < 0 || first_ack < first_deliver)) {
    bad("acknowledged before any result delivery");
  }
  if (history.count(Stage::kExec) > 0 && history.count(Stage::kGetWork) == 0) {
    bad("executed without ever being dispatched");
  }
}

}  // namespace

std::vector<std::string> check_invariants(const RunHistory& history) {
  std::vector<std::string> violations;
  const std::string& b = history.backend;
  const auto violate = [&](const std::string& what) {
    violations.push_back("[" + b + "] " + what);
  };

  if (!history.run_error.empty()) {
    violate("runner failed: " + history.run_error);
  }

  // I1 conservation: every submitted task reached exactly one terminal
  // state and nothing is left queued or in flight.
  if (history.completed + history.failed != history.submitted) {
    violate("I1 conservation: submitted=" + std::to_string(history.submitted) +
            " != completed=" + std::to_string(history.completed) +
            " + failed=" + std::to_string(history.failed));
  }
  if (history.queued_at_end != 0) {
    violate("I1 conservation: " + std::to_string(history.queued_at_end) +
            " tasks still queued at quiesce");
  }
  if (history.dispatched_at_end != 0) {
    violate("I1 conservation: " + std::to_string(history.dispatched_at_end) +
            " tasks still in flight at quiesce");
  }

  // I6 quarantine monotone.
  for (std::size_t i = 1; i < history.quarantine_series.size(); ++i) {
    if (history.quarantine_series[i] < history.quarantine_series[i - 1]) {
      violate("I6 quarantine monotone: sample " + std::to_string(i) +
              " dropped from " +
              std::to_string(history.quarantine_series[i - 1]) + " to " +
              std::to_string(history.quarantine_series[i]));
      break;
    }
  }

  // I8 unique delivery.
  {
    std::unordered_set<std::uint64_t> seen;
    for (const std::uint64_t id : history.result_ids) {
      if (!seen.insert(id).second) {
        violate("I8 unique delivery: " + task_str(id) +
                " delivered to the client twice");
      }
    }
  }

  // I9 one-primary-per-epoch (HA runs): the epoch fence means promotion
  // epochs strictly increase across the run — two primaries sharing an
  // epoch is a split brain.
  if (history.ha_run) {
    for (std::size_t i = 1; i < history.primary_epochs.size(); ++i) {
      if (history.primary_epochs[i] <= history.primary_epochs[i - 1]) {
        violate("I9 one-primary-per-epoch: primary " + std::to_string(i) +
                " served epoch " + std::to_string(history.primary_epochs[i]) +
                " after epoch " +
                std::to_string(history.primary_epochs[i - 1]));
      }
    }
  }

  // I10 exactly-once-across-promotion (HA runs): nothing lost to the
  // takeover — the client collected a result for every submitted task
  // (uniqueness is I8's half of exactly-once).
  if (history.ha_run && history.run_error.empty() &&
      history.result_ids.size() != history.submitted) {
    violate("I10 exactly-once-across-promotion: client collected " +
            std::to_string(history.result_ids.size()) + " results for " +
            std::to_string(history.submitted) + " submitted tasks");
  }

  // I11 route-on-advertised (data runs): the locality router must never
  // have picked a task for an executor whose mirror did not advertise the
  // task's object at pick time — routing on evicted or never-advertised
  // entries is exactly the bug the digest generations exist to prevent.
  if (history.data_run && history.stale_route_errors != 0) {
    violate("I11 route-on-advertised: " +
            std::to_string(history.stale_route_errors) +
            " locality picks on unadvertised digest entries");
  }

  // I12 bounded deferral (data runs): with a configured wait bound, the
  // queue head must never have been passed over once older than the bound.
  if (history.data_run && history.max_locality_wait_s >= 0 &&
      history.locality_overwait != 0) {
    violate("I12 bounded deferral: " +
            std::to_string(history.locality_overwait) +
            " locality picks past max_locality_wait_s=" +
            std::to_string(history.max_locality_wait_s));
  }

  // Trace-replay invariants need the full history.
  if (!history.trace_complete) return violations;
  const std::vector<obs::TaskHistory> tasks =
      obs::group_by_task(history.events);

  // Trace agrees with the dispatcher's own accounting.
  if (tasks.size() != history.submitted) {
    violate("I2 exactly-one-submit: trace knows " +
            std::to_string(tasks.size()) + " tasks but the dispatcher " +
            "accepted " + std::to_string(history.submitted));
  }

  std::uint64_t acked_tasks = 0;
  for (const obs::TaskHistory& task : tasks) {
    check_task_ordering(task, b, violations);

    // I3 at-most-one-ack.
    const std::uint32_t acks = task.count(Stage::kAck);
    if (acks > 1) {
      violate("I3 at-most-one-ack: " + task_str(task.task) + " acked " +
              std::to_string(acks) + " times");
    }
    if (acks > 0) ++acked_tasks;

    // I5 retry budget: each dispatch attempt records one kGetWork. Failure-
    // detector requeues are recoveries, not replays, so the budget is only
    // checkable on runs without suspicions.
    if (history.max_retries >= 0 && history.suspicions == 0) {
      const std::uint32_t attempts = task.count(Stage::kGetWork);
      if (attempts >
          static_cast<std::uint32_t>(history.max_retries) + 1) {
        violate("I5 retry budget: " + task_str(task.task) + " dispatched " +
                std::to_string(attempts) + " times, budget " +
                std::to_string(history.max_retries + 1));
      }
    }
  }

  // I3 (aggregate): terminal acks and completions tell the same story. The
  // runners' engines never fail a task on their own, so every completion is
  // acked and every ack is a completion.
  if (acked_tasks != history.completed) {
    violate("I3 at-most-one-ack: " + std::to_string(acked_tasks) +
            " tasks acked but " + std::to_string(history.completed) +
            " completed");
  }

  // I8 (trace side): delivered result ids must name submitted tasks.
  {
    std::unordered_set<std::uint64_t> known;
    for (const obs::TaskHistory& task : tasks) known.insert(task.task);
    for (const std::uint64_t id : history.result_ids) {
      if (known.find(id) == known.end()) {
        violate("I8 unique delivery: client received unknown " +
                task_str(id));
      }
    }
  }

  return violations;
}

std::vector<std::string> check_conformance(const RunHistory& a,
                                           const RunHistory& b,
                                           bool require_all_complete) {
  std::vector<std::string> violations;
  const std::string pair = "[" + a.backend + " vs " + b.backend + "] ";

  if (!a.trace_complete || !b.trace_complete) {
    violations.push_back(pair + "conformance needs complete traces (" +
                         a.backend + ": " +
                         (a.trace_complete ? "complete" : "wrapped") + ", " +
                         b.backend + ": " +
                         (b.trace_complete ? "complete" : "wrapped") + ")");
    return violations;
  }

  // Same task set on both sides.
  std::set<std::uint64_t> tasks_a, tasks_b;
  for (const auto& t : obs::group_by_task(a.events)) tasks_a.insert(t.task);
  for (const auto& t : obs::group_by_task(b.events)) tasks_b.insert(t.task);
  if (tasks_a != tasks_b) {
    std::string only_a, only_b;
    for (const auto t : tasks_a) {
      if (tasks_b.find(t) == tasks_b.end()) only_a += " " + std::to_string(t);
    }
    for (const auto t : tasks_b) {
      if (tasks_a.find(t) == tasks_a.end()) only_b += " " + std::to_string(t);
    }
    violations.push_back(pair + "task sets differ: only in " + a.backend +
                         ":" + (only_a.empty() ? " -" : only_a) +
                         "; only in " + b.backend + ":" +
                         (only_b.empty() ? " -" : only_b));
  }

  if (a.submitted != b.submitted) {
    violations.push_back(pair + "submitted " + std::to_string(a.submitted) +
                         " vs " + std::to_string(b.submitted));
  }

  if (require_all_complete) {
    for (const RunHistory* h : {&a, &b}) {
      if (h->completed != h->submitted || h->failed != 0) {
        violations.push_back(pair + h->backend + " did not fully complete: " +
                             std::to_string(h->completed) + "/" +
                             std::to_string(h->submitted) + " completed, " +
                             std::to_string(h->failed) + " failed");
      }
    }
    // With full completion demanded, the per-task ack discipline must be
    // identical: exactly one terminal ack per task on both sides.
    for (const RunHistory* h : {&a, &b}) {
      for (const auto& task : obs::group_by_task(h->events)) {
        if (task.count(obs::Stage::kAck) != 1 ||
            task.count(obs::Stage::kExec) < 1) {
          violations.push_back(pair + h->backend + " " + task_str(task.task) +
                               ": expected >=1 kExec and exactly 1 kAck, got " +
                               std::to_string(task.count(obs::Stage::kExec)) +
                               "/" + std::to_string(task.count(obs::Stage::kAck)));
        }
      }
    }
  }

  return violations;
}

std::string join_violations(const std::vector<std::string>& violations) {
  std::string out;
  for (const auto& v : violations) {
    out += "  - " + v + "\n";
  }
  return out;
}

}  // namespace falkon::testkit
