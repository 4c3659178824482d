#!/bin/sh
# CI entry point: build and test the two configurations that gate a change.
#
#   1. Release         — the configuration the benchmarks run in;
#   2. ASan + UBSan    — memory errors and UB across the whole test suite.
#
# An optional third pass (`scripts/ci.sh tsan`) builds with ThreadSanitizer
# and runs the concurrency-heavy suites (obs registry/tracer, dispatcher,
# executor, net reactor/TCP, stress, chaos) — slower, so it is opt-in.
#
# An optional benchmark pass (`scripts/ci.sh bench`) runs the dispatch-path
# benchmarks and gates on the committed baselines (scripts/bench.sh) —
# opt-in because throughput numbers only mean something on a quiet host.
#
# The chaos stage re-runs the fault-injection soak (test_chaos, fixed seeds
# — see docs/FAULTS.md) under each sanitizer explicitly, so a recovery-path
# regression fails CI with the soak's own diagnostics even when the rest of
# the suite passes.
#
# The prop stage re-runs the seeded property suites (ctest -L prop, see
# docs/TESTING.md) at a raised fixed budget, so every CI run scans more
# workloads than a default local ctest while staying reproducible.
#
# The ha stage (ctest -L ha, see docs/HA.md) does the same for the
# durability/failover stack — WAL torn-tail fuzzing, standby takeover, the
# primary-kill chaos case, the two-standby election/split-brain regression
# and the multi-standby double-failover soak (kill the primary, then kill
# the winning standby) — under ASan+UBSan, and again under TSan in the
# opt-in pass (the WAL append path, the replication tail thread, the
# election exchange and the promotion handoff are exactly the cross-thread
# sharing TSan is for).
#
# The data stage (ctest -L data, see docs/DATA.md) re-runs the
# data-diffusion stack — wire fuzz for the digest/fetch/evict messages and
# the end-to-end TCP locality/P2P-fetch suite — under ASan+UBSan, and the
# TCP suite again under TSan in the opt-in pass (digest application races
# the router's holder index; evictions race in-flight routing decisions).
#
# The benchmark smoke stage builds the repository benchmark (perfbench/,
# which compiles the falkon libraries from src/ into .bench_build/ on its
# own), runs its helpers' self-test, then each BENCHMARK.json workload for
# 3 s untraced. A signature perfbench compiles against cannot drift unseen,
# and the stage fails unless each run's verdict (the last line it prints)
# reads "correct": true with "failed": 0. No throughput is gated here.
#
# The warning stage builds the production code — the src/ libraries and
# the tools/ executables — in its own Release tree with -Werror, so a new
# warning there fails CI. Tests and benches stay out of it: at -O3, GCC 12
# reports false-positive -Wnonnull warnings from std::vector::insert
# inlined into test_wire's framing fuzz.
#
# The protocol doc stage checks that docs/PROTOCOL.md names every message
# the wire carries: each MsgType enumerator of src/wire/message.h by its
# message name (kError is ErrorReply). A `FooRequest/Reply` or `Foo/Reply`
# row counts for `FooReply`. The stage fails naming each message missing.
#
# An optional coverage pass (`scripts/ci.sh coverage`) builds with gcov
# instrumentation, runs the tier-1 + prop suites, and reports line/branch
# coverage via gcovr when the tool is installed — informational only,
# never a gate (and skipped gracefully where gcovr is absent).
set -eu
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"

# run_filtered BINARY FILTER: run a gtest binary under a filter, failing
# the stage if any colon-separated pattern in FILTER selects no test. The
# installed gtest exits 0 when a filter matches nothing, so a renamed test
# would otherwise drop out of its stage silently.
run_filtered() {
  printf '%s\n' "$2" | tr ':' '\n' | while IFS= read -r pattern; do
    if ! "$1" --gtest_filter="$pattern" --gtest_list_tests | grep -q '^  '; then
      echo "FAIL: gtest filter '$pattern' selects no test in $1"
      exit 1
    fi
  done || return 1
  "$1" --gtest_filter="$2"
}

echo "== Protocol doc names every wire message =="
names="$(sed -n '/^enum class MsgType/,/^};/s/^ *k\([A-Za-z0-9]*\) = [0-9]*,$/\1/p' \
         src/wire/message.h)"
if [ -z "$names" ]; then
  echo "FAIL: no MsgType enumerators found in src/wire/message.h"
  exit 1
fi
missing=""
for name in $names; do
  [ "$name" = Error ] && name=ErrorReply
  grep -qw "$name" docs/PROTOCOL.md && continue
  case "$name" in
    *Reply)
      base="${name%Reply}"
      grep -qF -e "${base}Request/Reply" -e "${base}/Reply" docs/PROTOCOL.md &&
        continue ;;
  esac
  missing="$missing $name"
done
if [ -n "$missing" ]; then
  echo "FAIL: docs/PROTOCOL.md does not name:$missing"
  exit 1
fi
echo "docs/PROTOCOL.md names all $(echo $names | wc -w) wire messages"

echo "== Production code builds without warnings (-Werror) =="
cmake -B build-ci-werror -S . -DCMAKE_BUILD_TYPE=Release \
      -DCMAKE_CXX_FLAGS=-Werror >/dev/null
cmake --build build-ci-werror -j "$JOBS" --target \
      falkon_common falkon_obs falkon_fault falkon_wire falkon_net \
      falkon_lrm falkon_iomodel falkon_core falkon_ha falkon_sim \
      falkon_workflow falkon_testkit \
      falkon-dispatcher falkon-executor falkon-submit falkon-trace falkon-wal

echo "== Release build + ctest =="
cmake -B build-ci-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-ci-release -j "$JOBS"
ctest --test-dir build-ci-release --output-on-failure -j "$JOBS"

echo "== Property suites (raised fixed budget) =="
FALKON_PROP_CASES=400 \
  ctest --test-dir build-ci-release --output-on-failure -L prop

echo "== ASan+UBSan build + ctest =="
cmake -B build-ci-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DFALKON_ASAN=ON >/dev/null
cmake --build build-ci-asan -j "$JOBS"
ctest --test-dir build-ci-asan --output-on-failure -j "$JOBS"

echo "== Chaos soak under ASan+UBSan =="
ctest --test-dir build-ci-asan --output-on-failure -R 'test_chaos|test_fault'

echo "== Multi-standby double-failover chaos variant under ASan+UBSan =="
# Run the election chaos cases by themselves too: a split-brain or a
# stalled second election fails this stage with only its own output,
# instead of being buried in the full soak log.
run_filtered build-ci-asan/tests/test_chaos 'ChaosHa.*'

echo "== HA durability/failover suite under ASan+UBSan =="
ctest --test-dir build-ci-asan --output-on-failure -L ha

echo "== Data-diffusion suite under ASan+UBSan =="
# ctest -L data (see docs/DATA.md): digest advertising over heartbeats,
# good-cache-compute routing, peer-to-peer fetch and the LRU evict path —
# the suites to re-run by themselves when touching the data plane.
ctest --test-dir build-ci-asan --output-on-failure -L data

echo "== Repository benchmark: build, self-test and smoke =="
python3 perfbench/run.py --self-test
for workload in burst paced durable; do
  verdict="$(python3 perfbench/run.py --workload "$workload" --seconds 3 \
             --trace 0 | tail -n 1)"
  if ! printf '%s\n' "$verdict" | python3 -c '
import json, sys
verdict = json.loads(sys.stdin.read())
sys.exit(0 if verdict.get("correct") is True and verdict.get("failed") == 0
         else 1)'; then
    echo "FAIL: perfbench $workload verdict: $verdict"
    exit 1
  fi
  echo "perfbench $workload: correct, 0 failed"
done

if [ "${1:-}" = "bench" ]; then
  echo "== Benchmark gate =="
  scripts/bench.sh
fi

if [ "${1:-}" = "coverage" ]; then
  echo "== Coverage build + tier-1 and prop suites =="
  cmake -B build-ci-cov -S . -DCMAKE_BUILD_TYPE=Debug \
        -DFALKON_COVERAGE=ON >/dev/null
  cmake --build build-ci-cov -j "$JOBS"
  ctest --test-dir build-ci-cov --output-on-failure -j "$JOBS" \
        -L 'unit|integration'
  ctest --test-dir build-ci-cov --output-on-failure -L prop
  if command -v gcovr >/dev/null 2>&1; then
    echo "== Coverage report (informational, no gate) =="
    gcovr --root . --filter 'src/' build-ci-cov \
          --print-summary --txt build-ci-cov/coverage.txt || true
    echo "full report: build-ci-cov/coverage.txt"
  else
    echo "gcovr not installed; skipping coverage report"
  fi
fi

if [ "${1:-}" = "tsan" ]; then
  echo "== TSan build + concurrency suites =="
  cmake -B build-ci-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DFALKON_TSAN=ON >/dev/null
  cmake --build build-ci-tsan -j "$JOBS"
  # test_net/test_tcp cover the reactor: the loop thread owning every
  # connection while producers append to outboxes and handlers run on the
  # pool — exactly the sharing TSan is for. (test_net$ keeps the
  # 10k-connection test_net_soak out of the TSan pass: 20k fds at TSan
  # slowdown blows the time budget without adding new interleavings.)
  ctest --test-dir build-ci-tsan --output-on-failure -j "$JOBS" \
        -R 'test_obs|test_dispatcher|test_executor|test_stress|test_net$|test_tcp|test_wal|test_ha|test_dataaware'
  echo "== Reactor suites under TSan =="
  # The loop's cross-thread paths alone first, so a race report names them
  # (foreign-thread flush requests, the buffer pool shared with producers,
  # watermark pauses, deadline-list timers) instead of being buried in the
  # suite.
  run_filtered build-ci-tsan/tests/test_net 'Reactor.*:Rpc.WatermarkBackpressureIsolatedPerConnection:Rpc.AcceptBackoffOnFdExhaustionThenRecovers:Rpc.DelayedReplyHoldsItsConnectionButNotTheLoop:RpcPush.PushFromForeignThreadLandsOnOwningLoop'
  echo "== Election and split-brain regression under TSan =="
  # The election path is all cross-thread: tail threads answering
  # ElectionPing while the failover timer promotes, two standbys racing
  # for the shared-directory fence. Run those cases alone first so a race
  # report names the election, then the full chaos soak.
  run_filtered build-ci-tsan/tests/test_ha 'HaElection.*:HaSoak.*'
  run_filtered build-ci-tsan/tests/test_chaos 'ChaosHa.*'
  echo "== Chaos soak under TSan =="
  ctest --test-dir build-ci-tsan --output-on-failure -R 'test_chaos|test_fault'
fi

echo "CI OK"
