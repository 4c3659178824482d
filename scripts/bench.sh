#!/bin/sh
# Dispatch-path benchmark gate: build Release, run the Fig. 3 / Fig. 5
# benches (they write BENCH_*.json metric snapshots into the repo root),
# and compare every `bench.*` throughput gauge against the committed
# baselines in bench/baselines/.
#
# Throughput gauges are lower-bounded: a run must reach at least
# (1 - BENCH_TOLERANCE) of its baseline. Latency and footprint gauges
# (names ending in `_ms` or `_kb`, e.g. bench.micro.ha.failover_downtime_ms
# and bench.micro.connscale.rss_per_conn_kb) are upper-bounded instead: a
# run must stay below (1 + BENCH_TOLERANCE) of its baseline.
# The default tolerance of 0.5 is deliberately loose — these benchmarks run
# on whatever noisy host CI got, and the regressions worth gating on (an
# accidentally serialised RPC path, a lock back in the hot loop, a
# synchronous fsync back under the dispatcher locks) move the numbers by
# multiples, not percents.
#
#   scripts/bench.sh            run + compare against baselines
#   scripts/bench.sh --update   run + rewrite the baselines
set -eu
cd "$(dirname "$0")/.."

TOL="${BENCH_TOLERANCE:-0.5}"
# Separate, tighter tolerance for the fig3 shape check: the TCP curve must
# not collapse at scale (each 2^k point >= (1 - MONO_TOL) of the 2^(k-1)
# point), independent of how the absolute baseline numbers drift.
MONO_TOL="${BENCH_MONO_TOLERANCE:-0.20}"
JOBS="$(nproc 2>/dev/null || echo 4)"
BENCHES="bench_fig3_throughput bench_fig4_data_throughput bench_fig5_bundling bench_ha bench_micro"
SNAPSHOTS="BENCH_fig3_throughput.json BENCH_fig4.json BENCH_fig5_bundling.json BENCH_ha.json BENCH_micro.json"

echo "== Release build (bench) =="
cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
# shellcheck disable=SC2086
cmake --build build-bench -j "$JOBS" --target $BENCHES >/dev/null

for bench in $BENCHES; do
  echo "== $bench =="
  if [ "$bench" = "bench_micro" ]; then
    # Only the connection-scale probe gates (per-connection RSS ceiling);
    # the full micro suite stays a local tool. 1024 connections needs a
    # raised fd ulimit, so the gated run stops at the paper-scale 256 point.
    "./build-bench/bench/$bench" --benchmark_filter='BM_ConnectionScale/(16|256)/'
  else
    "./build-bench/bench/$bench"
  fi
done

if [ "${1:-}" = "--update" ]; then
  mkdir -p bench/baselines
  # shellcheck disable=SC2086
  cp $SNAPSHOTS bench/baselines/
  echo "baselines updated: bench/baselines/"
  exit 0
fi

# Pull "bench.*" gauges (name value per line) out of a metrics snapshot.
# The fig3 TCP curve now covers the paper's full x-axis (8..256 executors),
# but only the 1/4-executor points gate absolutely: the large-N columns
# (including the stage_share breakdown gauges, which carry an extra
# `stage=` label) are informational here — their *shape* is gated by the
# monotonicity check below instead. Of the connection-scale probe only the
# per-connection RSS figure gates against its baseline; threads/fds/rss_mb/
# notify_us are process-wide totals too host-sensitive to fail CI on (the
# fds *difference* between two fleet sizes is checked exactly below).
extract() {
  sed -n 's/^ *"\(bench\.[^"]*\)": \([-0-9.eE+]*\),\{0,1\}$/\1 \2/p' "$1" |
    grep -Ev '^bench\.fig3\.[a-z_]+\{executors=(8|16|32|64|128|256)[,}]' |
    grep -Ev '^bench\.micro\.connscale\.(threads|fds|rss_mb|notify_us)\{' || true
}

status=0
for name in $SNAPSHOTS; do
  base="bench/baselines/$name"
  if [ ! -f "$base" ]; then
    echo "missing baseline $base (run scripts/bench.sh --update)"
    status=1
    continue
  fi
  echo "== compare $name (tolerance $TOL) =="
  extract "$base" >"build-bench/base.$name.txt"
  extract "$name" >"build-bench/cur.$name.txt"
  if ! awk -v tol="$TOL" '
      NR == FNR { base[$1] = $2; next }
      ($1 in base) && base[$1] > 0 {
        if ($1 ~ /_(ms|kb)(\{|$)/) {
          ceil = (1 + tol) * base[$1]
          if ($2 > ceil) {
            printf "FAIL %s: %.0f > ceiling %.0f (baseline %.0f)\n", $1, $2, ceil, base[$1]
            bad = 1
          } else {
            printf "ok   %s: %.0f (baseline %.0f)\n", $1, $2, base[$1]
          }
        } else {
          floor = (1 - tol) * base[$1]
          if ($2 < floor) {
            printf "FAIL %s: %.0f < floor %.0f (baseline %.0f)\n", $1, $2, floor, base[$1]
            bad = 1
          } else {
            printf "ok   %s: %.0f (baseline %.0f)\n", $1, $2, base[$1]
          }
        }
        seen[$1] = 1
      }
      END {
        for (k in base) if (!(k in seen)) {
          printf "FAIL %s: present in baseline but missing from run\n", k
          bad = 1
        }
        exit bad
      }' "build-bench/base.$name.txt" "build-bench/cur.$name.txt"; then
    status=1
  fi
done

# Shape gate on the fig3 TCP curve (paper fig. 3: throughput must hold up
# as the executor count doubles). Each doubling of the executor count may
# cost at most MONO_TOL of throughput; where the bench skips powers of two
# (16 -> 64 is two doublings) the allowance compounds per doubling — a
# curve that collapses at 64+ executors fails even if the small-N absolute
# gates pass.
echo "== fig3 TCP curve monotonicity (tolerance $MONO_TOL per doubling) =="
sed -n 's/^ *"bench\.fig3\.tcp_tasks_per_s{executors=\([0-9]*\)}": \([-0-9.eE+]*\),\{0,1\}$/\1 \2/p' \
    BENCH_fig3_throughput.json | sort -n >"build-bench/fig3_curve.txt"
if ! awk -v tol="$MONO_TOL" '
    {
      if (NR > 1) {
        doublings = log($1 / prev_n) / log(2)
        floor_v = prev_v * exp(doublings * log(1 - tol))
        if ($2 < floor_v) {
          printf "FAIL executors=%s: %.0f < floor %.0f (executors=%s point %.0f, %.1f doublings)\n",
                 $1, $2, floor_v, prev_n, prev_v, doublings
          bad = 1
        } else {
          printf "ok   executors=%s: %.0f tasks/s (floor %.0f)\n", $1, $2, floor_v
        }
      } else {
        printf "ok   executors=%s: %.0f tasks/s\n", $1, $2
      }
      prev_n = $1; prev_v = $2
    }
    END { if (NR < 2) { print "FAIL: fewer than 2 fig3 TCP points"; bad = 1 }
          exit bad }' "build-bench/fig3_curve.txt"; then
  status=1
fi

# Per-connection footprint scaling: the 256-connection RSS figure must stay
# within 2x of the 16-connection figure (section 3.2's "light-weight"
# claim — per-connection cost must not grow with the fleet).
echo "== per-connection RSS scaling (256 vs 16) =="
if ! awk '
    /"bench\.micro\.connscale\.rss_per_conn_kb\{executors=16\}"/ { r16 = $2 + 0 }
    /"bench\.micro\.connscale\.rss_per_conn_kb\{executors=256\}"/ { r256 = $2 + 0 }
    END {
      if (r16 <= 0 || r256 <= 0) { print "FAIL: rss_per_conn_kb gauges missing"; exit 1 }
      if (r256 > 2 * r16) {
        printf "FAIL rss_per_conn_kb: %.1f at 256 conns > 2x the %.1f at 16\n", r256, r16
        exit 1
      }
      printf "ok   rss_per_conn_kb: %.1f at 256 conns vs %.1f at 16\n", r256, r16
    }' BENCH_micro.json; then
  status=1
fi

# One connection per executor (docs/PROTOCOL.md): 240 more probe executors
# must cost exactly 2 x 240 more fds — each connection's reactor-owned end
# plus its raw client socket, all in the bench process. A difference of
# counts, so host noise cannot trip it; the raw totals stay ungated.
echo "== connscale fds per executor (256 vs 16) =="
if ! awk '
    /"bench\.micro\.connscale\.fds\{executors=16\}"/ { f16 = $2 + 0 }
    /"bench\.micro\.connscale\.fds\{executors=256\}"/ { f256 = $2 + 0 }
    END {
      if (f16 <= 0 || f256 <= 0) { print "FAIL: connscale fds gauges missing"; exit 1 }
      if (f256 - f16 != 2 * 240) {
        printf "FAIL connscale fds: %d at 256 executors - %d at 16 = %d, want %d\n", f256, f16, f256 - f16, 2 * 240
        exit 1
      }
      printf "ok   connscale fds: %d at 256 executors - %d at 16 = %d\n", f256, f16, f256 - f16
    }' BENCH_micro.json; then
  status=1
fi

# deliver_result stage-share ceiling (docs/PERFORMANCE.md): batched result
# routing + push-mode streaming attack the {8,9} leg, so the share of task
# wall-clock spent between exec end and client route at the 256-executor
# tail must not creep back up. Gated against the committed baseline share
# with a relative allowance — shares are ratios of the same traced run, so
# unlike absolute throughput they are host-insensitive.
SHARE_TOL="${BENCH_SHARE_TOLERANCE:-0.25}"
echo "== fig3 deliver_result stage-share ceiling at 256 executors (tolerance $SHARE_TOL) =="
if ! base_share=$(sed -n 's/^ *"bench\.fig3\.stage_share{executors=256,stage=deliver_result}": \([-0-9.eE+]*\),\{0,1\}$/\1/p' \
      bench/baselines/BENCH_fig3_throughput.json) || [ -z "$base_share" ]; then
  echo "FAIL: deliver_result stage-share missing from baseline"
  status=1
else
  cur_share=$(sed -n 's/^ *"bench\.fig3\.stage_share{executors=256,stage=deliver_result}": \([-0-9.eE+]*\),\{0,1\}$/\1/p' \
      BENCH_fig3_throughput.json)
  if [ -z "$cur_share" ]; then
    echo "FAIL: deliver_result stage-share missing from run"
    status=1
  elif ! awk -v cur="$cur_share" -v base="$base_share" -v tol="$SHARE_TOL" '
      BEGIN {
        ceil = base * (1 + tol)
        if (cur > ceil) {
          printf "FAIL deliver_result share: %.3f > ceiling %.3f (baseline %.3f)\n", cur, ceil, base
          exit 1
        }
        printf "ok   deliver_result share: %.3f (baseline %.3f, ceiling %.3f)\n", cur, base, ceil
      }'; then
    status=1
  fi
fi

# Data-diffusion locality gate (docs/DATA.md): with warm caches and
# good-cache-compute routing the TCP fleet must sustain at least 3x the
# all-miss shared-FS series — the ratio is host-independent (both series
# run on the same machine in the same process), so it gates hard where the
# absolute floors above stay loose.
echo "== fig4 data-diffusion warm/miss ratio (>= 3x) =="
if ! awk '
    /"bench\.fig4\.tcp_tasks_per_s\{cache=miss,executors=8\}"/ { miss = $2 + 0 }
    /"bench\.fig4\.tcp_tasks_per_s\{cache=warm,executors=8\}"/ { warm = $2 + 0 }
    END {
      if (miss <= 0 || warm <= 0) { print "FAIL: fig4 tcp gauges missing"; exit 1 }
      if (warm < 3 * miss) {
        printf "FAIL warm vs miss: %.0f tasks/s < 3x the all-miss %.0f\n", warm, miss
        exit 1
      }
      printf "ok   warm vs miss: %.0f tasks/s vs %.0f (%.1fx)\n", warm, miss, warm / miss
    }' BENCH_fig4.json; then
  status=1
fi

if [ "$status" -ne 0 ]; then
  echo "BENCH FAILED"
  exit 1
fi
echo "BENCH OK"
