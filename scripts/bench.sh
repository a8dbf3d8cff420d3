#!/usr/bin/env bash
# Perf trajectories: runs the criterion micro-benches (broker,
# publish_path, publisher_deps, versionstore, wire) plus the end-to-end
# throughput bins and writes the JSON trajectories every future PR
# compares against (see EXPERIMENTS.md):
#
#   BENCH_publish_path.json        — broker deliver side (fanout bin, PR 2)
#   BENCH_publisher_path.json      — publisher write side (publisher bin, PR 3)
#   BENCH_visibility_latency.json  — Fig. 10 staged visibility latency per
#                                    delivery mode (visibility bin, PR 5),
#                                    including a full telemetry snapshot
#   BENCH_recovery.json            — durable-broker recovery time vs WAL
#                                    tail length, plus the checkpoint-
#                                    interval sweep (recovery bin, PR 6)
#   BENCH_scaling.json             — delivery-plane worker sweep: partitioned
#                                    queues + work stealing vs the single-lock
#                                    baseline at 4/16/64/256 workers
#                                    (scaling bin, PR 7)
#   BENCH_durable_scaling.json     — durable delivery worker sweep: group-commit
#                                    WAL vs memory-only at 4/16/64 workers
#                                    (durable_scaling bin, PR 8)
#   BENCH_bootstrap_stall.json     — live delivery throughput with vs without
#                                    a concurrent watermark-interleaved
#                                    bootstrap, plus residency p99 and the
#                                    longest apply gap under the copy
#                                    (bootstrap_stall bin, PR 9)
#   BENCH_convergence.json         — multi-writer mesh: two-writer conflict-
#                                    rate sweep over shrinking shared pools,
#                                    merge-resolver arm, and the single-writer
#                                    plain-vs-bidirectional overhead A/B
#                                    (convergence bin, PR 10)
#
# Usage:
#   scripts/bench.sh                           # full run, writes all JSONs
#   scripts/bench.sh --save-baseline           # writes the fanout baseline
#   scripts/bench.sh --save-publisher-baseline # writes the publisher baseline
#   scripts/bench.sh --smoke                   # all bins, tiny counts,
#                                              # no JSON written (tier-1 smoke)
#
# Non-gating: results are recorded, not asserted, except that the smoke
# run must complete (the hot paths must not deadlock or lose deliveries).
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="full"
case "${1:-}" in
  --save-baseline) MODE="baseline" ;;
  --save-publisher-baseline) MODE="publisher-baseline" ;;
  --smoke) MODE="smoke" ;;
  "") ;;
  *) echo "usage: scripts/bench.sh [--save-baseline|--save-publisher-baseline|--smoke]" >&2; exit 2 ;;
esac

OUT="BENCH_publish_path.json"
BASELINE="BENCH_publish_path.baseline.json"
PUB_OUT="BENCH_publisher_path.json"
PUB_BASELINE="BENCH_publisher_path.baseline.json"
VIS_OUT="BENCH_visibility_latency.json"
REC_OUT="BENCH_recovery.json"
SCALE_OUT="BENCH_scaling.json"
DUR_OUT="BENCH_durable_scaling.json"
STALL_OUT="BENCH_bootstrap_stall.json"
CONV_OUT="BENCH_convergence.json"

if [[ "$MODE" == "smoke" ]]; then
  FANOUT_MESSAGES="${FANOUT_MESSAGES:-500}" \
    cargo run --quiet --release -p synapse-bench --bin fanout_throughput
  PUBLISHER_MESSAGES="${PUBLISHER_MESSAGES:-200}" \
    cargo run --quiet --release -p synapse-bench --bin publisher_throughput
  VISIBILITY_MESSAGES="${VISIBILITY_MESSAGES:-100}" \
    cargo run --quiet --release -p synapse-bench --bin visibility_latency > /dev/null
  RECOVERY_TAILS="${RECOVERY_TAILS:-64,256}" \
    RECOVERY_TOTAL="${RECOVERY_TOTAL:-256}" \
    RECOVERY_INTERVALS="${RECOVERY_INTERVALS:-0,64}" \
    cargo run --quiet --release -p synapse-bench --bin recovery_trajectory > /dev/null
  cargo run --quiet --release -p synapse-bench --bin scaling_sweep -- --smoke > /dev/null
  cargo run --quiet --release -p synapse-bench --bin durable_scaling -- --smoke > /dev/null
  cargo run --quiet --release -p synapse-bench --bin bootstrap_stall -- --smoke > /dev/null
  cargo run --quiet --release -p synapse-bench --bin convergence -- --smoke > /dev/null
  echo "bench smoke: OK"
  exit 0
fi

GIT_REV="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
UTC="$(date -u +%Y-%m-%dT%H:%M:%SZ)"

CRIT_LOG="$(mktemp)"
FANOUT_LOG="$(mktemp)"
PUB_LOG="$(mktemp)"
VIS_LOG="$(mktemp)"
SCALE_LOG="$(mktemp)"
DUR_LOG="$(mktemp)"
STALL_LOG="$(mktemp)"
CONV_LOG="$(mktemp)"
trap 'rm -f "$CRIT_LOG" "$FANOUT_LOG" "$PUB_LOG" "$VIS_LOG" "$SCALE_LOG" "$DUR_LOG" "$STALL_LOG" "$CONV_LOG"' EXIT

# Criterion lines: "<name>   <ns> ns/iter"; bin lines:
# "<scenario> <value> <unit>_per_sec".
criterion_json() {
  awk '/ns\/iter/ { printf "%s    \"%s\": %s", sep, $1, $2; sep=",\n" } END { print "" }' "$CRIT_LOG"
}
rates_json() {
  awk '/_per_sec/ { printf "%s    \"%s\": %s", sep, $1, $2; sep=",\n" } END { print "" }' "$1"
}

# --- publisher write-path trajectory (PR 3) --------------------------------

run_publisher_bin() {
  cargo run --quiet --release -p synapse-bench --bin publisher_throughput | tee "$PUB_LOG"
}

write_publisher_json() {
  local target="$1"
  {
    echo "{"
    echo "  \"schema\": \"synapse-bench/v1\","
    echo "  \"generated_by\": \"scripts/bench.sh\","
    echo "  \"git_rev\": \"$GIT_REV\","
    echo "  \"utc\": \"$UTC\","
    echo "  \"publisher_writes_per_sec\": {"
    rates_json "$PUB_LOG"
    if [[ "$target" == "$PUB_OUT" && -f "$PUB_BASELINE" ]]; then
      echo "  },"
      # Speedup of the current 1000-dep scenario over the pre-change
      # baseline — the ISSUE 3 acceptance number.
      CUR="$(awk '/^publisher\/write_1000deps / { print $2+0; exit }' "$PUB_LOG")"
      BASE="$(awk -F'[:,]' '/publisher\/write_1000deps/ { gsub(/[ "]/,"",$2); print $2+0; exit }' "$PUB_BASELINE")"
      SPEEDUP="$(awk -v c="$CUR" -v b="$BASE" 'BEGIN { if (b > 0) printf "%.2f", c/b; else print "null" }')"
      echo "  \"baseline\": $(cat "$PUB_BASELINE"),"
      echo "  \"publisher_1000dep_speedup_vs_baseline\": $SPEEDUP"
    else
      echo "  }"
    fi
    echo "}"
  } > "$target"
  echo "bench: wrote $target"
}

if [[ "$MODE" == "publisher-baseline" ]]; then
  run_publisher_bin
  write_publisher_json "$PUB_BASELINE"
  exit 0
fi

# --- Fig. 10 visibility-latency trajectory (PR 5) --------------------------

write_visibility_json() {
  # The bin already emits well-formed JSON (per-mode per-stage p50/p99
  # plus a full telemetry snapshot); wrap it with provenance metadata.
  cargo run --quiet --release -p synapse-bench --bin visibility_latency > "$VIS_LOG"
  {
    echo "{"
    echo "  \"schema\": \"synapse-bench/v1\","
    echo "  \"generated_by\": \"scripts/bench.sh\","
    echo "  \"git_rev\": \"$GIT_REV\","
    echo "  \"utc\": \"$UTC\","
    echo "  \"visibility_latency\": $(cat "$VIS_LOG")"
    echo "}"
  } > "$VIS_OUT"
  echo "bench: wrote $VIS_OUT"
}

# --- recovery-time trajectory (PR 6) ---------------------------------------

write_recovery_json() {
  # The bin already emits well-formed JSON (WAL-tail and checkpoint
  # sweeps); wrap it with provenance metadata.
  local rec_log
  rec_log="$(mktemp)"
  cargo run --quiet --release -p synapse-bench --bin recovery_trajectory > "$rec_log"
  {
    echo "{"
    echo "  \"schema\": \"synapse-bench/v1\","
    echo "  \"generated_by\": \"scripts/bench.sh\","
    echo "  \"git_rev\": \"$GIT_REV\","
    echo "  \"utc\": \"$UTC\","
    echo "  \"recovery\": $(cat "$rec_log")"
    echo "}"
  } > "$REC_OUT"
  rm -f "$rec_log"
  echo "bench: wrote $REC_OUT"
}

# --- delivery-plane worker-sweep trajectory (PR 7) -------------------------

write_scaling_json() {
  # The bin prints one "scaling/<arm>_<W>w <rate> msgs_per_sec" line per
  # run; the per-worker-count speedups (partitioned over the single-lock
  # baseline, the ISSUE 7 acceptance number at 64 workers) are computed
  # here from those lines.
  cargo run --quiet --release -p synapse-bench --bin scaling_sweep | tee "$SCALE_LOG"
  {
    echo "{"
    echo "  \"schema\": \"synapse-bench/v1\","
    echo "  \"generated_by\": \"scripts/bench.sh\","
    echo "  \"git_rev\": \"$GIT_REV\","
    echo "  \"utc\": \"$UTC\","
    echo "  \"delivery_msgs_per_sec\": {"
    rates_json "$SCALE_LOG"
    echo "  },"
    echo "  \"partitioned_speedup_vs_single_lock\": {"
    awk '
      /^scaling\/baseline_/    { w=$1; sub(/^scaling\/baseline_/, "", w); order[++n]=w; base[w]=$2+0 }
      /^scaling\/partitioned_/ { w=$1; sub(/^scaling\/partitioned_/, "", w); part[w]=$2+0 }
      END {
        for (i = 1; i <= n; i++) {
          w = order[i]
          if (base[w] > 0 && w in part) {
            printf "%s    \"%s\": %.2f", sep, w, part[w]/base[w]; sep=",\n"
          }
        }
        print ""
      }' "$SCALE_LOG"
    echo "  }"
    echo "}"
  } > "$SCALE_OUT"
  echo "bench: wrote $SCALE_OUT"
}

# --- durable delivery worker-sweep trajectory (PR 8) -----------------------

write_durable_scaling_json() {
  # The bin prints one "durable/<arm>_<W>w <rate> msgs_per_sec" line per
  # arm and worker count. The acceptance number — how far durable
  # delivery sits from memory-only — is computed here per worker count
  # from those lines.
  cargo run --quiet --release -p synapse-bench --bin durable_scaling | tee "$DUR_LOG"
  {
    echo "{"
    echo "  \"schema\": \"synapse-bench/v1\","
    echo "  \"generated_by\": \"scripts/bench.sh\","
    echo "  \"git_rev\": \"$GIT_REV\","
    echo "  \"utc\": \"$UTC\","
    echo "  \"durable_msgs_per_sec\": {"
    rates_json "$DUR_LOG"
    echo "  },"
    echo "  \"memory_over_group\": {"
    awk '
      /^durable\/group_/  { w=$1; sub(/^durable\/group_/, "", w); order[++n]=w; grp[w]=$2+0 }
      /^durable\/memory_/ { w=$1; sub(/^durable\/memory_/, "", w); mem[w]=$2+0 }
      END {
        for (i = 1; i <= n; i++) {
          w = order[i]
          if (grp[w] > 0 && w in mem) {
            printf "%s    \"%s\": %.2f", sep, w, mem[w]/grp[w]; sep=",\n"
          }
        }
        print ""
      }' "$DUR_LOG"
    echo "  }"
    echo "}"
  } > "$DUR_OUT"
  echo "bench: wrote $DUR_OUT"
}

# --- bootstrap stall-elimination trajectory (PR 9) -------------------------

write_bootstrap_stall_json() {
  # The bin prints "bootstrap_stall/<arm> <rate> msgs_per_sec" for the
  # live-only and live-during-bootstrap arms plus "<metric> <value> ns"
  # lines (residency p99s, longest apply gap under the copy). The ISSUE 9
  # acceptance story — live delivery never pauses while a copy runs — is
  # carried by the gap and retention numbers computed here.
  cargo run --quiet --release -p synapse-bench --bin bootstrap_stall | tee "$STALL_LOG"
  {
    echo "{"
    echo "  \"schema\": \"synapse-bench/v1\","
    echo "  \"generated_by\": \"scripts/bench.sh\","
    echo "  \"git_rev\": \"$GIT_REV\","
    echo "  \"utc\": \"$UTC\","
    echo "  \"live_msgs_per_sec\": {"
    rates_json "$STALL_LOG"
    echo "  },"
    echo "  \"nanos\": {"
    awk '/ ns$/ { name=$1; sub(/^bootstrap_stall\//, "", name);
                  printf "%s    \"%s\": %s", sep, name, $2; sep=",\n" }
         END { print "" }' "$STALL_LOG"
    echo "  },"
    awk '
      /^bootstrap_stall\/live_only /             { only=$2+0 }
      /^bootstrap_stall\/live_during_bootstrap / { during=$2+0 }
      END {
        if (only > 0) printf "  \"live_retention_under_bootstrap\": %.2f\n", during/only
        else          print  "  \"live_retention_under_bootstrap\": null"
      }' "$STALL_LOG"
    echo "}"
  } > "$STALL_OUT"
  echo "bench: wrote $STALL_OUT"
}

# --- multi-writer convergence trajectory (PR 10) ----------------------------

write_convergence_json() {
  # The bin prints "convergence/<arm> <rate> msgs_per_sec" lines plus
  # "convergence/conflicts_<arm> <count> conflicts" lines. The ISSUE 10
  # acceptance number — the single-writer overhead of turning the vector
  # plane on (bidirectional over plain) — is computed here.
  cargo run --quiet --release -p synapse-bench --bin convergence | tee "$CONV_LOG"
  {
    echo "{"
    echo "  \"schema\": \"synapse-bench/v1\","
    echo "  \"generated_by\": \"scripts/bench.sh\","
    echo "  \"git_rev\": \"$GIT_REV\","
    echo "  \"utc\": \"$UTC\","
    echo "  \"msgs_per_sec\": {"
    rates_json "$CONV_LOG"
    echo "  },"
    echo "  \"conflicts_detected\": {"
    awk '/ conflicts$/ { name=$1; sub(/^convergence\/conflicts_/, "", name);
                         printf "%s    \"%s\": %s", sep, name, $2; sep=",\n" }
         END { print "" }' "$CONV_LOG"
    echo "  },"
    awk '
      /^convergence\/single_writer_plain /         { plain=$2+0 }
      /^convergence\/single_writer_bidirectional / { bidi=$2+0 }
      END {
        if (plain > 0) printf "  \"single_writer_bidirectional_retention\": %.2f\n", bidi/plain
        else           print  "  \"single_writer_bidirectional_retention\": null"
      }' "$CONV_LOG"
    echo "}"
  } > "$CONV_OUT"
  echo "bench: wrote $CONV_OUT"
}

# --- full / fanout-baseline runs -------------------------------------------

for bench in broker publish_path publisher_deps versionstore wire; do
  cargo bench --quiet -p synapse-bench --bench "$bench" 2>/dev/null | tee -a "$CRIT_LOG"
done
cargo run --quiet --release -p synapse-bench --bin fanout_throughput | tee "$FANOUT_LOG"
run_publisher_bin

TARGET="$OUT"
[[ "$MODE" == "baseline" ]] && TARGET="$BASELINE"

{
  echo "{"
  echo "  \"schema\": \"synapse-bench/v1\","
  echo "  \"generated_by\": \"scripts/bench.sh\","
  echo "  \"git_rev\": \"$GIT_REV\","
  echo "  \"utc\": \"$UTC\","
  echo "  \"fanout_deliveries_per_sec\": {"
  rates_json "$FANOUT_LOG"
  echo "  },"
  echo "  \"criterion_ns_per_iter\": {"
  criterion_json
  if [[ "$MODE" == "full" && -f "$BASELINE" ]]; then
    echo "  },"
    # Speedup of the current best fanout scenario over the pre-change
    # baseline's unbatched scenario — the ISSUE 2 acceptance number.
    CUR="$(awk '/deliveries_per_sec/ { if ($2+0 > best) best=$2+0 } END { print best }' "$FANOUT_LOG")"
    BASE="$(awk -F'[:,]' '/fanout\// { gsub(/[ "]/,"",$2); if ($2+0 > 0) { print $2+0; exit } }' "$BASELINE")"
    SPEEDUP="$(awk -v c="$CUR" -v b="$BASE" 'BEGIN { if (b > 0) printf "%.2f", c/b; else print "null" }')"
    echo "  \"baseline\": $(cat "$BASELINE"),"
    echo "  \"fanout_speedup_vs_baseline\": $SPEEDUP"
  else
    echo "  }"
  fi
  echo "}"
} > "$TARGET"

echo "bench: wrote $TARGET"

if [[ "$MODE" == "full" ]]; then
  write_publisher_json "$PUB_OUT"
  write_visibility_json
  write_recovery_json
  write_scaling_json
  write_durable_scaling_json
  write_bootstrap_stall_json
  write_convergence_json
fi
