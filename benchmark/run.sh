#!/usr/bin/env bash
# The one command of the Synapse benchmark.
#
#   benchmark/run.sh --workload <name> --seed <n> [--seconds <n>] [--trace <0|1>]
#   benchmark/run.sh --all [--seed <n>] [--trace <0|1>]     every workload in turn (the
#                                                           listed three and crowdtap_controllers)
#   benchmark/run.sh --smoke [--workload <name>]            4 s of measuring, for CI
#   benchmark/run.sh --manifest                             print the metric/workload lists
#
# Builds the benchmark crate offline (into $CARGO_TARGET_DIR when set, else
# benchmark/target), checks that BENCHMARK.json is what the crate renders,
# then runs one process per workload, pinned to one core. Every run prints
# each metric by name with unit, sample count and bound, and ends in one
# JSON line. Exit code: 0 only if every run was correct.
set -euo pipefail
cd "$(dirname "$0")/.."

target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet \
  --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
bin="$target/release/synapse-benchmark"

# The lists live in src/manifest.rs; BENCHMARK.json must be their rendering.
if ! "$bin" --manifest | diff - BENCHMARK.json >&2; then
  echo "benchmark/run.sh: BENCHMARK.json differs from the crate's manifest" >&2
  exit 1
fi

workloads=()
pass=()
all=0
while (($#)); do
  case "$1" in
    --manifest) exec "$bin" --manifest ;;
    --all) all=1 ;;
    --smoke) pass+=(--seconds 4) ;;
    --workload) workloads+=("$2"); shift ;;
    --seed|--seconds|--trace) pass+=("$1" "$2"); shift ;;
    *) echo "benchmark/run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
  shift
done
if ((all)) || ((${#workloads[@]} == 0)); then
  workloads=(stress_causal stress_weak_durable fanout_weak_hetero crowdtap_controllers)
fi

# All threads of a run share one core, the last one this shell may use:
# whether a second core is really there changes from minute to minute on a
# shared host (README, Noise), and with it every multi-threaded figure.
pin=()
if list="$(taskset -cp $$ 2>/dev/null)"; then
  pin=(taskset -c "${list##*[ ,-]}")
else
  echo "benchmark/run.sh: no taskset here; the run is not pinned to one core" >&2
fi

status=0
for workload in "${workloads[@]}"; do
  "${pin[@]}" "$bin" --workload "$workload" "${pass[@]}" || status=$?
done
exit "$status"
