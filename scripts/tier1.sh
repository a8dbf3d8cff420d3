#!/usr/bin/env bash
# Tier-1 gate: the repo must build in release and pass every
# first-party crate's tests (the workspace default members: the root
# package and `crates/*`; `vendor/*` stays out), then the seeded fault
# soak must reproduce under the pinned seed of record (same seed =>
# identical outcome counters; see EXPERIMENTS.md "§6.5 — seeded
# fault-injection soak").
set -euo pipefail
cd "$(dirname "$0")/.."

# `--smoke` runs the liveness subset only: release build plus the
# delivery-plane, durable-mode, and bootstrap-stall smoke gates — the
# fast pre-push check.
MODE="full"
case "${1:-}" in
  --smoke) MODE="smoke" ;;
  "") ;;
  *) echo "usage: scripts/tier1.sh [--smoke]" >&2; exit 2 ;;
esac

cargo build --release

if [[ "$MODE" == "smoke" ]]; then
  cargo run --quiet --release -p synapse-bench --bin scaling_sweep -- --smoke
  cargo run --quiet --release -p synapse-bench --bin durable_scaling -- --smoke
  cargo run --quiet --release -p synapse-bench --bin bootstrap_stall -- --smoke
  cargo run --quiet --release -p synapse-bench --bin convergence -- --smoke
  echo "tier1 --smoke: OK"
  exit 0
fi

# Format + lint gates: first-party code must be rustfmt-clean and
# warning-free (vendored crates are excluded — they are not ours to lint).
FIRST_PARTY=(-p synapse-repro)
while read -r manifest; do
  name="$(awk -F'"' '/^name = /{print $2; exit}' "$manifest")"
  FIRST_PARTY+=(-p "$name")
done < <(ls crates/*/Cargo.toml)
cargo fmt "${FIRST_PARTY[@]}" -- --check
cargo clippy "${FIRST_PARTY[@]}" --all-targets --quiet -- -D warnings

cargo test -q

# Pinned-seed soak: deterministic replay of the fault schedule.
SYNAPSE_SEED="${SYNAPSE_SEED:-24210775}" cargo test -q --test fault_soak

# Live-bootstrap soak: chunked recovery under the same seed of record
# (see EXPERIMENTS.md "§4.4 — live-bootstrap soak"). Set
# SYNAPSE_BOOTSTRAP_SWEEP=1 to additionally run the 10-seed sweep.
SYNAPSE_SEED="${SYNAPSE_SEED:-24210775}" \
  SYNAPSE_BOOTSTRAP_SWEEP="${SYNAPSE_BOOTSTRAP_SWEEP:-0}" \
  cargo test -q --test live_bootstrap

# Crash-restart soak: the durability plane under the seeded kill
# schedule (see EXPERIMENTS.md "crash-restart soak"). Zero acked-message
# loss across every crash point, and a restart resumes an interrupted
# bootstrap from its snapshot-carried watermark. Set
# SYNAPSE_CRASH_SWEEP=1 to additionally run the 10-seed sweep.
SYNAPSE_SEED="${SYNAPSE_SEED:-24210775}" \
  SYNAPSE_CRASH_SWEEP="${SYNAPSE_CRASH_SWEEP:-0}" \
  cargo test -q --test crash_restart

# Delivery-plane scaling smoke (gating for liveness, not perf): the
# partitioned work-stealing arm must drain a tiny trace with zero
# acked-loss at every worker count and must not collapse below the
# single-lock baseline (a collapse means livelock or accidental
# serialization in the partition/steal path).
cargo run --quiet --release -p synapse-bench --bin scaling_sweep -- --smoke

# Durable-mode liveness gate (gating for liveness, not perf): the
# group-commit WAL must drain a tiny durable trace with zero acked-loss
# at every worker count, must not collapse below a tenth of the
# memory-only plane, and a publish→deliver→crash→recover round trip under
# Interval fsync must come back with exactly published-minus-acked.
cargo run --quiet --release -p synapse-bench --bin durable_scaling -- --smoke

# Bootstrap stall-elimination gate (gating for liveness, not perf): a
# watermark-interleaved copy running concurrently with a live write load
# must converge exactly, must merge its chunks through the delivery
# queue, must never open a >1s apply gap on the subscriber, and must not
# collapse live throughput below 0.2x the steady-state arm — any of
# those means the copy is pausing live delivery again.
cargo run --quiet --release -p synapse-bench --bin bootstrap_stall -- --smoke

# Multi-writer convergence gate (gating for liveness, not perf): every
# two-writer mesh arm must converge exactly under both LWW and a merge
# resolver, and turning the vector plane on must not collapse the
# single-writer path.
cargo run --quiet --release -p synapse-bench --bin convergence -- --smoke

# Optional bench smoke (non-gating for perf, gating for liveness): the
# fanout bench must complete without deadlock or delivery loss.
if [[ "${SYNAPSE_BENCH_SMOKE:-0}" == "1" ]]; then
  scripts/bench.sh --smoke
fi

echo "tier1: OK"
