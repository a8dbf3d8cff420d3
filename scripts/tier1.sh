#!/usr/bin/env bash
# Tier-1 gate: the repo must build in release and pass every
# first-party crate's tests (the workspace default members: the root
# package and `crates/*`; `vendor/*` stays out), then the seeded fault
# soak must reproduce under the pinned seed of record (same seed =>
# identical outcome counters; see EXPERIMENTS.md "§6.5 — seeded
# fault-injection soak"), the benchmark crate must build against the
# tree and pass its smoke run, and the docs must name only paths that
# exist.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release

# Format + lint gates: first-party code must be rustfmt-clean and
# warning-free (vendored crates are excluded — they are not ours to lint).
FIRST_PARTY=(-p synapse-repro)
while read -r manifest; do
  name="$(awk -F'"' '/^name = /{print $2; exit}' "$manifest")"
  FIRST_PARTY+=(-p "$name")
done < <(ls crates/*/Cargo.toml)
cargo fmt "${FIRST_PARTY[@]}" -- --check
cargo clippy "${FIRST_PARTY[@]}" --all-targets --quiet -- -D warnings
# The shipped build carries no fault hook: the production crates, selected
# without `synapse-faults` (which turns their `testing` feature on), must be
# warning-free too, so a field, import or helper only a gated hook uses
# fails as dead code; and the benchmark crate's feature graph must not
# enable `testing` anywhere.
cargo clippy --offline -p synapse-db -p synapse-orm -p synapse-broker \
  -p synapse-versionstore -p synapse-core --quiet -- -D warnings
bench_features="$(cargo tree --offline --manifest-path benchmark/Cargo.toml -e features)"
if grep -F 'feature "testing"' <<<"$bench_features"; then
  echo "tier1: the benchmark build enables a \`testing\` feature" >&2
  exit 1
fi
# Rustdoc gate: a renamed or deleted item cannot leave a dead intra-doc
# link behind.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q "${FIRST_PARTY[@]}"
# Shape gates, over the tree as staged (a new file counts before it is
# committed): no first-party src file carries more than 900 non-test
# lines, and every crate's public item count equals the committed
# `scripts/api.txt`, so a change that grows a public surface says so.
staged="$(git stash create || true)"
scripts/loc.sh --max 900 "$staged"
scripts/api.sh --check "$staged"

cargo test -q
# The allocation ceilings again, in the profile the benchmark builds.
cargo test -q --release --test alloc_budget

# Pinned-seed soak: deterministic replay of the fault schedule, plus the
# sweep over seeds 1–30 (SYNAPSE_SOAK_SWEEP=0 skips the sweep).
SYNAPSE_SEED="${SYNAPSE_SEED:-24210775}" \
  SYNAPSE_SOAK_SWEEP="${SYNAPSE_SOAK_SWEEP:-1}" \
  cargo test -q --test fault_soak

# Live-bootstrap soak: chunked recovery under the same seed of record
# (see EXPERIMENTS.md "§4.4 — live-bootstrap soak"), plus the 10-seed
# sweep derived from it (SYNAPSE_BOOTSTRAP_SWEEP=0 skips the sweep).
SYNAPSE_SEED="${SYNAPSE_SEED:-24210775}" \
  SYNAPSE_BOOTSTRAP_SWEEP="${SYNAPSE_BOOTSTRAP_SWEEP:-1}" \
  cargo test -q --test live_bootstrap

# Crash-restart soak: the durability plane under the seeded kill
# schedule (see EXPERIMENTS.md "crash-restart soak"). Zero acked-message
# loss across every crash point, and the bootstrap after a restart has its
# snapshot-carried admission state refuse every row it already copied.
# The 10-seed sweep runs too (SYNAPSE_CRASH_SWEEP=0 skips it).
SYNAPSE_SEED="${SYNAPSE_SEED:-24210775}" \
  SYNAPSE_CRASH_SWEEP="${SYNAPSE_CRASH_SWEEP:-1}" \
  cargo test -q --test crash_restart

# The benchmark crate is a package of its own that sees the system only
# through public items, and the driver's gate builds it from the tree:
# build it here too and run its shortest listed workload (three
# bootstraps per set-up; exit 0 only on a correct verdict), so moving or
# renaming a public item it imports fails tier-1, not the gate. The
# durable workload is the one listed workload whose verdict rests on a
# version-store snapshot restore, so a broken persist or restore fails
# here too.
cargo build --release --offline --manifest-path benchmark/Cargo.toml \
  --target-dir "${CARGO_TARGET_DIR:-benchmark/target}"
benchmark/run.sh --smoke --workload fanout_weak_hetero
benchmark/run.sh --smoke --workload stress_weak_durable

# Docs check: every repo path README.md, DESIGN.md or EXPERIMENTS.md
# names in backticks must exist, so the docs cannot cite a file, script
# or test that a later PR deleted or never committed; every backticked
# `Type::item` (with or without an argument list) must name a fn or field
# `item`, or a variant or const `Item`, declared under crates/; and every
# snake_case name with three or more underscores inside backticks (a
# test, a fn, a metric) must occur as a word in some .rs file under
# crates/, tests/, examples/, src/ or benchmark/src/, so the docs cannot
# cite a test that was deleted.
stale=0
while IFS=: read -r doc path; do
  [[ -e "$path" ]] && continue
  echo "tier1: $doc names \`$path\`, which does not exist" >&2
  stale=1
done < <(grep -oHE '`((crates|tests|scripts|examples|benchmark|vendor)/[A-Za-z0-9_./-]+|[A-Za-z0-9_.-]+\.(json|sh|txt|toml))`' \
  README.md DESIGN.md EXPERIMENTS.md | tr -d '`' | sort -u)
while IFS=: read -r doc ident; do
  item="${ident##*::}"
  case "$item" in
    [A-Z]*) decl="^\s*${item}(,|\(| \{| =|$)|const ${item}\b" ;;
    *) decl="fn ${item}\b|^\s*(pub(\([a-z]+\))? )?${item}:" ;;
  esac
  grep -rqE --include='*.rs' "$decl" crates && continue
  echo "tier1: $doc names \`$ident\`, but crates/ declares no \`$item\`" >&2
  stale=1
done < <(grep -oHE '`[A-Z][A-Za-z0-9]*::[A-Za-z_][A-Za-z0-9_]*(\([^`]*\))?`' \
  README.md DESIGN.md EXPERIMENTS.md | tr -d '`' | sed 's/(.*//' | sort -u)
for doc in README.md DESIGN.md EXPERIMENTS.md; do
  while read -r name; do
    grep -rqwF --include='*.rs' "$name" crates tests examples src benchmark/src && continue
    echo "tier1: $doc names \`$name\`, which no .rs file contains" >&2
    stale=1
  done < <(grep -oE '`[^`]*`' "$doc" | grep -oE '\b[a-z][a-z0-9]*(_[a-z0-9]+){3,}\b' | sort -u)
done
[[ "$stale" == 0 ]]

echo "tier1: OK"
