#!/usr/bin/env bash
# Alternating parent/change benchmark pairs — the comparison every PR that
# touches a hot path owes (choosing-metrics §8).
#
#   scripts/pairs.sh <parent-rev> [workload…] [--pairs N] [--trace [N]]
#
# Unpacks <parent-rev> (`git archive`) and a snapshot of the working tree
# (its tracked and unignored files, taken at start) under $TMPDIR, and builds
# each side's own benchmark/ there, into a target directory of its own. Then
# runs N (default 10) pairs per workload (default: every workload
# BENCHMARK.json lists) through each side's own benchmark/run.sh: a fresh seed
# per pair, the same seed on both sides, the side that goes first
# alternating. Prints, per end-to-end metric, both medians and inter-quartile
# ranges, wins/ties/losses of the change, and whether the gap is wider than
# the parent's own IQR and than the metric's bound. With --trace it then
# makes N (default 3) `--trace 1` runs per side per workload, on N seeds
# (the first N pairs' seeds), the side that goes first alternating, and
# prints every per-layer metric's median and IQR per side with the ratio
# of the medians — which stage a change moved, with its spread, in the
# same command: one traced run cannot attribute a gain, since stages a
# change never touched move between runs too. Nothing is written into the
# working tree, so it may be edited while this runs.
# Exit code: non-zero when a run was incorrect or failed an operation, or
# when the change's median is worse than the parent's by more than the
# bound.
set -euo pipefail
cd "$(dirname "$0")/.."

pairs=10
trace=0
workloads=()
parent_rev=""
while (($#)); do
  case "$1" in
    --pairs) pairs="$2"; shift ;;
    --trace)
      trace=3
      if [[ "${2:-}" =~ ^[0-9]+$ ]]; then trace="$2"; shift; fi ;;
    -*) echo "scripts/pairs.sh: unknown argument $1" >&2; exit 2 ;;
    *) if [[ -z "$parent_rev" ]]; then parent_rev="$1"; else workloads+=("$1"); fi ;;
  esac
  shift
done
if [[ -z "$parent_rev" ]]; then
  echo "usage: scripts/pairs.sh <parent-rev> [workload…] [--pairs N] [--trace [N]]" >&2
  exit 2
fi
if ((${#workloads[@]} == 0)); then
  mapfile -t workloads < <(python3 -c '
import json
for w in json.load(open("BENCHMARK.json"))["workloads"]: print(w["name"])')
fi

work="$(mktemp -d "${TMPDIR:-/tmp}/synapse-pairs.XXXXXX")"
trap 'rm -rf "$work"' EXIT
mkdir "$work/parent" "$work/change"
git archive "$parent_rev" | tar -x -C "$work/parent"
git ls-files -co --exclude-standard -z |
  while IFS= read -r -d '' f; do [[ -e "$f" ]] && printf '%s\0' "$f"; done |
  tar --null -T - -c | tar -x -C "$work/change"
declare -A root=([parent]="$work/parent" [change]="$work/change")

for side in parent change; do
  echo "pairs: building $side ($([[ $side == parent ]] && echo "$parent_rev" || echo "working tree"))" >&2
  (cd "${root[$side]}" && cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$work/target-$side")
done

base_seed=$(($(date +%s) % 1000000))
status=0
for workload in "${workloads[@]}"; do
  for ((i = 0; i < pairs; i++)); do
    seed=$((base_seed + i))
    order=(parent change)
    ((i % 2)) && order=(change parent)
    for side in "${order[@]}"; do
      echo "pairs: $workload pair $((i + 1))/$pairs seed $seed $side" >&2
      line="$(CARGO_TARGET_DIR="$work/target-$side" bash "${root[$side]}/benchmark/run.sh" \
        --workload "$workload" --seed "$seed" 2>/dev/null | tail -n 1)" || status=1
      printf '%s\t%s\t%s\t%s\n' "$workload" "$seed" "$side" "$line" >>"$work/runs.tsv"
    done
  done
  for ((i = 0; i < trace; i++)); do
    seed=$((base_seed + i))
    order=(parent change)
    ((i % 2)) && order=(change parent)
    for side in "${order[@]}"; do
      echo "pairs: $workload traced run $((i + 1))/$trace seed $seed $side" >&2
      line="$(CARGO_TARGET_DIR="$work/target-$side" bash "${root[$side]}/benchmark/run.sh" \
        --workload "$workload" --seed "$seed" --trace 1 2>/dev/null | tail -n 1)" || status=1
      printf '%s\t%s\t%s\t%s\n' "$workload" "$seed" "$side" "$line" >>"$work/traced.tsv"
    done
  done
done

python3 - "$work/runs.tsv" BENCHMARK.json "$work/traced.tsv" <<'PY' || status=1
import json, sys
from statistics import median, quantiles

runs, manifest = sys.argv[1], json.load(open(sys.argv[2]))
gated = {m["name"]: m for m in manifest["end_to_end"]}
data, bad = {}, 0
for line in open(runs):
    workload, seed, side, out = line.rstrip("\n").split("\t")
    try:
        run = json.loads(out)
    except ValueError:
        run = {"correct": False, "failed": None, "metrics": {}}
    if not run.get("correct") or run.get("failed") != 0:
        print(f"INCORRECT {workload} seed {seed} {side}: correct={run.get('correct')} failed={run.get('failed')}")
        bad += 1
    for name in gated:
        value = run.get("metrics", {}).get(name, {}).get("value")
        data.setdefault(workload, {}).setdefault(name, {}).setdefault(side, []).append(value)

def iqr(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

worse = 0
for workload, metrics in data.items():
    print(f"\n{workload}")
    for name, sides in metrics.items():
        pairs = [(p, c) for p, c in zip(sides["parent"], sides["change"]) if p is not None and c is not None]
        if not pairs:
            print(f"  {name}: no complete pair")
            continue
        parent, change = [p for p, _ in pairs], [c for _, c in pairs]
        lower = gated[name]["better"] == "lower"
        better = lambda p, c: c < p if lower else c > p
        wins = sum(better(p, c) for p, c in pairs)
        ties = sum(p == c for p, c in pairs)
        mp, mc = median(parent), median(change)
        (p1, p3), (c1, c3) = iqr(parent), iqr(change)
        gain = (mp - mc if lower else mc - mp) / mp if mp else 0.0
        beyond_iqr = abs(mc - mp) > (p3 - p1)
        regressed = -gain > gated[name]["bound"]
        worse += regressed
        print(f"  {name} [{gated[name]['unit']}, {gated[name]['better']} is better]")
        print(f"    parent median {mp:.4g} (IQR {p1:.4g}..{p3:.4g})  change median {mc:.4g} (IQR {c1:.4g}..{c3:.4g})")
        print(f"    change {'better' if gain >= 0 else 'WORSE'} by {abs(gain):.1%} of the parent; wins/ties/losses {wins}/{ties}/{len(pairs) - wins - ties};"
              f" gap {'>' if beyond_iqr else '<='} parent IQR; {'BEYOND' if regressed else 'inside'} the {gated[name]['bound']} bound")
        print(f"    parent runs {' '.join(f'{x:.4g}' for x in parent)}")
        print(f"    change runs {' '.join(f'{x:.4g}' for x in change)}")

# Traced runs (--trace N): every per-layer metric's median and IQR per
# side, and the ratio of the medians.
traced = {}
try:
    lines = open(sys.argv[3]).read().splitlines()
except OSError:
    lines = []
for line in lines:
    workload, seed, side, out = line.split("\t")
    try:
        run = json.loads(out)
    except ValueError:
        run = {"correct": False, "failed": None, "metrics": {}}
    if not run.get("correct") or run.get("failed") != 0:
        print(f"INCORRECT traced {workload} seed {seed} {side}: correct={run.get('correct')} failed={run.get('failed')}")
        bad += 1
    traced.setdefault(workload, {}).setdefault(side, {})[seed] = run.get("metrics", {})
for workload, sides in traced.items():
    seeds = sorted(set().union(*(s.keys() for s in sides.values())))
    print(f"\n{workload} traced, seeds {' '.join(seeds)}: per-layer median (IQR) per side, ratio = change / parent median")
    for m in manifest["per_layer"]:
        name = m["name"]
        cells, medians = [], []
        for side in ("parent", "change"):
            xs = [v for r in sides.get(side, {}).values()
                  if (v := r.get(name, {}).get("value")) is not None]
            if xs:
                lo, hi = iqr(xs)
                medians.append(median(xs))
                cells.append(f"{median(xs):.4g} ({lo:.4g}..{hi:.4g})")
            else:
                medians.append(None)
                cells.append("-")
        p, c = medians
        ratio = f"{c / p:.3f}" if p and c is not None else "-"
        print(f"  {name:44} {cells[0]:>30} {cells[1]:>30}  x{ratio:<7} [{m['unit']}, {m['better']} is better]")
sys.exit(1 if bad or worse else 0)
PY
exit "$status"
