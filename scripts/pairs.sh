#!/usr/bin/env bash
# Alternating parent/change benchmark pairs — the comparison every PR that
# touches a hot path owes (choosing-metrics §8).
#
#   scripts/pairs.sh <parent-rev> [workload…] [--pairs N] [--trace [N]]
#                    [--json <file>]
#
# Unpacks <parent-rev> (`git archive`) and a snapshot of the working tree
# (its tracked and unignored files, taken at start) under $TMPDIR, and builds
# each side's own benchmark/ there, into a target directory of its own. Then
# runs N (default 10) pairs per workload (default: every workload
# BENCHMARK.json lists) through each side's own benchmark/run.sh: a fresh seed
# per pair, the same seed on both sides, the side that goes first
# alternating. Prints, per end-to-end metric, both medians and inter-quartile
# ranges, wins/ties/losses of the change, and whether the gap is wider than
# the parent's own IQR and than the metric's bound; beside `setup_s` and
# `recovery_s`, whose figures are scaled to reference machine speed, also
# each side's median wall time (a run's wall figure is the median of its
# windows as the clock measured them, from the report's `# set-ups, s:` and
# `# recoveries, s:` lines). With --trace it then
# makes N (default 3) `--trace 1` runs per side per workload, on N seeds
# (the first N pairs' seeds), the side that goes first alternating, and
# prints every per-layer metric's median and IQR per side with the ratio
# of the medians, a time also at reference machine speed (times the
# reference yardstick over the run's own `process.yardstick_us`) — which
# stage a change moved, with its spread, in the same command: one traced
# run cannot attribute a gain, since stages a change never touched move
# between runs too. Nothing is written into the working tree, so it may be
# edited while this runs.
# With --json it also writes the comparison to <file>: both revs (the
# change is the working tree on top of HEAD, marked `+` when it differs
# from HEAD), the seeds, and per workload and end-to-end metric both
# medians, both IQRs and the change's wins/ties/losses (`setup_s` and
# `recovery_s` also `<side>_wall_median`), plus each traced
# per-layer metric's medians and IQRs (a time's also at reference speed, as
# `<side>_median_at_ref` and `<side>_iqr_at_ref`). A PR commits its run as
# `BENCH_<short parent rev>.json`: the parent is the one rev a change knows
# before it is committed, and each PR has its own.
# Exit code: non-zero when a run was incorrect or failed an operation, or
# when the change's median is worse than the parent's by more than the
# bound.
set -euo pipefail
here="$PWD"
cd "$(dirname "$0")/.."

pairs=10
trace=0
json=""
workloads=()
parent_rev=""
while (($#)); do
  case "$1" in
    --pairs) pairs="$2"; shift ;;
    --json)
      json="$2"
      [[ "$json" == /* ]] || json="$here/$json"
      shift ;;
    --trace)
      trace=3
      if [[ "${2:-}" =~ ^[0-9]+$ ]]; then trace="$2"; shift; fi ;;
    -*) echo "scripts/pairs.sh: unknown argument $1" >&2; exit 2 ;;
    *) if [[ -z "$parent_rev" ]]; then parent_rev="$1"; else workloads+=("$1"); fi ;;
  esac
  shift
done
if [[ -z "$parent_rev" ]]; then
  echo "usage: scripts/pairs.sh <parent-rev> [workload…] [--pairs N] [--trace [N]] [--json <file>]" >&2
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
# Present even with `--pairs 0`, which makes traced runs alone.
: >"$work/runs.tsv"
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
      out="$(CARGO_TARGET_DIR="$work/target-$side" bash "${root[$side]}/benchmark/run.sh" \
        --workload "$workload" --seed "$seed" 2>/dev/null)" || status=1
      # The JSON tail, then the report's per-window set-up and recovery
      # lists, which hold each window's wall time as the clock measured it.
      line="$(tail -n 1 <<<"$out")"
      walls="$(grep -E '^# (set-ups|recoveries), s:' <<<"$out" | tr '\n' '\t' || true)"
      printf '%s\t%s\t%s\t%s\t%s\n' "$workload" "$seed" "$side" "$line" "$walls" >>"$work/runs.tsv"
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

parent_short="$(git rev-parse --short "$parent_rev")"
change_short="$(git rev-parse --short HEAD)"
[[ -z "$(git status --porcelain)" ]] || change_short+="+"
python3 - "$work/runs.tsv" BENCHMARK.json "$work/traced.tsv" "$json" \
  "$parent_short" "$change_short" "$pairs" <<'PY' || status=1
import json, sys
from statistics import median, quantiles

runs, manifest = sys.argv[1], json.load(open(sys.argv[2]))
out = {"parent_rev": sys.argv[5], "change_rev": sys.argv[6], "pairs": int(sys.argv[7]),
       "seeds": {}, "end_to_end": {}, "per_layer": {}}
gated = {m["name"]: m for m in manifest["end_to_end"]}
# The report line that lists each gated time's windows as the clock measured
# them, `figure@speed` or a bare figure.
WALL_LINES = {"setup_s": "# set-ups, s: [", "recovery_s": "# recoveries, s: ["}
data, walls, bad = {}, {}, 0
for line in open(runs):
    workload, seed, side, line, *reports = line.rstrip("\n").split("\t")
    for name, head in WALL_LINES.items():
        for report in reports:
            if report.startswith(head):
                cells = report[len(head):].split("]")[0].split()
                secs = [float(c.split("@")[0]) for c in cells]
                if secs:
                    walls.setdefault(workload, {}).setdefault(name, {}).setdefault(side, []).append(median(secs))
    try:
        run = json.loads(line)
    except ValueError:
        run = {"correct": False, "failed": None, "metrics": {}}
    seeds = out["seeds"].setdefault(workload, [])
    if int(seed) not in seeds:
        seeds.append(int(seed))
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
        out["end_to_end"].setdefault(workload, {})[name] = entry = {
            "unit": gated[name]["unit"], "better": gated[name]["better"],
            "parent_median": mp, "parent_iqr": [p1, p3],
            "change_median": mc, "change_iqr": [c1, c3],
            "wins": wins, "ties": ties, "losses": len(pairs) - wins - ties,
            "gap_beyond_parent_iqr": beyond_iqr, "beyond_bound": regressed,
        }
        wall = walls.get(workload, {}).get(name, {})
        if wall:
            cells = []
            for side in ("parent", "change"):
                if wall.get(side):
                    entry[f"{side}_wall_median"] = median(wall[side])
                    cells.append(f"{side} {median(wall[side]):.4g}")
            print(f"    wall medians, as the clock measured them: {'  '.join(cells)}")

# Traced runs (--trace N): every per-layer metric's median and IQR per
# side, and the ratio of the medians.
traced = {}
try:
    lines = open(sys.argv[3]).read().splitlines()
except OSError:
    lines = []
for line in lines:
    workload, seed, side, line = line.split("\t")
    try:
        run = json.loads(line)
    except ValueError:
        run = {"correct": False, "failed": None, "metrics": {}}
    if not run.get("correct") or run.get("failed") != 0:
        print(f"INCORRECT traced {workload} seed {seed} {side}: correct={run.get('correct')} failed={run.get('failed')}")
        bad += 1
    traced.setdefault(workload, {}).setdefault(side, {})[seed] = run.get("metrics", {})
# A time is also given at reference machine speed: scaled by the reference
# yardstick reading (YARDSTICK_REFERENCE_US in benchmark/src/phases.rs, the
# unit of the gated figures) over the run's own `process.yardstick_us`, so a
# traced run on a slow stretch of the host does not read as a slow stage.
YARDSTICK_REFERENCE_US = 16.0
TIME_UNITS = ("ns", "us", "ms")
for workload, sides in traced.items():
    seeds = sorted(set().union(*(s.keys() for s in sides.values())))
    print(f"\n{workload} traced, seeds {' '.join(seeds)}: per-layer median (IQR) per side, ratio = change / parent median;"
          f" a time's second line is at reference speed")
    for m in manifest["per_layer"]:
        name = m["name"]
        scaled = m["unit"] in TIME_UNITS and name != "process.yardstick_us"
        rows = [("", "value")] + [("at ref", "at_ref")] * scaled
        for label, kind in rows:
            cells, medians = [], []
            for side in ("parent", "change"):
                xs = []
                for r in sides.get(side, {}).values():
                    v = r.get(name, {}).get("value")
                    yardstick = r.get("process.yardstick_us", {}).get("value")
                    if v is None or (kind == "at_ref" and not yardstick):
                        continue
                    xs.append(v * YARDSTICK_REFERENCE_US / yardstick if kind == "at_ref" else v)
                if xs:
                    lo, hi = iqr(xs)
                    medians.append(median(xs))
                    cells.append(f"{median(xs):.4g} ({lo:.4g}..{hi:.4g})")
                    suffix = "_at_ref" if kind == "at_ref" else ""
                    traced_metric = out["per_layer"].setdefault(workload, {}).setdefault(name, {})
                    traced_metric[f"{side}_median{suffix}"] = median(xs)
                    traced_metric[f"{side}_iqr{suffix}"] = [lo, hi]
                else:
                    medians.append(None)
                    cells.append("-")
            p, c = medians
            if label and p is None and c is None:
                continue
            ratio = f"{c / p:.3f}" if p and c is not None else "-"
            title = f"  {label:>44}" if label else f"  {name:44}"
            print(f"{title} {cells[0]:>30} {cells[1]:>30}  x{ratio:<7} [{m['unit']}, {m['better']} is better]")
def nested(obj, depth, pad=""):
    # Dicts `depth` levels deep open one key a line; below that, one line.
    if depth == 0 or not isinstance(obj, dict):
        return json.dumps(obj, sort_keys=True)
    items = [f'{pad} {json.dumps(k)}: {nested(v, depth - 1, pad + " ")}' for k, v in sorted(obj.items())]
    return "{\n" + ",\n".join(items) + f"\n{pad}}}"

if sys.argv[4]:
    with open(sys.argv[4], "w") as f:
        f.write(nested(out, 3) + "\n")
sys.exit(1 if bad or worse else 0)
PY
exit "$status"
