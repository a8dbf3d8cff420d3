#!/usr/bin/env bash
# How far do two sets of runs of the SAME code disagree?
#
#   benchmark/noise.sh [runs-per-set]        (default 10)
#
# Runs two sets (A, then B) of N runs of every workload BENCHMARK.json
# lists, alternating workloads inside a set, each run with its own seed. For every gated
# metric of every workload it prints each set's median and quartiles (as
# Python's statistics.quantiles(n=4) computes them), each set's spread
# (Q3 - Q1 over the median) and how much worse B's median is than A's, and
# it fails if a spread or a gap exceeds the metric's bound in
# BENCHMARK.json. Ten runs a set, because the quartiles of five values are
# decided by single runs. The table it printed for the commit that defined
# the benchmark is in README.md.
set -euo pipefail
cd "$(dirname "$0")/.."

runs="${1:-10}"
# The gated workloads: the ones BENCHMARK.json lists.
mapfile -t workloads < <(sed -n 's/.*{"name": "\([^"]*\)", "why".*/\1/p' BENCHMARK.json)
mkdir -p benchmark/out
values="benchmark/out/noise-values.txt"
: > "$values"

seed=1
for set in A B; do
  for ((i = 0; i < runs; i++)); do
    for workload in "${workloads[@]}"; do
      line="$(bash benchmark/run.sh --workload "$workload" --seed "$seed" --trace 0 | tail -n 1)"
      case "$line" in
        '{"correct": true,'*) ;;
        *) echo "noise.sh: $workload seed $seed did not finish correct: $line" >&2; exit 1 ;;
      esac
      grep -o '"[A-Za-z0-9_.-]*": {"value": [^,]*' <<<"$line" |
        sed -e 's/^"//' -e 's/": {"value": / /' |
        while read -r name value; do echo "$set $workload $name $value"; done >> "$values"
      echo "set $set run $((i + 1))/$runs $workload seed $seed done" >&2
      seed=$((seed + 1))
    done
  done
done

# name better bound, one metric a line, from the end_to_end list.
bounds="$(grep '"bound":' BENCHMARK.json |
  sed -e 's/.*"name": "\([^"]*\)".*"better": "\([^"]*\)".*"bound": \([0-9.]*\).*/\1 \2 \3/')"

awk -v bounds="$bounds" '
function quartiles(v, n, q,    i, j, d, m) {
  # statistics.quantiles(v, n=4), the default "exclusive" method.
  m = n + 1
  for (i = 1; i <= 3; i++) {
    j = int(i * m / 4); if (j < 1) j = 1; if (j > n - 1) j = n - 1
    d = i * m - j * 4
    q[i] = (v[j] * (4 - d) + v[j + 1] * d) / 4
  }
}
function sorted(key, out,    n, i, j, t, parts) {
  n = split(data[key], parts, " ")
  for (i = 1; i <= n; i++) out[i] = parts[i] + 0
  for (i = 2; i <= n; i++) { t = out[i]; for (j = i - 1; j >= 1 && out[j] > t; j--) out[j + 1] = out[j]; out[j + 1] = t }
  return n
}
BEGIN {
  n = split(bounds, lines, "\n")
  for (i = 1; i <= n; i++) { split(lines[i], f, " "); better[f[1]] = f[2]; bound[f[1]] = f[3]; order[i] = f[1] }
  metrics = n
}
{ key = $1 " " $2 " " $3; data[key] = data[key] " " $4; seen[$2] = 1; if (!($2 in rank)) { rank[$2] = ++nw; wl[nw] = $2 } }
END {
  printf "%-22s %-18s %12s %12s %12s %8s | %12s %12s %12s %8s | %8s %6s\n",
    "workload", "metric", "A q1", "A median", "A q3", "A spread", "B q1", "B median", "B q3", "B spread", "B worse", "bound"
  bad = 0
  for (w = 1; w <= nw; w++) for (m = 1; m <= metrics; m++) {
    name = order[m]
    na = sorted("A " wl[w] " " name, a); quartiles(a, na, qa)
    nb = sorted("B " wl[w] " " name, b); quartiles(b, nb, qb)
    sa = (qa[3] - qa[1]) / qa[2]; sb = (qb[3] - qb[1]) / qb[2]
    gap = (qb[2] - qa[2]) / qa[2]; if (better[name] == "higher") gap = -gap
    flag = ""
    if (gap > bound[name]) { flag = flag " GAP"; bad = 1 }
    if (sa > bound[name] || sb > bound[name]) { flag = flag " SPREAD"; bad = 1 }
    printf "%-22s %-18s %12.4f %12.4f %12.4f %7.1f%% | %12.4f %12.4f %12.4f %7.1f%% | %+7.1f%% %5.0f%%%s\n",
      wl[w], name, qa[1], qa[2], qa[3], 100 * sa, qb[1], qb[2], qb[3], 100 * sb, 100 * gap, 100 * bound[name], flag
  }
  exit bad
}' "$values"
