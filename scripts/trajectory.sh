#!/usr/bin/env bash
# The benchmark's trajectory: each gated (end-to-end) metric's median per
# revision, revisions in commit order, read from the committed
# `BENCH_<rev>.json` files that `scripts/pairs.sh --json` writes.
#
#   scripts/trajectory.sh
#
# A file measured against parent <rev> gives <rev>'s medians and those of
# its change: the commit that added the file, or `<rev>+` for a file not
# committed yet. A revision measured twice (one PR's change, the next PR's
# parent) shows both medians as `a/b`, so the drift between two runs of one
# revision stays visible. Files of another layout (no `end_to_end` map) are
# skipped.
set -euo pipefail
cd "$(dirname "$0")/.."

# One `rev order<TAB>file order<TAB>rev<TAB>workload<TAB>metric<TAB>median`
# line per median; a file's order is the commit that added it.
rows() {
  local file added order parent parent_order
  while read -r file; do
    jq -e 'has("end_to_end") and has("parent_rev")' "$file" >/dev/null 2>&1 || continue
    added="$(git log --diff-filter=A --format=%h -1 -- "$file")"
    order=$((1 << 30))
    [[ -n "$added" ]] && order="$(git rev-list --count "$added")"
    parent="$(jq -r .parent_rev "$file")"
    parent_order="$(git rev-list --count "$parent" 2>/dev/null || echo $((order - 1)))"
    jq -r --arg added "$added" --argjson order "$order" --argjson parent_order "$parent_order" '
      (if $added == "" then .change_rev else $added end) as $change
      | .parent_rev as $parent
      | .end_to_end | to_entries[] | .key as $workload
      | .value | to_entries[]
      | [$parent_order, $order, $parent, $workload, .key, .value.parent_median],
        [$order, $order, $change, $workload, .key, .value.change_median]
      | map(tostring) | join("\t")' "$file"
  done < <(git ls-files 'BENCH_*.json')
}

rows | sort -t$'\t' -k1,1n -k2,2n -s | cut -f2- | awk -F'\t' '
  function fmt(x) { return x >= 1000 ? sprintf("%.0f", x) : sprintf("%.4g", x) }
  !($2 in seen) { seen[$2] = 1; revs[++n] = $2 }
  {
    key = $3 "\t" $4
    if (!(key in known)) { known[key] = 1; keys[++m] = key }
    cell = key SUBSEP $2
    if (cell in value) value[cell] = value[cell] "/" fmt($5)
    else value[cell] = fmt($5)
  }
  END {
    printf "%-20s %-16s", "workload", "metric"
    for (i = 1; i <= n; i++) printf " %18s", revs[i]
    printf "\n"
    for (k = 1; k <= m; k++) {
      split(keys[k], wm, "\t")
      printf "%-20s %-16s", wm[1], wm[2]
      for (i = 1; i <= n; i++) {
        cell = keys[k] SUBSEP revs[i]
        printf " %18s", (cell in value) ? value[cell] : "-"
      }
      printf "\n"
    }
  }'
