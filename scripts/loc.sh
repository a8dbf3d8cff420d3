#!/usr/bin/env bash
# First-party line counts at a git revision (default HEAD), read with
# `git show` so the parent needs no checkout: per crate and in total, the
# non-test lines of each src/**/*.rs (those before its first column-0
# `#[cfg(test)]` that opens an inline module), its test lines (the rest,
# plus the whole of a `tests.rs` its parent module declares
# `#[cfg(test)] mod tests;`), and the whole of each tests/**/*.rs. For
# the uncommitted tree: `git add -A`, then
# `scripts/loc.sh "$(git stash create)"`.
#
# `scripts/loc.sh --max <n> [rev]` prints no table: it names every src
# file whose non-test part is over <n> lines and exits non-zero if any is.
set -euo pipefail
cd "$(dirname "$0")/.."
max=
if [[ "${1:-}" == --max ]]; then
  max="$2"
  shift 2
fi
rev="${1:-HEAD}"

# Whether src file $1 (a `tests.rs`) is compiled under test only: the
# module file beside its directory declares it behind `#[cfg(test)]`.
test_only() {
  local dir parent
  dir="$(dirname "$1")"
  for parent in "$dir/mod.rs" "$dir.rs"; do
    git show "$rev:$parent" 2>/dev/null | awk '
      prev && /^(pub(\([a-z]+\))? )?mod tests;/ { found = 1 }
      { prev = /^#\[cfg\(test\)\]/ }
      END { exit !found }' && return 0
  done
  return 1
}

# Non-test and test line counts of one src file: the test part starts at
# the first column-0 `#[cfg(test)]` that is not a `mod <name>;` declaration.
split='
  t { u++; next }
  held { if (/^(pub(\([a-z]+\))? )?mod [a-z_]+;$/) n += 2; else { t = 1; u += 2 }; held = 0; next }
  /^#\[cfg\(test\)\]/ { held = 1; next }
  { n++ }
  END { print n + held, u + 0 }'

total_src=0 total_unit=0 total_tests=0 over=0
[[ -n "$max" ]] || printf '%-22s %8s %8s %8s\n' "crate @ $rev" non-test src-test tests/
for dir in "" $(git ls-tree -d --name-only "$rev" crates/ | sed 's|$|/|'); do
  src=0 unit=0 tests=0
  while read -r f; do
    case "$f" in
      "$dir"src/*.rs)
        if [[ "$f" == */tests.rs ]] && test_only "$f"; then
          n=0 t=$(git show "$rev:$f" | wc -l)
        else
          read -r n t < <(git show "$rev:$f" | awk "$split")
        fi
        src=$((src + n)) unit=$((unit + t))
        if [[ -n "$max" ]] && ((n > max)); then
          echo "loc: $f has $n non-test lines (max $max)" >&2
          over=1
        fi ;;
      "$dir"tests/*.rs) tests=$((tests + $(git show "$rev:$f" | wc -l))) ;;
    esac
  done < <(git ls-tree -r --name-only "$rev" -- "${dir}src" "${dir}tests")
  [[ -n "$max" ]] || printf '%-22s %8d %8d %8d\n' "${dir:-(root)}" "$src" "$unit" "$tests"
  total_src=$((total_src + src)) total_unit=$((total_unit + unit)) total_tests=$((total_tests + tests))
done
[[ -n "$max" ]] || printf '%-22s %8d %8d %8d\n' total "$total_src" "$total_unit" "$total_tests"
exit "$over"
