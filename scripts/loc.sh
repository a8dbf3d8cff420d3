#!/usr/bin/env bash
# First-party line counts at a git revision (default HEAD), read with
# `git show` so the parent needs no checkout: per crate and in total, the
# lines of each src/**/*.rs before its first `#[cfg(test)]`, and the whole
# of each tests/**/*.rs. For the uncommitted tree: `git add -A`, then
# `scripts/loc.sh "$(git stash create)"`.
set -euo pipefail
cd "$(dirname "$0")/.."
rev="${1:-HEAD}"
total_src=0 total_tests=0
printf '%-22s %8s %8s\n' "crate @ $rev" non-test tests/
for dir in "" $(git ls-tree -d --name-only "$rev" crates/ | sed 's|$|/|'); do
  src=0 tests=0
  while read -r f; do
    case "$f" in
      "$dir"src/*.rs)
        n=$(git show "$rev:$f" | awk '/^#\[cfg\(test\)\]/{t=1} !t{n++} END{print n+0}')
        src=$((src + n)) ;;
      "$dir"tests/*.rs) tests=$((tests + $(git show "$rev:$f" | wc -l))) ;;
    esac
  done < <(git ls-tree -r --name-only "$rev" -- "${dir}src" "${dir}tests")
  printf '%-22s %8d %8d\n' "${dir:-(root)}" "$src" "$tests"
  total_src=$((total_src + src)) total_tests=$((total_tests + tests))
done
printf '%-22s %8d %8d\n' total "$total_src" "$total_tests"
