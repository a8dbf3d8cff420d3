#!/usr/bin/env bash
# Public-surface counts at a git revision (default HEAD), read with
# `git show` so the parent needs no checkout: per first-party package (the
# root and each crates/*), the public items of its non-test src code —
# every `pub` fn, struct, enum, trait, type, const and mod declaration,
# every `pub` field (named or tuple), and each name a `pub use` exports.
# Non-test code is what `scripts/loc.sh` counts as such: a src file up to
# its first column-0 `#[cfg(test)]` that opens an inline module, and no
# `tests.rs` its parent module declares `#[cfg(test)] mod tests;`.
#
# `scripts/api.sh --check [rev]` prints nothing and fails unless the
# counts equal the committed `scripts/api.txt`: a change that grows (or
# shrinks) a crate's public surface updates that file in the same change,
# with `scripts/api.sh "$(git stash create)" > scripts/api.txt`.
set -euo pipefail
cd "$(dirname "$0")/.."
check=
if [[ "${1:-}" == --check ]]; then
  check=1
  shift
fi
rev="${1:-HEAD}"

# Whether src file $1 (a `tests.rs`) is compiled under test only.
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

count='
  function names(s,   parts, i, k) {
    gsub(/[{};]/, " ", s)
    k = 0
    for (i = split(s, parts, ","); i > 0; i--) if (parts[i] ~ /[A-Za-z_]/) k++
    return k
  }
  held { held = 0; if (!/^(pub(\([a-z]+\))? )?mod [a-z_]+;$/) exit }
  /^#\[cfg\(test\)\]/ { held = 1; next }
  /^[ \t]*\/\// { next }
  in_use { n += names($0); if (/;/) in_use = 0; next }
  /^[ \t]*pub use / {
    if (/\{/) { s = $0; sub(/^[^{]*\{/, "", s); n += names(s); in_use = !/;/ } else n++
    next
  }
  /^[ \t]*pub ((unsafe|async|const|extern "C") )*fn / { n++; next }
  /^[ \t]*pub (struct|enum|trait|type|const|mod) / {
    n++
    if (/^[ \t]*pub struct [^({]*\(/) { s = $0; sub(/^[^(]*\(/, "", s); n += gsub(/pub /, "", s) }
    next
  }
  /^[ \t]*pub [a-z_][a-z0-9_]*[ \t]*:/ { n++ }
  END { print n + 0 }'

out=$(
  for dir in "" $(git ls-tree -d --name-only "$rev" crates/ | sed 's|$|/|'); do
    name="$(git show "$rev:${dir}Cargo.toml" | awk -F'"' '/^name = /{print $2; exit}')"
    total=0
    while read -r f; do
      [[ "$f" == *.rs ]] || continue
      [[ "$f" == */tests.rs ]] && test_only "$f" && continue
      total=$((total + $(git show "$rev:$f" | awk "$count")))
    done < <(git ls-tree -r --name-only "$rev" -- "${dir}src")
    printf '%s %d\n' "$name" "$total"
  done
)
if [[ -z "$check" ]]; then
  echo "$out"
  exit 0
fi
if ! diff <(echo "$out") scripts/api.txt >&2; then
  echo "api: public item counts (<) differ from scripts/api.txt (>); update the file" >&2
  exit 1
fi
