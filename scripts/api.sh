#!/usr/bin/env bash
# Public-surface counts at a git revision (default HEAD), read with
# `git show` so the parent needs no checkout: per first-party package (the
# root and each crates/*), the public items of its non-test src code —
# every `pub` fn, struct, enum, trait, type, const and mod declaration,
# every `pub` field (named or tuple), and each name a `pub use` exports.
# Non-test code is what `scripts/loc.sh` counts as such: a src file up to
# its first column-0 `#[cfg(test)]` that opens an inline module, and no
# `tests.rs` its parent module declares `#[cfg(test)] mod tests;`. An item
# behind `#[cfg(any(test, feature = "testing"))]` (a fault hook only the
# fault plane's tests compile) is not counted either, with everything up
# to its closing brace, so the counts are the production surface.
#
# `scripts/api.sh --check [rev]` prints nothing and fails unless the
# counts equal the committed `scripts/api.txt`: a change that grows (or
# shrinks) a crate's public surface updates that file in the same change,
# with `scripts/api.sh "$(git stash create)" > scripts/api.txt`.
#
# `scripts/api.sh --list [rev]` prints every counted item instead, one
# `file:line: text` line each (a `pub use` line once per name it exports,
# a tuple struct once more per `pub` field), through the same program as
# the counts — so a package's count is its number of lines, and
# `diff <(scripts/api.sh --list A | cut -d: -f1,3-) <(… B …)` is the
# surface a change added or removed.
set -euo pipefail
cd "$(dirname "$0")/.."
mode=count
if [[ "${1:-}" == --check || "${1:-}" == --list ]]; then
  mode="${1#--}"
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

# One src file's public items: their count, or with `-v list=1` one line
# each, prefixed by `-v file=<path>`.
items='
  function item(text) {
    n++
    if (list) printf "%s:%d: %s\n", file, FNR, text
  }
  function trim(s) { gsub(/^[ \t]+|[ \t]+$/, "", s); return s }
  function names(s,   parts, i, k) {
    gsub(/[{};]/, " ", s)
    k = split(s, parts, ",")
    for (i = 1; i <= k; i++) if (parts[i] ~ /[A-Za-z_]/) item("pub use " trim(parts[i]))
  }
  held { held = 0; if (!/^(pub(\([a-z]+\))? )?mod [a-z_]+;$/) exit }
  /^#\[cfg\(test\)\]/ { held = 1; next }
  /^[ \t]*\/\// { next }
  depth > 0 { depth += gsub(/\{/, "{") - gsub(/\}/, "}"); next }
  /^[ \t]*#\[cfg\(any\(test, feature = "testing"\)\)\]/ { gated = 1; next }
  gated { gated = 0; depth = gsub(/\{/, "{") - gsub(/\}/, "}"); if (depth < 0) depth = 0; next }
  in_use { names($0); if (/;/) in_use = 0; next }
  /^[ \t]*pub use / {
    if (/\{/) { s = $0; sub(/^[^{]*\{/, "", s); names(s); in_use = !/;/ } else item(trim($0))
    next
  }
  /^[ \t]*pub ((unsafe|async|const|extern "C") )*fn / { item(trim($0)); next }
  /^[ \t]*pub (struct|enum|trait|type|const|mod) / {
    item(trim($0))
    if (/^[ \t]*pub struct [^({]*\(/) {
      s = $0; sub(/^[^(]*\(/, "", s)
      for (k = gsub(/pub /, "", s); k > 0; k--) item(trim($0) " [field]")
    }
    next
  }
  /^[ \t]*pub [a-z_][a-z0-9_]*[ \t]*:/ { item(trim($0)) }
  END { if (!list) print n + 0 }'

out=$(
  for dir in "" $(git ls-tree -d --name-only "$rev" crates/ | sed 's|$|/|'); do
    name="$(git show "$rev:${dir}Cargo.toml" | awk -F'"' '/^name = /{print $2; exit}')"
    total=0
    while read -r f; do
      [[ "$f" == *.rs ]] || continue
      [[ "$f" == */tests.rs ]] && test_only "$f" && continue
      if [[ "$mode" == list ]]; then
        git show "$rev:$f" | awk -v list=1 -v file="$f" "$items"
      else
        total=$((total + $(git show "$rev:$f" | awk "$items")))
      fi
    done < <(git ls-tree -r --name-only "$rev" -- "${dir}src")
    [[ "$mode" == list ]] || printf '%s %d\n' "$name" "$total"
  done
)
if [[ "$mode" != check ]]; then
  echo "$out"
  exit 0
fi
if ! diff <(echo "$out") scripts/api.txt >&2; then
  echo "api: public item counts (<) differ from scripts/api.txt (>); update the file" >&2
  exit 1
fi
