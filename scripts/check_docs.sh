#!/usr/bin/env bash
# Documentation consistency check (wired into CI and scripts/check.sh):
#
#   1. every relative markdown link in README.md, *.md, and docs/*.md
#      resolves to an existing file (http(s)/mailto and pure #anchor links
#      are skipped; a #fragment on a file link is stripped before checking);
#   2. every module directory under src/ is mentioned in
#      docs/ARCHITECTURE.md, so the layer map cannot silently go stale;
#   3. every MISSL_* identifier the docs mention (runtime env knobs and
#      macros alike) still exists somewhere in the tree, so renaming or
#      removing a knob without updating its documentation fails CI.
#      CHANGES.md is left out of this one check: it is an append-only
#      history, so it keeps naming knobs that were removed on purpose.
#      ISSUE.md and REVIEW.md are left out too: both describe a change
#      request, so they may name knobs that the change removes.
#
# Exits non-zero listing every broken reference.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# --- 1. relative links -------------------------------------------------------
# Matches [text](target) including multiple links per line. Image links
# ![alt](target) produce the same (target) group and are checked too.
for doc in README.md *.md docs/*.md; do
  [ -f "$doc" ] || continue
  dir=$(dirname "$doc")
  # shellcheck disable=SC2013
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*) continue ;;  # external
      '#'*) continue ;;                         # in-page anchor
      *' '*) continue ;;  # not a real link target (code snippet, e.g. a
                          # lambda capture + parameter list)
    esac
    path="${target%%#*}"                        # strip fragment
    [ -n "$path" ] || continue
    if [ ! -e "$dir/$path" ]; then
      echo "BROKEN LINK: $doc -> ($target)"
      fail=1
    fi
  done < <(grep -o '\[[^]]*\]([^)]*)' "$doc" 2>/dev/null \
             | sed 's/^\[[^]]*\](\([^)]*\))$/\1/')
done

# --- 2. src/ modules covered by the architecture doc -------------------------
for module in src/*/; do
  name=$(basename "$module")
  if ! grep -q "src/$name" docs/ARCHITECTURE.md; then
    echo "UNDOCUMENTED MODULE: src/$name not mentioned in docs/ARCHITECTURE.md"
    fail=1
  fi
done

# --- 3. documented MISSL_* knobs still exist in the tree ---------------------
# Docs name runtime env vars and macros; either way a token that no longer
# appears anywhere outside the docs (and this script) is stale. This file is
# excluded from the search so the comments above cannot satisfy the check.
doc_tokens=$(grep -rhoE 'MISSL_[A-Z0-9_]+' README.md ./*.md docs/*.md \
               --exclude=CHANGES.md --exclude=ISSUE.md --exclude=REVIEW.md \
               2>/dev/null | sort -u)
for token in $doc_tokens; do
  if ! grep -rqF --exclude=check_docs.sh "$token" src/ scripts/ bench/ \
         tests/ examples/ CMakeLists.txt 2>/dev/null; then
    echo "STALE KNOB: $token is documented but appears nowhere in the source tree"
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "Documentation check FAILED." >&2
  exit 1
fi
echo "Documentation check passed."
