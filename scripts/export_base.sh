#!/usr/bin/env bash
# Export a git revision for A/B comparison against the working tree and
# build dune targets in it.
#
#   scripts/export_base.sh REV TARGET...
#
# REV is exported with `git archive` into _build/perf-ab/<sha>/ once
# (later calls reuse the export), the TARGETs (e.g. ./bench/main.exe) are
# built there, and the export directory is printed on stdout.  Used by
# scripts/perf_ab.sh and scripts/bench_diff.sh.
set -euo pipefail

[ $# -ge 2 ] || { sed -n '5p' "$0" >&2; exit 2; }
rev="$1"; shift

root=$(git rev-parse --show-toplevel)
cd "$root"
sha=$(git rev-parse --verify "$rev^{commit}")
dir="$root/_build/perf-ab/$sha"

if [ ! -d "$dir" ]; then
  echo "export-base: exporting $sha to $dir" >&2
  rm -rf "$dir.tmp"
  mkdir -p "$dir.tmp"
  git archive "$sha" | tar -x -C "$dir.tmp"
  mv "$dir.tmp" "$dir"
fi
echo "export-base: building $* in $dir" >&2
dune build --root "$dir" --no-print-directory "$@"
echo "$dir"
