#!/usr/bin/env bash
# Byte-identity check of the bench harness: every printed table and JSON
# file of a base revision against the working tree.
#
#   scripts/bench_diff.sh --base REV
#   make bench-diff BASE=REV
#
# REV is exported into _build/perf-ab/<sha>/ and its bench/main.exe built
# there by scripts/export_base.sh.  Each side then runs every bench
# target except all as `main.exe <target> 0.25 --phase-table`,
# adding `--json <target>.json` when that side's target reads --json
# (its --help lists it), from its own output directory
# (_build/perf-ab/bench-diff/{base,new}/).  Every stdout pair is compared
# without the "<target>: wrote <target>.json" line, and every JSON pair
# with cmp; a JSON file written on one side only is a difference.  The
# first differing lines of each differing pair are printed.
#
# Exit status: 1 when any pair differs or a run fails; 2 on a usage
# error; 0 when every pair is byte-identical.  Refactors that should not
# move a printed number must exit 0.
set -euo pipefail

base=""
usage() {
  sed -n '5,6p' "$0" >&2
  exit 2
}
while [ $# -gt 0 ]; do
  case "$1" in
    --base) base="$2"; shift 2 ;;
    *) usage ;;
  esac
done
[ -n "$base" ] || usage

# The targets of bench/main.exe's usage message, all excepted.
targets="table2-row1 table2-row2 table2-row3 fig-contention fig-scalability
  fig-modes fig-latency fig-batch pipeline skew fault-tolerance failover
  durability cdc overload"

root=$(git rev-parse --show-toplevel)
cd "$root"
base_exe="$(scripts/export_base.sh "$base" ./bench/main.exe)/_build/default/bench/main.exe"
echo "bench-diff: building the working tree" >&2
dune build ./bench/main.exe
new_exe="$root/_build/default/bench/main.exe"
out="$root/_build/perf-ab/bench-diff"
rm -rf "$out"
mkdir -p "$out/base" "$out/new"

status=0
for t in $targets; do
  for s in base new; do
    echo "bench-diff: $t $s" >&2
    exe=$base_exe; [ "$s" = new ] && exe=$new_exe
    args=("$t" 0.25 --phase-table)
    help=$(PAGER=cat MANPAGER=cat TERM=dumb "$exe" "$t" --help=plain)
    case "$help" in *--json*) args+=(--json "$t.json") ;; esac
    if ! (cd "$out/$s" && "$exe" "${args[@]}" >"$t.out" 2>&1); then
      echo "bench-diff: $t failed on $s (see $out/$s/$t.out)"
      status=1
    fi
    grep -v -x -F "$t: wrote $t.json" "$out/$s/$t.out" >"$out/$s/$t.txt" || true
  done
  for f in "$t.txt" "$t.json"; do
    if [ ! -e "$out/base/$f" ] && [ ! -e "$out/new/$f" ]; then
      continue
    elif [ ! -e "$out/base/$f" ] || [ ! -e "$out/new/$f" ]; then
      echo "DIFFERS $f (written on one side only)"
      status=1
    elif cmp -s "$out/base/$f" "$out/new/$f"; then
      echo "same    $f"
    else
      echo "DIFFERS $f"
      diff "$out/base/$f" "$out/new/$f" | head -n 10 || true
      status=1
    fi
  done
done
exit $status
