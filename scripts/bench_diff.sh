#!/usr/bin/env bash
# Byte-identity check of the bench harness: every printed table and JSON
# file of a base revision against the working tree.
#
#   scripts/bench_diff.sh --base REV
#   make bench-diff BASE=REV
#
# REV is exported into _build/perf-ab/<sha>/ and its bench/main.exe built
# there by scripts/export_base.sh.  Each side then runs every bench
# target except micro and all as `main.exe <target> 0.25 --phase-table`,
# adding `--json <target>.json` for the targets that write JSON, from its
# own output directory (_build/perf-ab/bench-diff/{base,new}/) so the
# "wrote <path>" lines match.  Every stdout and JSON pair is compared
# with cmp; the first differing lines of each differing pair are printed.
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

# The targets of bench/main.exe's usage message, micro and all excepted.
targets="table2-row1 table2-row2 table2-row3 fig-contention fig-scalability
  fig-modes fig-latency fig-batch pipeline skew fault-tolerance failover
  durability cdc overload"
json_targets=" pipeline skew failover durability cdc "

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
  files="$t.txt"
  for s in base new; do
    echo "bench-diff: $t $s" >&2
    args=("$t" 0.25 --phase-table)
    case "$json_targets" in *" $t "*) args+=(--json "$t.json") ;; esac
    exe=$base_exe; [ "$s" = new ] && exe=$new_exe
    if ! (cd "$out/$s" && "$exe" "${args[@]}" >"$t.txt" 2>&1); then
      echo "bench-diff: $t failed on $s (see $out/$s/$t.txt)"
      status=1
    fi
  done
  case "$json_targets" in *" $t "*) files="$files $t.json" ;; esac
  for f in $files; do
    if cmp -s "$out/base/$f" "$out/new/$f"; then
      echo "same    $f"
    else
      echo "DIFFERS $f"
      diff "$out/base/$f" "$out/new/$f" | head -n 10 || true
      status=1
    fi
  done
done
exit $status
