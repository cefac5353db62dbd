#!/usr/bin/env bash
# A/B wall-clock comparison of the bench/perf benchmark: a base revision
# against the working tree, on the same seed.
#
#   scripts/perf_ab.sh --base REV [--pairs 10] [--seconds 20] [--seed 42]
#                      [--workloads "ycsb-pipe tpcc-durable ycsb-hot-nd ycsb-open"]
#   make perf-ab BASE=REV [PAIRS=10] [SECONDS=20] [SEED=42] [WORKLOADS="..."]
#
# REV is exported into _build/perf-ab/<sha>/ and built there by
# scripts/export_base.sh.  For each workload the script then runs
# `perf.exe bench --trace 0` PAIRS times per side, alternating which side
# goes first, and one `perf.exe run --json` per side for the
# committed-state checksum.  It prints, per workload x end-to-end metric,
# both medians and quartiles, the NEW/BASE ratio and how many pairs NEW
# won.  Raw outputs stay in _build/perf-ab/out/.
#
# Exit status: 1 when, for the same seed, the sides differ in a virtual
# metric (unit vns, vus or Mtxn/vs), in the checksum or in a per-layer
# counter that is a pure function of the seed (the COUNTERS list below:
# WAL and feed bytes, fsyncs, snapshots, group sizes, events, lag,
# cascades, batch size, probes, inserts, fragments), or a run fails its
# correctness checks; 2 on a usage error; 0 otherwise.  The gc.* words,
# the *_ns* timings and the *_ms timings are measured, not derived from
# the seed, so they are only printed.  Wall-clock differences never fail
# the script: read the table.
set -euo pipefail

base="" pairs=10 secs=20 seed=42
workloads="ycsb-pipe tpcc-durable ycsb-hot-nd ycsb-open"
usage() {
  sed -n '2,8p' "$0" >&2
  exit 2
}
while [ $# -gt 0 ]; do
  case "$1" in
    --base) base="$2"; shift 2 ;;
    --pairs) pairs="$2"; shift 2 ;;
    --seconds) secs="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --workloads) workloads="$2"; shift 2 ;;
    *) usage ;;
  esac
done
[ -n "$base" ] || usage

root=$(git rev-parse --show-toplevel)
cd "$root"
ab="$root/_build/perf-ab"
base_dir=$(scripts/export_base.sh "$base" ./bench/perf/perf.exe)
out="$ab/out"
mkdir -p "$out"
rm -f "$out"/*

echo "perf-ab: building the working tree" >&2
dune build ./bench/perf/perf.exe
mkdir -p "$ab/new"
cp -f _build/default/bench/perf/perf.exe "$ab/new/perf.exe"

# side -> (working directory, executable)
side_dir() { if [ "$1" = base ]; then echo "$base_dir"; else echo "$root"; fi; }
side_exe() {
  if [ "$1" = base ]; then echo "$base_dir/_build/default/bench/perf/perf.exe"
  else echo "$ab/new/perf.exe"; fi
}

run_bench() { # side workload pair
  local f="$out/$2.$1.$3.txt"
  echo "perf-ab: $2 pair $3 $1" >&2
  (cd "$(side_dir "$1")" && "$(side_exe "$1")" bench --workload "$2" --seed "$seed" \
     --seconds "$secs" --trace 0 >"$f" 2>&1) || true
}

for w in $workloads; do
  for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then run_bench base "$w" "$i"; run_bench new "$w" "$i"
    else run_bench new "$w" "$i"; run_bench base "$w" "$i"; fi
  done
  for s in base new; do
    echo "perf-ab: $w checksum run $s" >&2
    (cd "$(side_dir "$s")" && "$(side_exe "$s")" run --workload "$w" --seed "$seed" \
       --json "$out/$w.$s.run.json" --trace "$out/$w.$s.trace.json" \
       >"$out/$w.$s.run.txt" 2>&1) || true
  done
done

python3 - "$out" "$pairs" "$seed" $workloads <<'PY'
import json, os, statistics, sys

out, pairs, seed, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4:]
spec = {m["name"]: m for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
virtual = lambda unit: unit.startswith("v") or "/v" in unit
# per-layer values fixed by the seed: any difference is a changed result
COUNTERS = {
    "wal.bytes_per_txn", "wal.fsyncs", "wal.snapshots", "wal.group_txns",
    "cdc.events_per_txn", "cdc.bytes_per_txn", "cdc.lag_max",
    "quecc.cascades", "quecc.batch_txns", "storage.probes_per_txn",
    "storage.inserts_per_txn", "workloads.frags_per_txn",
}
bad = []

def last_json(path):
    try:
        lines = [l for l in open(path).read().splitlines() if l.startswith("{")]
        return json.loads(lines[-1]) if lines else None
    except OSError:
        return None

def quartiles(xs):
    return (xs[0], xs[0]) if len(xs) == 1 else tuple(statistics.quantiles(xs, n=4)[::2])

print(f"seed {seed}, {pairs} pairs; NEW = working tree")
print(f"{'workload':13} {'metric':13} {'base med':>10} {'base q1-q3':>21} "
      f"{'new med':>10} {'new q1-q3':>21} {'new/base':>8} {'wins':>6}")
for w in workloads:
    runs = {s: [last_json(f"{out}/{w}.{s}.{i}.txt") for i in range(1, pairs + 1)]
            for s in ("base", "new")}
    for s, rs in runs.items():
        for i, r in enumerate(rs, 1):
            if r is None or not r.get("correct") or r.get("failed", 0) > 0:
                bad.append(f"{w} {s} pair {i}: run failed or incorrect "
                           f"(see {out}/{w}.{s}.{i}.txt)")
    ok = [i for i in range(pairs) if runs["base"][i] and runs["new"][i]]
    if not ok:
        continue
    for name, m in spec.items():
        b = [runs["base"][i]["metrics"][name]["value"] for i in ok]
        n = [runs["new"][i]["metrics"][name]["value"] for i in ok]
        if virtual(m["unit"]) and len(set(b + n)) != 1:
            bad.append(f"{w} {name}: virtual metric differs: base {sorted(set(b))} "
                       f"new {sorted(set(n))}")
        higher = m["better"] == "higher"
        wins = sum((y > x) if higher else (y < x) for x, y in zip(b, n))
        bq, nq = quartiles(b), quartiles(n)
        bm, nm = statistics.median(b), statistics.median(n)
        ratio = nm / bm if bm else float("nan")
        print(f"{w:13} {name:13} {bm:10.4g} {bq[0]:10.4g}-{bq[1]:<10.4g} "
              f"{nm:10.4g} {nq[0]:10.4g}-{nq[1]:<10.4g} {ratio:8.3f} "
              f"{wins:>3}/{len(ok)}")
    sides = {s: json.load(open(f"{out}/{w}.{s}.run.json"))
             if os.path.exists(f"{out}/{w}.{s}.run.json") else None
             for s in ("base", "new")}
    if not all(sides.values()):
        bad.append(f"{w}: checksum run failed (see {out}/{w}.*.run.txt)")
        continue
    if sides["base"]["checksum"] != sides["new"]["checksum"]:
        bad.append(f"{w}: committed-state checksum differs: "
                   f"{sides['base']['checksum']} vs {sides['new']['checksum']}")
    for name, v in sides["base"]["per_layer"].items():
        nv = sides["new"]["per_layer"].get(name)
        kind = ("virtual metric" if virtual(v["unit"])
                else "counter" if name in COUNTERS else None)
        if kind and (nv is None or nv["value"] != v["value"]):
            bad.append(f"{w} {name}: {kind} differs: {v['value']} vs "
                       f"{nv and nv['value']}")
for line in bad:
    print("perf-ab: " + line)
print("perf-ab: " + ("FAILED" if bad else
                      "virtual metrics, counters and checksums identical"))
sys.exit(1 if bad else 0)
PY
