SMOKE_TRACE := /tmp/quill-smoke-trace.json
SMOKE_OUT := /tmp/quill-smoke.out
SMOKE_ERR := /tmp/quill-smoke.err
BENCH_TARGETS := durability cdc pipeline skew failover

.PHONY: all build test lint check bench-check bench-diff perf-ab clean

all: build

build:
	dune build

test:
	dune runtest

# quill-check determinism lint: exits 1 on any unwaived finding.
lint:
	dune exec bin/quill_lint.exe

# Full verification: build, test suite (with the extension experiments'
# claims, bench/dune), determinism lint, then CLI smoke runs: one exports
# a trace (test_harness checks the exporter's JSON) and replays the
# planned-order conflict check; one drives a per-transaction engine in
# open loop with deadlines and retries; a non-finite --deadline must be
# rejected with exit 2; and so
# must a zero batch size (with a one-line message naming the flag), an
# unwritable --trace path and a non-finite bench scale, before the run
# prints anything (the last one writing no --json file); and a YCSB table
# whose last partition is smaller than a transaction's key draw, under a
# timeout so that a regression fails instead of hanging.
check: build test lint
	dune exec bin/quill_cli.exe -- run --engine quecc --workload ycsb \
	  --txns 2048 --batch 512 --trace $(SMOKE_TRACE) --phase-table \
	  --pipeline --steal --check-conflicts
	dune exec bin/quill_cli.exe -- run --engine calvin --txns 2048 \
	  --arrival 200000 --admission deadline:64 --deadline 20us --retries 2
	dune exec bin/quill_cli.exe -- run --engine calvin --txns 2048 \
	  --arrival 200000 --admission deadline:64 --deadline inf; \
	  test $$? -eq 2
	dune exec bin/quill_cli.exe -- run --batch 0 2>$(SMOKE_ERR); \
	  test $$? -eq 2 && grep -q -- '--batch must be' $(SMOKE_ERR)
	timeout 60 dune exec bin/quill_cli.exe -- run --workload ycsb \
	  --table-size 20 --threads 8; test $$? -eq 2
	dune exec bin/quill_cli.exe -- run --txns 512 \
	  --trace /nonexistent/t.json >$(SMOKE_OUT); \
	  test $$? -eq 2 && test ! -s $(SMOKE_OUT)
	rm -f /tmp/quill-inf.json
	dune exec bench/main.exe -- pipeline inf --json /tmp/quill-inf.json \
	  >$(SMOKE_OUT); test $$? -eq 2 && test ! -s $(SMOKE_OUT) \
	  && test ! -e /tmp/quill-inf.json

# Regenerate every checked-in BENCH_*.json at scale 1 and fail on any
# difference: their numbers are deterministic virtual time, so a change
# that moves one must regenerate and commit it.
bench-check: build
	for t in $(BENCH_TARGETS); do \
	  dune exec --no-print-directory bench/main.exe -- $$t 1 \
	    --json BENCH_$$t.json > /dev/null || exit 1; \
	done
	git diff --exit-code -- $(BENCH_TARGETS:%=BENCH_%.json)

# Byte-identity of every bench target's stdout and JSON at scale 0.25:
# BASE (a git revision, required) against the working tree.  Exits 1 on
# any difference.
bench-diff:
	scripts/bench_diff.sh --base '$(BASE)'

# Wall-clock A/B of bench/perf: BASE (a git revision, required) against
# the working tree, PAIRS alternating runs of SECONDS each per workload.
# Exits 1 if a virtual metric or checksum differs for the same seed.
PAIRS ?= 10
SECONDS ?= 20
SEED ?= 42
WORKLOADS ?= ycsb-pipe tpcc-durable ycsb-hot-nd ycsb-open

perf-ab:
	scripts/perf_ab.sh --base '$(BASE)' --pairs $(PAIRS) --seconds $(SECONDS) \
	  --seed $(SEED) --workloads '$(WORKLOADS)'

clean:
	dune clean
