# Convenience targets for the V-System reproduction.

.PHONY: install test bench bench-test bench-pair bench-ledger chaos-smoke report-smoke verify-smoke examples demo trace-demo all

install:
	pip install -e . || python setup.py develop

test:
	python -m pytest tests/

bench:
	python -m pytest benchmarks/ --benchmark-only

# The outside-in benchmark's own tests (bench/test_bench.py, ~20 s):
# runner, child and compare.py on short workloads, outside tier-1.
bench-test:
	python -m pytest bench -q -p no:cacheprovider

# Parent-vs-change pairs of the outside-in benchmark (bench/README.md,
# "Claiming a gain", steps 2 and 4): PAIRS alternating runs of
# bench/run.py at PARENT, checked out in a temporary git worktree
# (bench-pair/worktree), and at this checkout, into bench-pair/parent/
# and bench-pair/change/, then bench/compare.py on the two.  Commit
# first: compare.py refuses a record whose src/ differs from its commit.
PARENT ?= HEAD~1
PAIRS ?= 10
bench-pair:
	set -e; rm -rf bench-pair; git worktree prune; \
	mkdir -p bench-pair/parent bench-pair/change; \
	trap 'git worktree remove --force bench-pair/worktree' EXIT; \
	git worktree add --detach bench-pair/worktree $(PARENT); \
	for i in $$(seq 1 $(PAIRS)); do \
	  if [ $$((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi; \
	  for side in $$order; do \
	    if [ $$side = parent ]; then dir=bench-pair/worktree; else dir=.; fi; \
	    echo "== pair $$i: $$side"; \
	    (cd "$$dir" && python3 bench/run.py --out "$(CURDIR)/bench-pair/$$side/$$i.json" > /dev/null); \
	  done; \
	done; \
	python3 bench/compare.py bench-pair/parent bench-pair/change

# Append one row per workload to BENCH_<workload>.json from the records
# bench-pair left: per side n, median and IQR of wall_s, setup_s and
# peak_rss_mb, cores, Python, sha and src tree (tools/bench_ledger.py).
bench-ledger:
	python3 tools/bench_ledger.py bench-pair/parent bench-pair/change

# Fixed-seed fault-injection campaign: every fault schedule x 10 seeds
# with the invariant harness watching every event (see docs/FAULTS.md).
# Exits non-zero if any of the four invariants is ever violated.
chaos-smoke:
	python -m repro chaos --seeds 10 --seed 7 --workers 2 --messages 20

# Differential verification smoke: the fixed 12-cell list over the
# chaos scenario (the baseline plain and perturbed, every fault
# schedule) must pass clean, and with lazy rebinding broken -- the same
# --break-rebinding flag chaos takes -- every cell must fail (a harness
# that has never failed proves nothing).  See docs/TESTING.md.
verify-smoke:
	python -m repro verify --seed 7
	python -m repro verify --seed 7 --break-rebinding --expect-fail

# Regenerate the canonical migration RunReport and diff it against the
# checked-in BASELINE_report.json within a 1% tolerance: simulated
# metrics, KPIs and the freeze-phase accounting must not drift (the
# wall section is informational and never compared).  Exits non-zero
# on any out-of-tolerance delta, with per-subsystem attribution.
report-smoke:
	python -m repro report --seed 0 --out run_report.json
	python -m repro diff BASELINE_report.json run_report.json

examples:
	for e in examples/*.py; do echo "== $$e"; python $$e; done

demo:
	python -m repro demo

# Run a traced migration and emit a Chrome/Perfetto timeline; open
# timeline.json in https://ui.perfetto.dev to browse it.
trace-demo:
	python -m repro trace --program optimizer --out timeline.json
	@echo "wrote timeline.json (load it at https://ui.perfetto.dev)"

all: install test bench
