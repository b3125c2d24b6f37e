# Convenience targets for the repro library.

PYTHON ?= python
# Pool size for the parallel sweep benchmarks (sweep-bench target).
REPRO_BENCH_WORKERS ?= 4

.PHONY: install test bench bench-full sweep-bench sweep-tests engine-bench faults-bench obs-bench boot-profile examples artifacts clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

# Tier-1: the gate CI runs, and the one every change must keep green.
test:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m pytest -x -q

bench:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m pytest benchmarks/ --benchmark-only

# Full paper-scale regeneration (122,055-job trace; 1 min 49 s with
# REPRO_BENCH_WORKERS=2 on a 2-vCPU host).
bench-full:
	REPRO_BENCH_FULL=1 PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m pytest benchmarks/ --benchmark-only

# Sweep throughput gate: the Figure 5 grid end-to-end through the pool
# (shared-memory fan-out, one spec per unit), written machine-readably to
# benchmarks/results/BENCH_sweep.json; fails if throughput drops >10% below
# the recorded columnar-data-plane baseline.
sweep-bench:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) benchmarks/sweep_bench.py --workers $(REPRO_BENCH_WORKERS)

# The sweep experiments through the multi-process executor + result cache.
sweep-tests:
	REPRO_BENCH_WORKERS=$(REPRO_BENCH_WORKERS) PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m pytest \
		benchmarks/test_sweep_parallel.py \
		benchmarks/test_fig5_utilization.py \
		benchmarks/test_fig6_slowdown.py \
		benchmarks/test_fig8_memory_sweep.py \
		benchmarks/test_replication.py \
		--benchmark-only

# Engine throughput gate: best-of-N single-run jobs/s plus a sweep slice,
# written machine-readably to benchmarks/results/BENCH_engine.json; fails
# if throughput drops >10% below the recorded pre-optimization baseline.
engine-bench:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) benchmarks/engine_bench.py

# The fault-injection study (§2.1 "faulty machines") plus the executor's
# crash-resilience stress tests (worker SIGKILL, timeout, resume from cache).
faults-bench:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m pytest benchmarks/test_faults.py --benchmark-only
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m pytest tests/experiments/test_resilience.py tests/sim/test_faults.py -q

# Observer-overhead gate: fails if the null observer costs >5% over a bare
# run (REPRO_OBS_TOLERANCE to adjust); also times the JSONL trace writer.
obs-bench:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m pytest benchmarks/test_obs_overhead.py -q -s

# The 20 largest import self times (us) of a service boot, compiled from
# source as a host without a bytecode cache pays them: a module that lands
# on the boot path shows up here.  Then the number of `repro` modules the
# boot loads and whether it loaded numpy.  Run `make clean` first to drop
# the __pycache__ directories a test run leaves in src/.
boot-profile:
	@echo "  self us     cum us  module"
	@PYTHONDONTWRITEBYTECODE=1 PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -X importtime -c "import repro.service" 2>&1 >/dev/null \
		| awk -F'|' '/^import time: *[0-9]/ { sub(/^import time: */, "", $$1); printf "%9d  %9d  %s\n", $$1, $$2, $$3 }' \
		| sort -n -r | head -20
	@PYTHONDONTWRITEBYTECODE=1 PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -c "import sys, repro.service; \
		print(sum(m.startswith('repro') for m in sys.modules), 'repro modules; numpy loaded:', 'numpy' in sys.modules)"

examples:
	@for ex in examples/*.py; do echo "== $$ex =="; PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) $$ex || exit 1; done

# The deliverable logs referenced by EXPERIMENTS.md.
artifacts:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

# Leaves benchmarks/results/ alone: its BENCH_*.json baselines and the
# fig/table artifacts EXPERIMENTS.md cites are tracked files.
clean:
	rm -rf .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
