# Developer entry points.  `make test` is the tier-1 gate; `make lint`
# mirrors CI's lint job (ruff + mypy; `pip install -e ".[lint]"` once);
# `make bench` produces a pytest-benchmark json; `make bench-check`
# additionally fails when the scalar-vs-batch speedup ratios regress >25%
# against the committed baseline (the latest BENCH_<n>.json).  Ratios are
# machine-independent — both sides of each ratio are measured in the same
# run — so the gate holds on slow shared runners where absolute means
# drift.

PYTHON ?= python
BENCH_JSON ?= bench_current.json
BENCH_BASELINE ?= BENCH_5.json
BENCH_TOLERANCE ?= 0.25
SERVICE_JSON ?= bench_service_current.json
SERVICE_BASELINE ?= BENCH_6.json
# Service ratios fold in OS scheduling and pool spawn, so they are
# noisier than kernel ratios; the wider tolerance still catches a lost
# warm pool (the gated ratio collapses ~10x when every request respawns).
SERVICE_TOLERANCE ?= 0.5
KERNELS_JSON ?= bench_kernels_current.json
PARALLEL_JSON ?= bench_parallel_current.json
PARALLEL_BASELINE ?= BENCH_9.json
# Serial-vs-threaded ratios depend on how loaded the runner's cores are;
# the hard guarantee (bit-identity against serial) is asserted inside
# bench_parallel.py itself.
PARALLEL_TOLERANCE ?= 0.5
COV_FLOOR ?= 85

.PHONY: test test-legs lint cov bench bench-check \
	bench-service bench-service-check \
	bench-kernels bench-parallel \
	bench-parallel-check smoke suite-smoke tables

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# Tier-1 under each env leg CI runs beside the plain suite: RNG
# discipline v2 (the batch-native streams through every service and
# montecarlo test; the pinned bit-identity suites keep checking v1), the
# process solve cache off (scalar and batch sides solve their own LPs),
# and two kernel threads (vectorized batches that step against a
# threshold matrix run thread-sharded, bit-identical to serial; every
# other batch ignores the host setting).
test-legs:
	PYTHONPATH=src REPRO_DISCIPLINE=v2 $(PYTHON) -m pytest -x -q
	PYTHONPATH=src REPRO_SOLVE_CACHE=0 $(PYTHON) -m pytest -x -q
	PYTHONPATH=src REPRO_KERNEL_THREADS=2 $(PYTHON) -m pytest -x -q

# CI's lint job, locally: ruff for style/imports, ruff format for layout,
# mypy (permissive config in pyproject.toml) for obvious type breakage.
lint:
	$(PYTHON) -m ruff check src tests benchmarks
	$(PYTHON) -m ruff format --check src tests benchmarks
	$(PYTHON) -m mypy src/repro

# CI's coverage leg, locally (needs pytest-cov: `pip install pytest-cov`).
cov:
	PYTHONPATH=src $(PYTHON) -m pytest -q --cov=repro \
		--cov-report=term --cov-report=xml --cov-fail-under=$(COV_FLOOR)

bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_kernels.py \
		benchmarks/bench_batch.py benchmarks/bench_adaptive.py \
		benchmarks/bench_ablation_adaptive.py \
		benchmarks/bench_ablation_rounds.py \
		benchmarks/bench_ablation_segments.py \
		benchmarks/bench_ablation_rounding.py \
		--benchmark-json=$(BENCH_JSON) -q

bench-check: bench
	$(PYTHON) benchmarks/check_regression.py $(BENCH_BASELINE) $(BENCH_JSON) \
		--mode ratio --tolerance $(BENCH_TOLERANCE)

# Scheduling-as-a-service benchmarks: executor lifecycle ratios
# (per-request pool spawn vs warm pool) and full-stack latency columns.
bench-service:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_service.py \
		--benchmark-json=$(SERVICE_JSON) -q

bench-service-check: bench-service
	$(PYTHON) benchmarks/check_regression.py $(SERVICE_BASELINE) \
		$(SERVICE_JSON) --mode ratio --tolerance $(SERVICE_TOLERANCE)

# Stepping-kernel benchmarks at 10k trials: the chain-heavy and greedy
# kernel rows (recorded, ungated; BENCH_8.json holds the trajectory).
bench-kernels:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_kernels.py \
		--benchmark-json=$(KERNELS_JSON) -q

# Trial-parallelism benchmarks: serial vs REPRO_KERNEL_THREADS pairs at 10k
# trials — the GIL-bound v2 greedy trial-shard row (the one route that
# shards); the threaded side hard-asserts bit-identity against serial
# in-bench.
bench-parallel:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_parallel.py \
		--benchmark-json=$(PARALLEL_JSON) -q

bench-parallel-check: bench-parallel
	$(PYTHON) benchmarks/check_regression.py $(PARALLEL_BASELINE) \
		$(PARALLEL_JSON) --mode ratio --tolerance $(PARALLEL_TOLERANCE)

# End-to-end service smoke: boot `repro serve`, drive ~5s of open-loop
# constant-RPS load, assert zero errors + p99 sanity, SIGTERM gracefully.
smoke:
	$(PYTHON) benchmarks/smoke_service.py

# End-to-end suite-runner smoke: run the committed 2-cell suite through
# the CLI — first run executes everything, the reruns (plain, then under
# REPRO_KERNEL_THREADS=2) must be 100% content-address cache hits, and
# deleting one artifact re-executes exactly that cell (with --jobs 2, on
# a worker pool, to an equal result).
suite-smoke:
	$(PYTHON) benchmarks/smoke_suite.py

# Regenerate every experiment table at bench size (slow).
tables:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_*.py --benchmark-only
