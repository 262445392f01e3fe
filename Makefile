# Convenience targets for the reproduction workflow.

PYTHON ?= python

.PHONY: install test lint bench bench-smoke bench-perf bench-columnar backend-equivalence http-wire service-smoke fleet-smoke graphplane-smoke delta-smoke experiments examples coverage clean

install:
	pip install -e .

test:
	$(PYTHON) -m pytest tests/

# Static checks (config in pyproject.toml [tool.ruff]).
lint:
	ruff check src tests benchmarks examples

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Tiny batched sweep exercising the parallel path on every CI run:
# a cold run must compute all jobs, the warm rerun must serve every one
# of them from the cache with identical aggregate traffic, and the
# --emit-metrics JSONL must round-trip through the sweep aggregator.
# All scratch state lives in a tempdir cleaned up even on failure —
# see benchmarks/smoke_check.py.
bench-smoke: export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))
bench-smoke:
	$(PYTHON) benchmarks/smoke_check.py

# Perf-gate smoke: time the tiny hot-path matrix and gate it against the
# committed BENCH_runner.json with a wide (3x) cross-machine tolerance.
# Writes the fresh measurement to bench_current.json (uploaded as a CI
# artifact).  Full matrix / rebaseline: `python -m repro bench --repeats 5
# --out BENCH_runner.json` on the reference machine.  See
# docs/performance.md.
bench-perf: export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))
bench-perf:
	$(PYTHON) benchmarks/perf_gate.py --tiny --repeats 2 \
		--baseline BENCH_runner.json --tolerance 3.0 \
		--out bench_current.json

# Columnar perf gate: two 10^5-node columnar cells (RNG-free mis-det,
# RNG-bound mis-luby) gated against the committed baseline at the same
# wide cross-machine tolerance.  Catches a columnar backend that
# silently lost its vectorized fast path (e.g. an always-on
# FleetFallback, or per-node PCG64 streams back in the kernels).
bench-columnar: export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))
bench-columnar:
	$(PYTHON) benchmarks/perf_gate.py --matrix columnar-tiny --repeats 2 \
		--baseline BENCH_runner.json --tolerance 3.0 \
		--out bench_columnar.json

# Backend byte-identity and the cache sharing it licenses.  Columnar is
# the default backend; per-node is the reference scheduler, and every
# test here names it on its reference side (an unnamed side would run
# columnar).  The golden-sha256 family suite (per-node, columnar and the
# default), the same goldens and by-ref solves through the graph store,
# the CSR edge cases (edgeless and zero-node solves), the backend
# unit/fallback/cache suite (per-node and columnar twins share one
# request key and one disk entry), the hypothesis equivalence properties
# (protocols through run(), every registry algorithm through solve()),
# and the incremental path finding a parent on disk under either
# backend — the subset of tier 1 that pins columnar to the per-node
# reference's reports and to one shared cache.
backend-equivalence: export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))
backend-equivalence:
	$(PYTHON) -m pytest -q \
		tests/test_faults/test_runner_faults.py \
		tests/test_graphs/test_store_goldens.py \
		tests/test_graphs/test_csr_edge_cases.py \
		tests/test_simulator/test_backends.py \
		tests/test_properties/test_backend_equivalence.py \
		"tests/test_service/test_delta_plane.py::TestSolveModeGoldens::test_weight_only_delta_served_from_disk_tier"

# HTTP wire suite: hostile bytes (malformed request lines, bad
# Content-Length, header floods, over-long lines, truncated bodies,
# pipelining, HEAD, a hypothesis fuzz) against both the worker server
# and the fleet router.  -X dev turns on asyncio debug mode and
# unclosed-resource warnings.  See tests/test_service/test_http_wire.py.
http-wire:
	PYTHONPATH=src $(PYTHON) -X dev -m pytest -q tests/test_service/test_http_wire.py

# Solver-service smoke: start `repro serve` on an ephemeral port, check
# /v1/health, assert one fixed-seed HTTP solve is byte-identical to
# repro.api.solve, run the open-loop load client in-process (uniform
# arrivals, 20 req/s for 5 s, over 504 zoo requests so most requests
# run the solver; every unique report re-certified), gate that run on
# the SLOs (p50 <= 500 ms, p95 <= 2000 ms, p99 <= 5000 ms, error rate
# <= 2%, achieved rate >= 5 req/s, solver executions >= 80% of
# completed requests), then SIGTERM and assert a clean drain.  Writes
# bench_service_current.json for the CI artifact upload.  See
# benchmarks/service_smoke.py and docs/service.md.
service-smoke: export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))
service-smoke:
	$(PYTHON) benchmarks/service_smoke.py --keep-bench

# Sharded-fleet smoke: start `repro fleet` (router + 2 worker
# subprocesses) on an ephemeral port, assert /v1/ready + /v1/health,
# prove coalescing survives sharding (K unique fingerprints under
# concurrent duplicates -> exactly K solver executions fleet-wide),
# check byte-identity against repro.api.solve, run a seeded open-loop
# Poisson burst, then SIGTERM and assert the whole fleet drains.
# Writes bench_fleet_current.json for the CI artifact upload.  See
# benchmarks/fleet_smoke.py and docs/service.md ("Fleet").
fleet-smoke: export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))
fleet-smoke:
	$(PYTHON) benchmarks/fleet_smoke.py --keep-bench

# Graph-plane smoke: start `repro serve --graph-store`, register a
# graph binary blob (POST /v1/graphs), assert a graph_ref solve is
# byte-identical to the body solve and to repro.api.solve, measure the
# ingest-once-solve-many cells (10^4/10^5 nodes, ref path must beat
# the body path >= 5x on fresh solves of the 10^5 cell), evict, drain
# cleanly on SIGTERM, and assert that a SIGKILLed server's orphaned
# pool workers exit on SIGTERM.  Writes bench_graphplane_current.json
# for the CI artifact upload.  See benchmarks/graphplane_smoke.py and
# docs/service.md ("Graph registry").
graphplane-smoke: export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))
graphplane-smoke:
	$(PYTHON) benchmarks/graphplane_smoke.py --keep-bench

# Delta-plane smoke: in-process engine on the 10^5-node cell, parent
# report warmed into the memory tier, then per epoch one full re-solve
# of an edited child (register + solve by ref) vs one delta-form solve
# served incrementally from the parent's cached report.  Asserts the
# incremental report is byte-identical to the from-scratch solve, that
# topology edits fall back to the full path, and that the incremental
# path is >= 3x faster at <= 1% edit distance.  Writes
# bench_delta_current.json for the CI artifact upload.  See
# benchmarks/delta_smoke.py and docs/service.md ("Deltas").
delta-smoke: export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))
delta-smoke:
	$(PYTHON) benchmarks/delta_smoke.py --keep-bench

# Regenerate every experiment table (E1..E13) to stdout.
experiments:
	$(PYTHON) -m repro experiments

examples:
	for f in examples/*.py; do echo "== $$f =="; $(PYTHON) $$f; echo; done

# The final artifacts recorded in the repository.
record:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

clean:
	rm -rf build dist src/*.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
