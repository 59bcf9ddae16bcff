# Developer entry points for the iCFP (HPCA 2009) reproduction.
#
# `make smoke` is the fast verification path: a reduced instruction
# budget and kernel subset that exercises every layer (workloads,
# functional executor, all five machine models, the campaign engine)
# in well under a minute, so the full suite isn't the only signal.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

# Fast-profile knobs (override on the command line as needed).
SMOKE_INSTRUCTIONS ?= 1200
SMOKE_WORKLOADS ?= mcf_like,mesa_like,equake_like,gzip_like
SMOKE_TESTS ?= tests/functional tests/isa tests/exec tests/faults tests/harness \
	tests/engine tests/workloads tests/wgen tests/stats tests/obs tests/branch \
	tests/memory tests/pipeline tests/baselines tests/core tests/integration \
	tests/test_doc_references.py tests/test_examples.py
# Smoke deselects @pytest.mark.slow (wide fixed-budget grids that ignore
# the REPRO_* fast profile); the full suite always runs them.
SMOKE_MARKERS ?= not slow

# Chaos profile: the full fault-injection matrix (worker deaths, pool
# resurrection, timeouts, SIGKILL-resume, store corruption) at a fixed
# seed — deterministic, so a chaos failure reproduces exactly.
CHAOS_TESTS ?= tests/faults

.PHONY: test smoke smoke-campaign leap-audit chaos bench claims profile trace

# Fast leap-audit slice for `make smoke`: two miss-heavy kernels at the
# short budget plus the formerly-divergent cells, leap vs reference
# (the full sweep is `make leap-audit`).
LEAP_SMOKE ?= formerly or ((mcf_like or equake_like) and 800)

## Full tier-1 suite (slow: full instruction budgets).  The fast smoke
## profile — which includes the golden cycle/stats fixtures in
## tests/engine — runs first so engine-equivalence breaks fail in
## seconds, not after the long campaign tests.
test: smoke
	$(PYTHON) -m pytest -x -q

## Fast end-to-end check: reduced budget, kernel subset.  Includes the
## golden-fixture regression tests (tests/engine/test_golden_regression.py),
## which always simulate at their own pinned budget, and the disk-store
## round-trip tests (tests/exec/test_store.py) — every smoke run
## exercises store put/get/corrupt-fallback against hermetic tmpdirs.
smoke:
	REPRO_INSTRUCTIONS=$(SMOKE_INSTRUCTIONS) \
	REPRO_WORKLOADS=$(SMOKE_WORKLOADS) \
	$(PYTHON) -m pytest -x -q -m "$(SMOKE_MARKERS)" $(SMOKE_TESTS)
	$(PYTHON) -m pytest -x -q tests/engine/test_leap_audit.py \
		-k "$(LEAP_SMOKE)"

## The event-horizon leap's correctness contract at full width: every
## suite kernel x every machine model x two budgets, leap engine vs
## cycle-by-cycle reference engine (leap=False), full-stats equality —
## plus the idle-skip micro-programs and the formerly-divergent cells
## at two L2 latencies.  Run this after touching any `step_cycle`,
## `_head_wakeup` / `next_event_cycle` override or mode machinery.
leap-audit:
	$(PYTHON) -m pytest -q tests/engine/test_leap_audit.py \
		tests/engine/test_idle_skip.py

## The same profile through the CLI: one real campaign, printed.
smoke-campaign:
	REPRO_INSTRUCTIONS=$(SMOKE_INSTRUCTIONS) \
	$(PYTHON) -m repro figure5 -w $(SMOKE_WORKLOADS)

## The complete fault-injection matrix, slow tests included: jobs lost
## to injected worker deaths re-run to byte-identical results, pool
## resurrection and sequential degradation, per-job timeouts that fail
## only the overdue cell, a real SIGKILL mid-campaign (sequential and
## pooled) with fresh-process resume, pool workers exiting with a
## SIGKILLed coordinator, and store truncation -> quarantine -> heal.  Everything is seed-driven (no
## randomness), so failures replay deterministically.
chaos:
	$(PYTHON) -m pytest -x -q $(CHAOS_TESTS)

## The repo's benchmark (BENCHMARK.json): `benchmarks/perf/run.py` on
## each of its four workloads in turn, printing every run's report and
## closing JSON line (`correct`, `failed`, the end-to-end metrics);
## about 2 min at the default 30 s per workload.  Stops at the first
## run that crashes or whose closing line is not `"correct": true`.
## Per-layer costs: `python3 benchmarks/perf/run.py --workload W --trace 1`.
bench:
	for w in fig5-grid miss-bound hit-bound gen-campaign; do \
		out=$$($(PYTHON) benchmarks/perf/run.py --workload $$w); status=$$?; \
		printf '%s\n' "$$out"; \
		[ $$status -eq 0 ] || exit $$status; \
		printf '%s\n' "$$out" | tail -n 1 | $(PYTHON) -c \
			'import json, sys; sys.exit(json.load(sys.stdin)["correct"] is not True)' \
			|| { echo "bench: $$w is not correct" >&2; exit 1; }; \
	done

## The paper's qualitative claims: the 12 checks in benchmarks/bench_*.py
## (who wins, roughly by how much), each a full campaign run once with
## pytest-benchmark's timing off; about 30 s with REPRO_JOBS=2.  Not part
## of `make test`: a failing claim is a fidelity finding, not a broken
## build.
claims:
	$(PYTHON) -m pytest -q -o python_files='bench_*.py' benchmarks \
		--benchmark-disable

## cProfile one in-process pass of the benchmark's Figure 5 grid
## workload and write its top-25 self-time rows to profile.out, each
## tagged with the layer metric that owns it — the one-command answer
## to "what should the next perf change attack".
profile:
	$(PYTHON) benchmarks/perf/run.py --profile fig5-grid > profile.out

## Traced smoke campaign: run the fast-profile grid on a 2-worker pool
## with span tracing on, then export the merged obs logs to a Chrome
## trace-event file (load trace.chrome.json in Perfetto / about:tracing
## to see the coordinator and each worker as its own track).
trace:
	REPRO_INSTRUCTIONS=$(SMOKE_INSTRUCTIONS) \
	REPRO_TRACE=1 \
	$(PYTHON) -m repro figure5 -w $(SMOKE_WORKLOADS) -j 2
	$(PYTHON) -m repro obs export --chrome -o trace.chrome.json
	@echo "wrote trace.chrome.json (open in Perfetto: https://ui.perfetto.dev)"
