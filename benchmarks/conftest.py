"""Shared benchmark configuration.

Benchmarks regenerate the paper's tables and figures.  They are *not*
micro-benchmarks: each runs a full simulation campaign once (pedantic
mode, one round) and prints the paper-format table, then asserts the
paper's qualitative claims (who wins, roughly by how much).

Budgets come from the environment:

* ``REPRO_INSTRUCTIONS`` — dynamic instructions per kernel (default 6000)
* ``REPRO_WORKLOADS``    — comma-separated kernel subset
* ``REPRO_JOBS``         — campaign worker processes (default: all CPUs);
  campaigns run through :mod:`repro.exec`, so results are identical at
  any worker count
"""

import pytest


@pytest.fixture(autouse=True)
def hermetic_result_store(tmp_path, monkeypatch):
    """Benchmarks must not read or pollute a developer's .repro-cache/."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))
    monkeypatch.delenv("REPRO_STORE", raising=False)
    # Ambient chaos / timeout knobs would skew every timing below; the
    # figure scripts always run fault-free.
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_JOB_TIMEOUT", raising=False)


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


@pytest.fixture
def once(benchmark):
    def _run(fn):
        return run_once(benchmark, fn)

    return _run
