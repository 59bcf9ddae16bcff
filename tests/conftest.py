"""Shared test configuration: a hermetic disk store per test.

The on-disk result store (:mod:`repro.exec.store`) is on by default, so
without this fixture the suite would read — and pollute — whatever
``.repro-cache/`` the developer has accumulated, making test outcomes
depend on machine state.  Every test instead gets a private store root
under its own ``tmp_path``; tests that want the store off entirely set
``REPRO_STORE=0`` via ``monkeypatch`` on top of this.
"""

import pytest


@pytest.fixture(autouse=True)
def hermetic_result_store(tmp_path, monkeypatch):
    """Point REPRO_CACHE_DIR at a per-test tmpdir; neutralise REPRO_STORE;
    start from an empty RAM memo.

    Fault-tolerance knobs are likewise neutralised: a developer running
    the suite under ``REPRO_FAULTS`` (or a timeout override) must not
    change test outcomes — chaos is opt-in per test.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))
    monkeypatch.delenv("REPRO_STORE", raising=False)
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_JOB_TIMEOUT", raising=False)
    # Telemetry is observation-only, but a developer's REPRO_TRACE must
    # not scatter obs logs through test stores (or flip report output).
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    monkeypatch.delenv("REPRO_OBS_DIR", raising=False)
    monkeypatch.delenv("REPRO_REPORT", raising=False)
    # The RAM memo is process-global: a result an earlier test computed
    # would turn this test's campaign into a memo hit that records no
    # `job` span and computes nothing.
    from repro.exec import RESULT_CACHE

    RESULT_CACHE.clear()
    # A stray activation (or published counters) from a prior in-process
    # test must not leak into this one's registry or logs.
    from repro.obs import metrics as obs_metrics
    from repro.obs import trace as obs_trace

    obs_trace.deactivate()
    obs_metrics.REGISTRY.clear()
    yield
    obs_trace.deactivate()
    obs_metrics.REGISTRY.clear()
