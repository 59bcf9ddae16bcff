"""The campaign's retry policy, and the one env knob that bounds it.

A job is a deterministic function of its spec, so a job that raised or
overran would do it again: nothing re-runs it.  Only a job lost with its
pool re-runs (``tests/faults/test_recovery.py`` pins that).
``REPRO_JOB_TIMEOUT`` reaps pooled attempts after that many seconds
(``0`` or less turns the timeout off), and a malformed value is an
error rather than a silently ignored knob.
"""

import pytest

from repro.exec import job_timeout


@pytest.mark.parametrize("env, expected", [
    ({}, None),
    ({"REPRO_JOB_TIMEOUT": "1.5"}, 1.5),
    ({"REPRO_JOB_TIMEOUT": "0"}, None),
    ({"REPRO_JOB_TIMEOUT": "-2"}, None),
], ids=["defaults", "timeout", "zero-timeout-is-off",
        "negative-timeout-is-off"])
def test_policy_from_env(monkeypatch, env, expected):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert job_timeout() == expected


@pytest.mark.parametrize("name, value", [("REPRO_JOB_TIMEOUT", "soon")])
def test_policy_from_env_rejects_malformed_values(monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    with pytest.raises(ValueError, match=name):
        job_timeout()
