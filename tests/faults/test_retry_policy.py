"""RetryPolicy: the env knobs that bound a campaign's retries.

``REPRO_RETRIES`` counts *extra* attempts (so ``0`` still runs each job
once), ``REPRO_JOB_TIMEOUT`` reaps pooled attempts after that many
seconds (``0`` or less turns the timeout off), and a malformed value
is an error rather than a silently ignored knob.
"""

import pytest

from repro.exec import RetryPolicy
from repro.exec.engine import _backoff


@pytest.mark.parametrize("env, expected", [
    ({}, RetryPolicy()),
    ({"REPRO_RETRIES": "0"}, RetryPolicy(max_attempts=1)),
    ({"REPRO_RETRIES": "3"}, RetryPolicy(max_attempts=4)),
    ({"REPRO_RETRIES": "-5"}, RetryPolicy(max_attempts=1)),
    ({"REPRO_JOB_TIMEOUT": "1.5"}, RetryPolicy(job_timeout=1.5)),
    ({"REPRO_JOB_TIMEOUT": "0"}, RetryPolicy(job_timeout=None)),
    ({"REPRO_RETRIES": "1", "REPRO_JOB_TIMEOUT": "-2"},
     RetryPolicy(max_attempts=2, job_timeout=None)),
], ids=["defaults", "no-retries", "three-retries", "negative-retries",
        "timeout", "zero-timeout-is-off", "both"])
def test_policy_from_env(monkeypatch, env, expected):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert RetryPolicy.from_env() == expected


@pytest.mark.parametrize("name, value", [("REPRO_RETRIES", "many"),
                                         ("REPRO_RETRIES", "1.5"),
                                         ("REPRO_JOB_TIMEOUT", "soon")])
def test_policy_from_env_rejects_malformed_values(monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    with pytest.raises(ValueError, match=name):
        RetryPolicy.from_env()


def test_backoff_doubles_from_base_up_to_the_cap():
    policy = RetryPolicy(backoff_base=0.1, backoff_cap=0.5)
    assert [_backoff(policy, attempt) for attempt in range(6)] \
        == [0.1, 0.1, 0.2, 0.4, 0.5, 0.5]
    assert _backoff(RetryPolicy(backoff_base=0.0), 9) == 0.0
