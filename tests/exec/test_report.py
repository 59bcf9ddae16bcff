"""CampaignReport: every event the engine absorbs is counted and shown.

A pool casualty, a re-run or a quarantined record that never reaches
``incidents()``, ``summary()`` or the tallies is a silent one; these
tests pin each counter through every view of the report.
"""

import pytest

from repro.exec import CampaignReport, JobFailure

#: (field, the words ``summary()`` prints for it)
INCIDENT_COUNTERS = [("retries", "retries"), ("timeouts", "timeouts"),
                     ("pool_breaks", "pool breaks"),
                     ("degradations", "degradations"),
                     ("store_errors", "store errors")]

COUNTERS = ["jobs", "memo_hits", "store_hits", "computed", "attempts",
            *(name for name, _label in INCIDENT_COUNTERS)]


def _failure(label="icfp on mcf_like"):
    return JobFailure(label=label, fingerprint="ab" * 32,
                      kind="timeout", error="boom")


def test_fresh_report_is_boring_and_ok():
    report = CampaignReport()
    assert report.incidents() == 0 and report.ok()
    assert report.summary() == ("campaign: 0 jobs, 0 computed, "
                                "0 memo hits, 0 store hits")


@pytest.mark.parametrize("name, label", INCIDENT_COUNTERS,
                         ids=[name for name, _label in INCIDENT_COUNTERS])
def test_each_absorbed_event_is_an_incident_but_not_a_failure(name, label):
    report = CampaignReport()
    setattr(report, name, 2)
    assert report.incidents() == 2
    assert report.ok()
    assert report.summary().endswith(f", 2 {label}")
    assert report.tallies()[name] == 2


def test_failures_are_incidents_and_fail_the_report():
    report = CampaignReport(jobs=3, computed=2, failures=[_failure()])
    assert report.incidents() == 1
    assert not report.ok()
    assert report.summary().endswith(", 1 FAILED")
    assert report.tallies()["failed_jobs"] == 1
    assert report.as_dict()["failures"] == [str(_failure())]


def test_tallies_are_the_numeric_view_of_as_dict():
    report = CampaignReport(**{name: 1 for name in COUNTERS},
                            failures=[_failure()])
    tallies = report.tallies()
    assert set(tallies) == set(COUNTERS) | {"failed_jobs"}
    assert set(report.as_dict()) == set(COUNTERS) | {"failures"}
    assert all(isinstance(value, int) for value in tallies.values())


def test_job_failure_names_label_fingerprint_and_kind():
    assert str(_failure()) == ("icfp on mcf_like [abababababab] "
                               "timeout: boom")
