"""Golden fingerprint-stability fixtures.

Disk-store keys ARE job fingerprints: if a refactor accidentally
changes how configs canonicalise (field order, a renamed field, a new
default) every existing store record silently goes cold — campaigns
recompute everything and the store quietly doubles in size.  This test
makes that drift loud by pinning the fingerprints of a small
model x kernel grid as checked-in fixtures.  Pytest itself is a fresh
process, so a green run also proves cross-process byte-stability (no
salted hashing anywhere).

If a PR changes fingerprints *deliberately* (a new ExperimentConfig
field, say), regenerate and say so in the PR description — and bump
:data:`repro.exec.store.ENGINE_VERSION` if timing semantics moved::

    PYTHONPATH=src python tests/exec/test_fingerprint_stability.py --regen
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.exec import SimJob, fingerprint
from repro.harness.experiment import MODELS, ExperimentConfig

FIXTURE_PATH = os.path.join(os.path.dirname(__file__),
                            "golden_fingerprints.json")

#: Same small-but-diverse grid the golden stats fixtures use.
GRID_KERNELS = ("mcf_like", "mesa_like", "equake_like", "gzip_like")
GRID_INSTRUCTIONS = 1500


def grid_config() -> ExperimentConfig:
    return ExperimentConfig(instructions=GRID_INSTRUCTIONS)


def job_fingerprints() -> dict[str, str]:
    config = grid_config()
    return {f"{kernel}/{model}": SimJob(model, kernel, config).fingerprint
            for kernel in GRID_KERNELS for model in MODELS}


def load_fixtures() -> dict:
    with open(FIXTURE_PATH) as handle:
        return json.load(handle)


def test_job_fingerprints_match_golden_fixture():
    fixtures = load_fixtures()
    assert fixtures["instructions"] == GRID_INSTRUCTIONS
    actual = job_fingerprints()
    # Cell-by-cell comparison reports exactly which spec drifted.
    for cell, expected in fixtures["jobs"].items():
        assert actual[cell] == expected, (
            f"fingerprint drift in {cell}: disk-store keys no longer match "
            "previously written records (silent cold start). If the drift "
            "is deliberate, regenerate with --regen and note it in the PR."
        )
    assert actual.keys() == fixtures["jobs"].keys()


def test_fingerprints_stable_across_hash_seeds():
    """PYTHONHASHSEED must not leak into fingerprints (workers agree)."""
    code = (
        "import sys; sys.path.insert(0, 'src');"
        "from repro.exec import SimJob;"
        "from repro.harness.experiment import ExperimentConfig;"
        "print(SimJob('icfp', 'mcf_like', "
        f"ExperimentConfig(instructions={GRID_INSTRUCTIONS})).fingerprint)"
    )
    digests = set()
    for seed in ("0", "1", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=60,
                             cwd=os.path.join(os.path.dirname(__file__),
                                              "..", ".."))
        assert out.returncode == 0, out.stderr
        digests.add(out.stdout.strip())
    assert len(digests) == 1
    assert digests.pop() == load_fixtures()["jobs"]["mcf_like/icfp"]


def test_equal_specs_equal_fingerprints_distinct_specs_distinct():
    config = grid_config()
    a = SimJob("icfp", "mcf_like", config)
    b = SimJob("icfp", "mcf_like", ExperimentConfig(
        instructions=GRID_INSTRUCTIONS))
    assert a.fingerprint == b.fingerprint
    assert a.fingerprint != SimJob("sltp", "mcf_like", config).fingerprint
    assert fingerprint("x") != fingerprint("y")


def regenerate() -> None:
    payload = {
        "instructions": GRID_INSTRUCTIONS,
        "kernels": list(GRID_KERNELS),
        "models": list(MODELS),
        "jobs": job_fingerprints(),
    }
    with open(FIXTURE_PATH, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(payload['jobs'])} job fingerprints to {FIXTURE_PATH}")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        regenerate()
    else:
        print(__doc__)


# Guard against an empty/stale fixture file sneaking through review.
def test_fixture_covers_full_grid():
    fixtures = load_fixtures()
    assert len(fixtures["jobs"]) == len(GRID_KERNELS) * len(MODELS)
    digests = list(fixtures["jobs"].values())
    assert all(len(d) == 64 and int(d, 16) >= 0 for d in digests)
    assert len(set(digests)) == len(digests)


@pytest.mark.parametrize("rebuild", range(2))
def test_fingerprints_stable_within_process(rebuild):
    """Two independent spec constructions agree (no object identity)."""
    assert job_fingerprints() == load_fixtures()["jobs"]
