"""Config fingerprints: deterministic, canonical, collision-free."""

import dataclasses
import subprocess
import sys

import pytest

from repro.core.icfp import ICFPFeatures
from repro.exec import SimJob, canonical, fingerprint
from repro.harness.experiment import ExperimentConfig
from repro.pipeline.config import MachineConfig


def test_fingerprint_is_stable_within_process():
    cfg = ExperimentConfig(instructions=500)
    assert fingerprint("icfp", "mcf_like", cfg) == \
        fingerprint("icfp", "mcf_like", cfg)


def test_equal_configs_equal_fingerprints():
    a = ExperimentConfig(instructions=500)
    b = ExperimentConfig(instructions=500)
    assert a is not b
    assert fingerprint(a) == fingerprint(b)


def test_fingerprint_covers_machine_config():
    base = MachineConfig.hpca09()
    assert fingerprint(base) == fingerprint(MachineConfig.hpca09())
    assert fingerprint(base) != fingerprint(
        MachineConfig.hpca09(l2_hit_latency=37))


def test_distinct_icfp_features_never_collide():
    """Every point of the Figure 6-8 feature space gets its own digest."""
    seen = {}
    for kind in ("chained", "assoc", "indexed"):
        for nonblocking in (True, False):
            for mt in (True, False):
                for bits in (1, 2, 4, 8):
                    for advance in ("all", "l2"):
                        feats = ICFPFeatures(
                            store_buffer_kind=kind,
                            nonblocking_rally=nonblocking,
                            mt_rally=mt,
                            poison_bits=bits,
                            advance_on=advance,
                        )
                        digest = fingerprint(feats)
                        assert digest not in seen, (feats, seen[digest])
                        seen[digest] = feats
    assert len(seen) == 3 * 2 * 2 * 4 * 2


def test_fingerprint_separates_every_job_axis():
    cfg = ExperimentConfig(instructions=500)
    job = SimJob("icfp", "mcf_like", cfg)
    assert SimJob("sltp", "mcf_like", cfg).fingerprint != job.fingerprint
    assert SimJob("icfp", "art_like", cfg).fingerprint != job.fingerprint
    other = dataclasses.replace(cfg, instructions=501)
    assert SimJob("icfp", "mcf_like", other).fingerprint != job.fingerprint


def test_fingerprint_distinguishes_types_not_just_values():
    # A dataclass and a tuple spelling the same values must differ, as
    # must two dataclass types with identical fields (qualname is part
    # of the canonical form).
    feats = ICFPFeatures()
    values = tuple(getattr(feats, f.name)
                   for f in dataclasses.fields(feats))
    assert fingerprint(feats) != fingerprint(values)


def test_canonical_rejects_unfingerprintable_objects():
    with pytest.raises(TypeError):
        canonical(object())


def test_fingerprint_stable_across_interpreter_processes():
    """Digests must agree between scheduler and workers regardless of
    hash randomization (PYTHONHASHSEED)."""
    code = (
        "from repro.harness.experiment import ExperimentConfig\n"
        "from repro.exec import fingerprint\n"
        "print(fingerprint('icfp', 'mcf_like',"
        " ExperimentConfig(instructions=500)))\n"
    )
    import os

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    digests = set()
    for seed in ("0", "12345"):
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
            env={"PYTHONHASHSEED": seed, "PYTHONPATH": src},
        )
        digests.add(out.stdout.strip())
    assert len(digests) == 1
    assert digests == {SimJob("icfp", "mcf_like",
                              ExperimentConfig(instructions=500)).fingerprint}
