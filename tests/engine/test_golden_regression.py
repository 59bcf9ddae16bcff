"""Golden cycle-count + stats regression fixtures for all five models.

The event-horizon cycle engine (and any future perf work on the hot
loops) must be a *pure optimisation*: cycles and every recorded
statistic must match a reference simulation bit for bit.  This test
pins that equivalence in tier-1 by comparing each model's full stats
dictionary against checked-in fixtures over a small kernel grid.

The fixtures were generated from the cycle-by-cycle engine that
predates the leap scheduler, so they also guard the original timing
semantics, not just self-consistency.  A second axis pins the same grid
at five non-default front-end geometries (fetch-queue depth, issue
width, front-end depth), so a fetch or issue change that is right only
at Table 1's 12-entry queue, width 2 and depth 5 still shows.

Regenerate (only when a PR *intends* a timing change, with the diff
explained in the PR description)::

    PYTHONPATH=src python tests/engine/test_golden_regression.py --regen
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os

import pytest

from repro.harness.experiment import ExperimentConfig, MODELS, run_model
from repro.workloads.suite import build_kernel, trace_kernel

#: Small but diverse grid: a pointer chaser (long dependent misses), a
#: compute kernel, a store-heavy kernel, and a cache-friendly one.
GOLDEN_KERNELS = ("mcf_like", "mesa_like", "equake_like", "gzip_like")
GOLDEN_INSTRUCTIONS = 1500

#: Front-end geometries off Table 1 (fetch queue 12, width 2, front-end
#: depth 5); each moves every one of its cells off the Table 1 digest.
GOLDEN_GEOMETRIES = {
    "fq1": {"fetch_queue_depth": 1},
    "fq3": {"fetch_queue_depth": 3},
    "w1": {"width": 1},
    "w3-fq5": {"width": 3, "fetch_queue_depth": 5},
    "fe9": {"frontend_depth": 9},
}

FIXTURE_PATH = os.path.join(os.path.dirname(__file__), "golden_stats.json")

_TRACES: dict[str, object] = {}


@dataclasses.dataclass(frozen=True)
class _GeometryConfig(ExperimentConfig):
    """The golden config with machine fields moved off Table 1."""

    geometry: tuple = ()

    def machine_config(self):
        return dataclasses.replace(super().machine_config(),
                                   **dict(self.geometry))


def golden_config(geometry: str | None = None) -> ExperimentConfig:
    """Fixed experiment config (independent of REPRO_* env overrides)."""
    if geometry is None:
        return ExperimentConfig(instructions=GOLDEN_INSTRUCTIONS)
    return _GeometryConfig(instructions=GOLDEN_INSTRUCTIONS,
                           geometry=tuple(GOLDEN_GEOMETRIES[geometry].items()))


def golden_trace(kernel: str):
    trace = _TRACES.get(kernel)
    if trace is None:
        trace = _TRACES[kernel] = trace_kernel(
            build_kernel(kernel), instructions=GOLDEN_INSTRUCTIONS)
    return trace


def stats_to_dict(stats) -> dict:
    """Canonical, JSON-stable dictionary of every recorded statistic."""
    scalars = (
        "cycles", "instructions", "loads", "stores", "branches",
        "branch_mispredicts", "l1d_misses", "l2_misses", "secondary_misses",
        "advance_entries", "advance_instructions", "rally_passes",
        "rally_instructions", "slice_captures", "squashes",
        "simple_runahead_entries", "store_forward_hits", "store_forward_hops",
    )
    stall_fields = (
        "src_wait", "waw_wait", "port", "store_buffer_full", "mshr_full",
        "frontend", "slice_buffer_full", "poisoned_store_addr",
    )
    out = {name: getattr(stats, name) for name in scalars}
    out["stalls"] = {name: getattr(stats.stalls, name) for name in stall_fields}
    for meter_name in ("d_mlp", "l2_mlp"):
        meter = getattr(stats, meter_name)
        out[meter_name] = {"count": meter.count,
                           "average": repr(meter.average())}
    return out


def stats_digest(payload: dict) -> str:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def simulate_cell(model: str, kernel: str, geometry: str | None = None) -> dict:
    result = run_model(model, golden_trace(kernel), golden_config(geometry))
    payload = stats_to_dict(result.stats)
    return {"stats": payload, "digest": stats_digest(payload)}


def load_fixtures() -> dict:
    with open(FIXTURE_PATH) as handle:
        return json.load(handle)


def check_cell(model: str, kernel: str, geometry: str | None = None) -> None:
    fixtures = load_fixtures()
    assert fixtures["instructions"] == GOLDEN_INSTRUCTIONS
    cells = (fixtures["cells"] if geometry is None
             else fixtures["geometry_cells"][geometry])
    expected = cells[f"{kernel}/{model}"]
    actual = simulate_cell(model, kernel, geometry)
    # Compare the full dictionaries first: a mismatch then reports the
    # exact counter that moved, not just a digest difference.
    assert actual["stats"] == expected["stats"], (
        f"{geometry or 'table1'}/{kernel}/{model}: stats diverged from "
        f"golden fixture"
    )
    assert actual["digest"] == expected["digest"]


@pytest.mark.parametrize("kernel", GOLDEN_KERNELS)
@pytest.mark.parametrize("model", MODELS)
def test_model_matches_golden_fixture(model, kernel):
    check_cell(model, kernel)


@pytest.mark.parametrize("kernel", GOLDEN_KERNELS)
@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("geometry", list(GOLDEN_GEOMETRIES))
def test_geometry_matches_golden_fixture(geometry, model, kernel):
    check_cell(model, kernel, geometry)


def grid_cells(geometry: str | None = None) -> dict:
    return {
        f"{kernel}/{model}": simulate_cell(model, kernel, geometry)
        for kernel in GOLDEN_KERNELS
        for model in MODELS
    }


def regenerate() -> None:
    cells = grid_cells()
    payload = {
        "instructions": GOLDEN_INSTRUCTIONS,
        "kernels": list(GOLDEN_KERNELS),
        "models": list(MODELS),
        "cells": cells,
        "geometries": GOLDEN_GEOMETRIES,
        "geometry_cells": {geometry: grid_cells(geometry)
                           for geometry in GOLDEN_GEOMETRIES},
    }
    with open(FIXTURE_PATH, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    total = len(cells) * (1 + len(GOLDEN_GEOMETRIES))
    print(f"wrote {total} cells to {FIXTURE_PATH}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        regenerate()
    else:
        print(__doc__)
