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
at Table 1's 12-entry queue, width 2 and depth 5 still shows.  A third
pins every model variant that Figures 6-8 plot and the default cells do
not cover (Runahead's advance triggers, iCFP's L2-only trigger, the
Figure 7 ladder, the indexed and associative store buffers), so a
change to a path that only a variant takes still shows.

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

from repro.core.icfp import ICFPFeatures
from repro.harness.experiment import ExperimentConfig, MODELS, run_model
from repro.harness.figures import FIGURE6_CONFIGS, FIGURE7_BARS, FIGURE8_KINDS
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


def _variants() -> dict[str, tuple[str, ExperimentConfig]]:
    """Figure 6-8 configurations that no default cell already covers:
    ``{"figureN/<label>": (model, resolved ExperimentConfig)}``."""
    entries = [(f"figure6/{label}", model, overrides)
               for label, model, overrides in FIGURE6_CONFIGS]
    entries += [(f"figure7/{label}", model, overrides)
                for label, model, overrides in FIGURE7_BARS]
    entries += [(f"figure8/{label}", "icfp",
                 {"icfp_features": ICFPFeatures(store_buffer_kind=kind)})
                for label, kind in FIGURE8_KINDS]
    default = ExperimentConfig(instructions=GOLDEN_INSTRUCTIONS)
    variants = {}
    for name, model, overrides in entries:
        config = dataclasses.replace(default, **overrides)
        if config != default:
            variants[name] = (model, config)
    return variants


GOLDEN_VARIANTS = _variants()

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


def simulate_cell(model: str, kernel: str, config: ExperimentConfig) -> dict:
    result = run_model(model, golden_trace(kernel), config)
    payload = stats_to_dict(result.stats)
    return {"stats": payload, "digest": stats_digest(payload)}


def load_fixtures() -> dict:
    with open(FIXTURE_PATH) as handle:
        return json.load(handle)


def check_cell(section: tuple[str, ...], model: str, kernel: str,
               config: ExperimentConfig) -> None:
    """Compare one cell against the fixture; ``section`` is the key path
    to its grid (``("cells",)``, ``("geometry_cells", "fq1")``, ...)."""
    fixtures = load_fixtures()
    assert fixtures["instructions"] == GOLDEN_INSTRUCTIONS
    cells = fixtures
    for key in section:
        cells = cells[key]
    expected = cells[f"{kernel}/{model}"]
    actual = simulate_cell(model, kernel, config)
    # Compare the full dictionaries first: a mismatch then reports the
    # exact counter that moved, not just a digest difference.
    assert actual["stats"] == expected["stats"], (
        f"{'/'.join(section)}/{kernel}/{model}: stats diverged from "
        f"golden fixture"
    )
    assert actual["digest"] == expected["digest"]


@pytest.mark.parametrize("kernel", GOLDEN_KERNELS)
@pytest.mark.parametrize("model", MODELS)
def test_model_matches_golden_fixture(model, kernel):
    check_cell(("cells",), model, kernel, golden_config())


@pytest.mark.parametrize("kernel", GOLDEN_KERNELS)
@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("geometry", list(GOLDEN_GEOMETRIES))
def test_geometry_matches_golden_fixture(geometry, model, kernel):
    check_cell(("geometry_cells", geometry), model, kernel,
               golden_config(geometry))


@pytest.mark.parametrize("kernel", GOLDEN_KERNELS)
@pytest.mark.parametrize("variant", list(GOLDEN_VARIANTS))
def test_variant_matches_golden_fixture(variant, kernel):
    model, config = GOLDEN_VARIANTS[variant]
    check_cell(("variant_cells", variant), model, kernel, config)


def grid_cells(config: ExperimentConfig, models=MODELS) -> dict:
    return {
        f"{kernel}/{model}": simulate_cell(model, kernel, config)
        for kernel in GOLDEN_KERNELS
        for model in models
    }


def regenerate() -> None:
    cells = grid_cells(golden_config())
    payload = {
        "instructions": GOLDEN_INSTRUCTIONS,
        "kernels": list(GOLDEN_KERNELS),
        "models": list(MODELS),
        "cells": cells,
        "geometries": GOLDEN_GEOMETRIES,
        "geometry_cells": {geometry: grid_cells(golden_config(geometry))
                           for geometry in GOLDEN_GEOMETRIES},
        "variant_cells": {variant: grid_cells(config, (model,))
                          for variant, (model, config)
                          in GOLDEN_VARIANTS.items()},
    }
    with open(FIXTURE_PATH, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    total = (len(cells) * (1 + len(GOLDEN_GEOMETRIES))
             + len(GOLDEN_KERNELS) * len(GOLDEN_VARIANTS))
    print(f"wrote {total} cells to {FIXTURE_PATH}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        regenerate()
    else:
        print(__doc__)
