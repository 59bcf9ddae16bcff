"""Tests for the Figure 1 scenarios, Table 2 generator, and area model."""

import pytest

from repro.area import PAPER_AREA_MM2, Structure, port_factor, scheme_area
from repro.harness import ExperimentConfig, run_scenario, table2
from repro.harness.scenarios import SCENARIOS, run_all_scenarios
from repro.harness.tables import format_area_table, format_table2

#: The Figure 1 table `repro scenarios` prints: cycles per model.  The
#: micro-programs run cold with explicitly installed warm lines, so no
#: golden stats fixture covers them; this pins their exact timing.
FIGURE1_CYCLES = {
    "a": {"in-order": 487, "runahead": 496, "multipass": 457,
          "sltp": 411, "icfp": 411},
    "b": {"in-order": 847, "runahead": 459, "multipass": 459,
          "sltp": 440, "icfp": 443},
    "c": {"in-order": 886, "runahead": 904, "multipass": 866,
          "sltp": 813, "icfp": 815},
    "d": {"in-order": 1240, "runahead": 858, "multipass": 864,
          "sltp": 1217, "icfp": 846},
    "e": {"in-order": 840, "runahead": 441, "multipass": 450,
          "sltp": 441, "icfp": 443},
    "f": {"in-order": 839, "runahead": 447, "multipass": 453,
          "sltp": 440, "icfp": 443},
}


def test_all_six_scenarios_build_and_run():
    for key, builder in SCENARIOS.items():
        scenario = builder()
        cycles = run_scenario(scenario, models=("in-order", "icfp"))
        assert cycles["in-order"] > 0 and cycles["icfp"] > 0, key


@pytest.mark.parametrize("key", sorted(FIGURE1_CYCLES))
def test_figure1_table_matches_pin(key):
    assert run_all_scenarios()[key] == FIGURE1_CYCLES[key]


def test_scenario_a_matches_figure_1a():
    """Lone L2 miss: iCFP commits under it; Runahead gains nothing."""
    scenario = SCENARIOS["a"]()
    cycles = run_scenario(scenario, models=("in-order", "runahead", "icfp"))
    assert cycles["icfp"] < cycles["in-order"]
    assert cycles["runahead"] >= cycles["in-order"] - 10


def test_scenario_c_dependent_misses():
    scenario = SCENARIOS["c"]()
    cycles = run_scenario(scenario, models=("in-order", "runahead", "icfp"))
    assert cycles["icfp"] < cycles["in-order"]
    # Runahead cannot shorten a two-long dependent chain materially.
    assert abs(cycles["runahead"] - cycles["in-order"]) < 100


def test_table2_rows_small_budget():
    cfg = ExperimentConfig(instructions=2500)
    rows = table2(config=cfg, workloads=("mesa_like", "gap_like"))
    assert [r.workload for r in rows] == ["mesa_like", "gap_like"]
    assert rows[1].d_miss_per_ki > rows[0].d_miss_per_ki
    text = format_table2(rows)
    assert "gap_like" in text and "Rally/KI" in text


# ----------------------------------------------------------------------
# area model
# ----------------------------------------------------------------------
def test_area_matches_paper_within_15_percent():
    for scheme, paper in PAPER_AREA_MM2.items():
        assert abs(scheme_area(scheme) - paper) / paper < 0.15, scheme


def test_area_orderings():
    assert scheme_area("runahead") < scheme_area("multipass")
    assert scheme_area("multipass") < scheme_area("sltp")
    assert scheme_area("icfp") < scheme_area("sltp")


def test_port_factor_monotone():
    assert port_factor(1) == 1.0
    assert port_factor(2) > port_factor(1)
    assert port_factor(3) > port_factor(2)


def test_structure_area_scales_with_bits():
    small = Structure("s", 16, 8)
    large = Structure("l", 32, 8)
    assert large.area_mm2 == 2 * small.area_mm2


def test_area_table_formatting():
    text = format_area_table()
    assert "icfp" in text and "chain table" in text
