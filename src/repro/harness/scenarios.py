"""The six miss scenarios of Figure 1 as concrete micro-programs.

Each scenario builds the paper's abstract instruction pattern with real
addresses (cold lines for misses, pre-warmed lines for hits) and runs it
across the machine models, so the paper's qualitative claims — who can
overlap what — can be demonstrated and asserted numerically.

The whole table (six programs x five models) simulates in about 30 ms,
inside process start-up, so :func:`run_all_scenarios` runs it in
order, in-process: no worker pool and no result-store record.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa.assembler import Assembler
from ..isa.program import Program
from ..isa.registers import R
from ..functional import run_program
from .experiment import MODELS, ExperimentConfig, make_core

#: Distinct cold L1/L2 lines (one per letter the figure uses).
LINE = {name: 0x100000 + i * 0x4000
        for i, name in enumerate("ABCDEFGHIJ")}
#: Lines that should *hit* are pre-installed by the scenario runner.
WARM_LINE = {name: 0x800000 + i * 0x4000
             for i, name in enumerate("abcdefghij")}


@dataclass
class Scenario:
    key: str
    title: str
    program: Program
    #: Addresses to pre-install in L1/L2 ("warm" accesses).
    warm: list[int]
    #: Addresses to pre-install in L2 only (D$ misses that hit the L2).
    warm_l2: list[int]


def _filler(a: Assembler, n: int) -> None:
    for _ in range(n):
        a.addi(R.r20, R.r20, 1)


def scenario_a() -> Scenario:
    """Lone L2 miss with a single dependent instruction (Figure 1a)."""
    a = Assembler("fig1a")
    a.word(LINE["A"], 5)
    a.li(R.r1, LINE["A"])
    a.ld(R.r2, R.r1, 0)       # A: L2 miss
    a.addi(R.r3, R.r2, 1)     # B: depends on A
    _filler(a, 80)            # C-F: independent work
    a.halt()
    return Scenario("a", "Lone L2 miss", a.assemble(), [], [])


def scenario_b() -> Scenario:
    """Two independent L2 misses (Figure 1b)."""
    a = Assembler("fig1b")
    a.word(LINE["A"], 1)
    a.word(LINE["E"], 2)
    a.li(R.r1, LINE["A"])
    a.ld(R.r2, R.r1, 0)       # A: miss
    a.addi(R.r3, R.r2, 1)     # B: dependent use
    _filler(a, 20)            # C, D
    a.li(R.r4, LINE["E"])
    a.ld(R.r5, R.r4, 0)       # E: independent miss
    a.addi(R.r6, R.r5, 1)     # F
    _filler(a, 20)            # G, H (tail)
    a.halt()
    return Scenario("b", "Independent L2 misses", a.assemble(), [], [])


def scenario_c() -> Scenario:
    """Dependent L2 misses: E's address comes from A (Figure 1c).

    B uses A immediately, so a vanilla pipeline stalls there and cannot
    reach the independent work; the tail after E is where iCFP's
    advance-under-the-second-miss pays off (SLTP is limited by its
    blocking rally, Runahead by full re-execution).
    """
    a = Assembler("fig1c")
    a.word(LINE["A"], LINE["E"])
    a.word(LINE["E"], 7)
    a.li(R.r1, LINE["A"])
    a.ld(R.r2, R.r1, 0)       # A: miss, loads E's address
    a.addi(R.r3, R.r2, 1)     # B: immediate use (stalls in-order)
    _filler(a, 20)            # C, D: independent
    a.ld(R.r5, R.r2, 0)       # E: dependent miss
    a.addi(R.r6, R.r5, 1)     # F: immediate use
    _filler(a, 60)            # G...: independent tail under E
    a.halt()
    return Scenario("c", "Dependent L2 misses", a.assemble(), [], [])


def scenario_d() -> Scenario:
    """Two independent chains of dependent misses (Figure 1d)."""
    a = Assembler("fig1d")
    a.word(LINE["A"], LINE["B"])
    a.word(LINE["B"], 1)
    a.word(LINE["E"], LINE["F"])
    a.word(LINE["F"], 2)
    a.li(R.r1, LINE["A"])
    a.ld(R.r2, R.r1, 0)       # A: miss
    a.ld(R.r3, R.r2, 0)       # B: depends on A (dependent miss)
    _filler(a, 16)            # C, D
    a.li(R.r4, LINE["E"])
    a.ld(R.r5, R.r4, 0)       # E: independent miss
    a.ld(R.r6, R.r5, 0)       # F: depends on E
    _filler(a, 16)            # G, H
    a.addi(R.r7, R.r3, 0)
    a.addi(R.r8, R.r6, 0)
    a.halt()
    return Scenario("d", "Independent chains of dependent misses",
                    a.assemble(), [], [])


def scenario_e() -> Scenario:
    """D$ miss and *independent* L2 miss under an L2 miss (Figure 1e)."""
    a = Assembler("fig1e")
    a.word(LINE["A"], 1)
    a.word(WARM_LINE["c"], 5)
    a.word(LINE["D"], 2)
    a.li(R.r1, LINE["A"])
    a.ld(R.r2, R.r1, 0)       # A: primary L2 miss
    a.addi(R.r3, R.r2, 1)     # b: dependent (poisoned)
    a.li(R.r4, WARM_LINE["c"])
    a.ld(R.r5, R.r4, 0)       # C: secondary D$ miss (hits L2)
    a.addi(R.r6, R.r5, 1)     # use of C
    _filler(a, 8)
    a.li(R.r7, LINE["D"])
    a.ld(R.r8, R.r7, 0)       # D: independent L2 miss behind C
    a.addi(R.r9, R.r8, 1)
    a.halt()
    return Scenario("e", "D$ miss + independent L2 miss under L2 miss",
                    a.assemble(), [], [WARM_LINE["c"]])


def scenario_f() -> Scenario:
    """D$ miss and *dependent* L2 miss under an L2 miss (Figure 1f)."""
    a = Assembler("fig1f")
    a.word(LINE["A"], 1)
    a.word(WARM_LINE["c"], LINE["D"])
    a.word(LINE["D"], 3)
    a.li(R.r1, LINE["A"])
    a.ld(R.r2, R.r1, 0)       # A: primary L2 miss
    a.addi(R.r3, R.r2, 1)     # b: dependent
    a.li(R.r4, WARM_LINE["c"])
    a.ld(R.r5, R.r4, 0)       # C: secondary D$ miss, loads D's address
    a.ld(R.r8, R.r5, 0)       # D: L2 miss DEPENDENT on C
    a.addi(R.r9, R.r8, 1)
    _filler(a, 8)
    a.halt()
    return Scenario("f", "D$ miss + dependent L2 miss under L2 miss",
                    a.assemble(), [], [WARM_LINE["c"]])


SCENARIOS = {
    "a": scenario_a,
    "b": scenario_b,
    "c": scenario_c,
    "d": scenario_d,
    "e": scenario_e,
    "f": scenario_f,
}


def run_scenario(scenario: Scenario, models=MODELS,
                 config: ExperimentConfig | None = None) -> dict[str, int]:
    """Cycles per model for one scenario."""
    config = config if config is not None else ExperimentConfig(warm=False)
    trace = run_program(scenario.program)
    cycles = {}
    for model in models:
        core = make_core(model, trace, config)
        hier = core.hierarchy
        for addr in scenario.warm:
            hier.l2.insert(hier.config.l2.line_addr(addr))
            hier.l1d.insert(hier.config.l1d.line_addr(addr))
        for addr in scenario.warm_l2:
            hier.l2.insert(hier.config.l2.line_addr(addr))
        cycles[model] = core.run().cycles
    return cycles


def run_all_scenarios(models=MODELS, config: ExperimentConfig | None = None
                      ) -> dict[str, dict[str, int]]:
    """Cycles for every Figure 1 scenario: results[key][model]."""
    return {key: run_scenario(build(), models, config)
            for key, build in SCENARIOS.items()}
