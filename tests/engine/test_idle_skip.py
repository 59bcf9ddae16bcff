"""The event-horizon leap must be a pure optimisation.

Every model's cycle count with leaping enabled must equal a
cycle-by-cycle simulation.  This is the load-bearing guard for the
`_leap_to_horizon` machinery (a leap past a wake-up event would change
reported performance, not just speed).

The cycle-by-cycle side runs in first-class reference mode
(``CoreModel(..., leap=False)``, or ``REPRO_NO_LEAP=1`` process-wide):
the leap machinery is disabled up front instead of monkeypatched away,
so the reference engine is exactly the shipped engine minus the leap.
"""

import pytest

from repro.baselines import InOrderCore, MultipassCore, RunaheadCore, SLTPCore
from repro.core.icfp import ICFPCore, ICFPFeatures
from repro.functional import run_program
from repro.isa import Assembler, R, assemble_text
from repro.pipeline import MachineConfig


def programs():
    # A miss-heavy mix: independent misses, a dependent chain, stores.
    a = Assembler("mix")
    chain = [0x60000, 0x70000, 0x80000]
    for here, there in zip(chain, chain[1:]):
        a.word(here, there)
    a.word(chain[-1], 7)
    a.li(R.r1, chain[0])
    a.ld(R.r1, R.r1, 0)
    a.ld(R.r1, R.r1, 0)
    a.li(R.r4, 0x90000)
    a.ld(R.r5, R.r4, 0)
    a.add(R.r6, R.r5, R.r1)
    a.li(R.r7, 0x2000)
    a.st(R.r6, R.r7, 0)
    a.ld(R.r8, R.r7, 0)
    for _ in range(30):
        a.addi(R.r9, R.r9, 1)
    a.halt()
    yield a.assemble()

    yield assemble_text(
        """
        li r1, 0
        li r2, 40
        loop:
            addi r1, r1, 1
            mul r3, r1, r1
            bne r1, r2, loop
        halt
        """
    )


MODELS = [
    (InOrderCore, {}),
    (RunaheadCore, {"advance_on": "l2"}),
    (MultipassCore, {}),
    (SLTPCore, {"advance_on": "all"}),
    (ICFPCore, {"features": ICFPFeatures()}),
]


def assert_stats_equal(fast, slow, label):
    """Full timing-visible equivalence: cycles and everything that
    commits or touches the hierarchy must match the reference engine."""
    assert fast.cycles == slow.cycles, label
    assert fast.instructions == slow.instructions, label
    assert fast.stats.loads == slow.stats.loads, label
    assert fast.stats.stores == slow.stats.stores, label
    assert fast.stats.branches == slow.stats.branches, label
    assert fast.stats.l1d_misses == slow.stats.l1d_misses, label
    assert fast.stats.l2_misses == slow.stats.l2_misses, label


@pytest.mark.parametrize("cls,kwargs", MODELS,
                         ids=[c.__name__ for c, _ in MODELS])
def test_idle_skip_is_timing_neutral(cls, kwargs):
    for program in programs():
        trace = run_program(program)
        fast = cls(trace, config=MachineConfig.hpca09(), **kwargs).run()
        slow_core = cls(trace, config=MachineConfig.hpca09(), leap=False,
                        **kwargs)
        assert slow_core._leap is False
        slow = slow_core.run()
        assert_stats_equal(fast, slow, program.name)


def test_reference_mode_env_var(monkeypatch):
    """``REPRO_NO_LEAP=1`` forces reference mode without code changes
    (the `repro run --no-leap` path sets exactly this).  The value is
    parsed like ``REPRO_STORE``: case and surrounding blanks are
    ignored, so a "reference" run can never silently keep leaping."""
    trace = run_program(next(programs()))
    for value in ("1", "TRUE", " on "):
        monkeypatch.setenv("REPRO_NO_LEAP", value)
        core = InOrderCore(trace, config=MachineConfig.hpca09())
        assert core._leap is False, repr(value)
    # An explicit constructor argument still wins over the environment.
    assert InOrderCore(trace, config=MachineConfig.hpca09(),
                       leap=True)._leap is True
    for value in ("0", "Off", "FALSE", ""):
        monkeypatch.setenv("REPRO_NO_LEAP", value)
        core = InOrderCore(trace, config=MachineConfig.hpca09())
        assert core._leap is True, repr(value)
    assert InOrderCore(trace, config=MachineConfig.hpca09(),
                       leap=False)._leap is False


#: Fixed budget for the suite-kernel variant below — deliberately
#: independent of the REPRO_INSTRUCTIONS fast profile: the cycle-by-
#: cycle reference side steps every stall cycle individually, so this
#: runs at full weight no matter what the smoke profile sets.  That is
#: why it carries the `slow` marker (`make smoke` deselects it; the
#: full tier-1 run always includes it).
SUITE_BUDGET = 2500

SUITE_KERNELS = ("mcf_like", "equake_like")

#: Empty — and the point of the exercise.  The horizon set exported by
#: ``CoreModel._scan_horizons`` (plus each model's ``_head_wakeup`` /
#: ``next_event_cycle`` overrides) is provably complete: every cell of
#: the leap-vs-stepped differential matches on full stats, including
#: the advance/rally models whose deferred wake-ups (iCFP's stale-rally
#: re-queue, fallback-mode flips, rally-pass endings) once escaped it.
#: ``make leap-audit`` sweeps all 24 kernels x 5 models to keep it
#: empty; if a cell ever lands here again, treat it as a regression in
#: the horizon contract, not a fact to record.
KNOWN_DIVERGENT = frozenset()


@pytest.mark.slow
@pytest.mark.parametrize("cls,kwargs", MODELS,
                         ids=[c.__name__ for c, _ in MODELS])
@pytest.mark.parametrize("kernel", SUITE_KERNELS)
def test_idle_skip_is_timing_neutral_on_suite_kernels(cls, kwargs, kernel):
    """Leap equivalence over real miss-heavy suite kernels (full stats)."""
    from repro.workloads import trace_by_name

    assert (kernel, cls.__name__) not in KNOWN_DIVERGENT
    trace = trace_by_name(kernel, SUITE_BUDGET)
    fast = cls(trace, config=MachineConfig.hpca09(), **kwargs).run()
    slow = cls(trace, config=MachineConfig.hpca09(), leap=False,
               **kwargs).run()
    assert_stats_equal(fast, slow, f"{kernel}/{cls.__name__}")
