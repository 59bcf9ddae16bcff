"""Feature-matrix tests for the parameterised iCFP engine (Figure 7/8
configurations): every combination must stay architecturally correct,
and the feature ladder must order sensibly on a dependent-miss+tail
workload."""

import itertools

import pytest

from repro.baselines import SLTPCore
from repro.core.icfp import ICFPCore, ICFPFeatures
from repro.core.slice_buffer import SliceBuffer
from repro.functional import run_program
from repro.isa import Assembler, R
from repro.pipeline import MachineConfig


def fig1e_program():
    """Dependent chain + long independent tail (the Figure 1e shape)."""
    a = Assembler("ladder")
    ch0, ch1, g = 0x60000, 0x70000, 0x80000
    a.word(ch0, ch1)
    a.word(ch1, 42)
    a.word(g, 5)
    a.li(R.r1, ch0)
    a.ld(R.r1, R.r1, 0)
    a.ld(R.r1, R.r1, 0)
    a.addi(R.r9, R.r1, 0)
    for _ in range(400):
        a.addi(R.r2, R.r2, 1)
    a.li(R.r3, g)
    a.ld(R.r4, R.r3, 0)
    a.add(R.r5, R.r4, R.r4)
    a.li(R.r6, 0x2000)
    a.st(R.r5, R.r6, 0)
    a.ld(R.r7, R.r6, 0)
    a.halt()
    return a.assemble()


@pytest.mark.parametrize("kind", ["chained", "assoc", "indexed"])
@pytest.mark.parametrize("nonblocking", [True, False])
@pytest.mark.parametrize("mt", [True, False])
def test_feature_matrix_architecturally_correct(kind, nonblocking, mt):
    trace = run_program(fig1e_program())
    feats = ICFPFeatures(store_buffer_kind=kind,
                         nonblocking_rally=nonblocking,
                         mt_rally=mt, validate=True)
    core = ICFPCore(trace, config=MachineConfig.hpca09(), features=feats)
    result = core.run()
    assert not core.validate_final_state()
    assert result.instructions == len(trace)


def run_cycles(feats):
    trace = run_program(fig1e_program())
    core = ICFPCore(trace, config=MachineConfig.hpca09(), features=feats)
    return core.run().cycles


def test_ladder_ordering_on_dependent_miss_tail():
    """Figure 7's claim in miniature: non-blocking rallies help this
    pattern, and the full feature set is the fastest point.

    On a kernel this small the lone nonblocking pass pays a few cycles
    of pass-restart overhead that the blocking rally amortises into its
    stall, so the single-feature comparison gets a small slack (same
    convention as the poison-width ladder below); the full feature set
    must win outright.
    """
    blocking = run_cycles(ICFPFeatures(nonblocking_rally=False,
                                       mt_rally=False, poison_bits=1))
    nonblocking = run_cycles(ICFPFeatures(nonblocking_rally=True,
                                          mt_rally=False, poison_bits=1))
    full = run_cycles(ICFPFeatures())
    assert nonblocking <= blocking + 4
    assert full <= blocking


def test_single_poison_bit_still_correct_under_many_misses():
    a = Assembler("manybits")
    addrs = [0x100000 + i * 0x4000 for i in range(12)]
    for i, addr in enumerate(addrs):
        a.word(addr, i)
    for addr in addrs:
        a.li(R.r1, addr)
        a.ld(R.r2, R.r1, 0)
        a.add(R.r3, R.r3, R.r2)
    a.halt()
    trace = run_program(a.assemble())
    core = ICFPCore(trace, config=MachineConfig.hpca09(),
                    features=ICFPFeatures(poison_bits=1, validate=True))
    core.run()
    assert not core.validate_final_state()


def test_wider_poison_never_slower_on_chain_mix():
    """Section 3.4: more bits let rallies skip unrelated slices."""
    a = Assembler("mix")
    chain = [0x60000, 0x70000, 0x80000, 0x90000]
    for here, there in zip(chain, chain[1:]):
        a.word(here, there)
    a.word(chain[-1], 1)
    a.li(R.r1, chain[0])
    for _ in range(len(chain)):
        a.ld(R.r1, R.r1, 0)
        # Unrelated independent misses between chain links:
        a.li(R.r4, 0x200000)
        a.ld(R.r5, R.r4, 0)
        a.add(R.r6, R.r6, R.r5)
    a.addi(R.r2, R.r1, 0)
    a.halt()
    trace = run_program(a.assemble())
    one = ICFPCore(trace, config=MachineConfig.hpca09(),
                   features=ICFPFeatures(poison_bits=1)).run().cycles
    eight = ICFPCore(run_program(a.assemble()), config=MachineConfig.hpca09(),
                     features=ICFPFeatures(poison_bits=8)).run().cycles
    assert eight <= one + 20


def test_slice_buffer_needs_an_entry():
    """The load that starts an advance episode is its first slice
    capture, so a slice buffer with no entries could never hold one:
    every episode would fall back on entry.  It is refused instead."""
    trace = run_program(fig1e_program())
    with pytest.raises(ValueError, match="at least one entry"):
        ICFPCore(trace, config=MachineConfig.hpca09(),
                 features=ICFPFeatures(slice_entries=0))
    with pytest.raises(ValueError, match="at least one entry"):
        SliceBuffer(0)
    core = ICFPCore(trace, config=MachineConfig.hpca09(),
                    features=ICFPFeatures(slice_entries=1, validate=True))
    core.run()
    assert not core.validate_final_state()
    assert core.stats.advance_entries > 0


@pytest.mark.parametrize("advance_on", ["l2_d1", "bogus"])
def test_unknown_advance_trigger_is_refused(advance_on):
    """The iCFP family triggers on "all" or "l2" misses only; any other
    value (Runahead's "l2_d1" included) is an error, not a silent
    "l2"."""
    trace = run_program(fig1e_program())
    with pytest.raises(ValueError, match=f"unknown advance_on: {advance_on}"):
        ICFPCore(trace, features=ICFPFeatures(advance_on=advance_on))
    with pytest.raises(ValueError, match=f"unknown advance_on: {advance_on}"):
        SLTPCore(trace, advance_on=advance_on)
