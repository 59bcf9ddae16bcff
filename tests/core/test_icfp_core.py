"""Integration tests for the iCFP engine on small programs.

Includes the paper's Figure 3 worked example (parallel-miss scenario
with two dependence chains and the WAW-gated merge) reproduced with
real addresses.
"""

import hashlib
import json

import pytest

from repro.baselines import SLTPCore
from repro.baselines.inorder import InOrderCore
from repro.core.icfp import ADVANCE, ICFPCore, ICFPFeatures, NORMAL, SIMPLE_RA
from repro.exec.store import result_to_payload
from repro.functional import run_program
from repro.isa import Assembler, R, assemble_text
from repro.pipeline import MachineConfig
from repro.workloads import trace_by_name

# Cold addresses, all in distinct L1/L2 lines.
A1, B1, A2, B2 = 0x10000, 0x20000, 0x30000, 0x40000


def warm(core, addrs):
    """Pre-install data lines directly in the tag arrays (no MSHR/bus
    side effects, unlike issuing real accesses before cycle 0)."""
    h = core.hierarchy
    for addr in addrs:
        h.l2.insert(h.config.l2.line_addr(addr))
        h.l1d.insert(h.config.l1d.line_addr(addr))


def icfp(trace, features=None, **cfg_over):
    config = MachineConfig.hpca09(**cfg_over)
    feats = features if features is not None else ICFPFeatures(validate=True)
    return ICFPCore(trace, config=config, features=feats)


def run_and_validate(core):
    result = core.run()
    problems = core.validate_final_state()
    assert not problems, "\n".join(problems)
    assert core.mode == NORMAL
    return result


def figure3_program():
    """The Figure 3 dataflow pattern with line-separated addresses."""
    a = Assembler("figure3")
    a.word(A1, 9)
    a.word(B1, 2)
    a.word(A2, 3)
    a.word(B2, 4)
    a.li(R.r1, A1)
    a.li(R.r2, B1)
    a.ld(R.r3, R.r1, 0)       # seq 0: miss (A1 cold)
    a.ld(R.r4, R.r2, 0)       # seq 1: hit  (B1 warm) -> 2
    a.mul(R.r4, R.r3, R.r4)   # seq 2: poisoned via r3
    a.st(R.r4, R.r1, 0)       # seq 3: data-poisoned store
    a.li(R.r1, A2)            # seq 4
    a.li(R.r2, B2)            # seq 5
    a.ld(R.r3, R.r1, 0)       # seq 6: hit  (A2 warm) -> 3
    a.ld(R.r4, R.r2, 0)       # seq 7: miss (B2 cold)
    a.mul(R.r4, R.r3, R.r4)   # seq 8: poisoned via r4
    a.st(R.r4, R.r1, 0)       # seq 9: data-poisoned store
    a.halt()
    return a.assemble()


# ----------------------------------------------------------------------
# the simple-runahead fallback (Section 3.4): one program per reason
# ----------------------------------------------------------------------
#: A line the fallback pins pre-install (an L1 hit while running
#: ahead), and the base of the cold lines their shadow work touches.
WARM, COLD = 0x4040, 0xA0000


def shadow_work(a):
    """Work that runs under the fallback: cold loads that prefetch and
    poison, their uses, a use of the trigger's poisoned result, a store
    and the load it forwards to, an L1 hit, and a loop whose exit
    mispredicts."""
    a.li(R.r10, COLD)
    a.li(R.r11, 3)
    a.li(R.r16, WARM)
    a.label("shadow")
    a.ld(R.r12, R.r10, 0)
    a.add(R.r13, R.r13, R.r12)
    a.add(R.r17, R.r11, R.r2)
    a.st(R.r11, R.r10, 8)
    a.ld(R.r14, R.r10, 8)
    a.ld(R.r15, R.r16, 0)
    a.addi(R.r10, R.r10, 0x1000)
    a.addi(R.r11, R.r11, -1)
    a.bne(R.r11, R.r0, "shadow")


def dependent_chain_program(length, shadow=False):
    """A miss and a ``length``-long chain on its result: one slice each,
    so a chain longer than the slice buffer falls back on
    ``slice_buffer_full``."""
    a = Assembler("overflow")
    a.word(A1, 5)
    a.li(R.r1, A1)
    a.ld(R.r2, R.r1, 0)            # miss
    for _ in range(length):
        a.addi(R.r2, R.r2, 1)
    a.addi(R.r3, R.r2, 0)
    if shadow:
        shadow_work(a)
    a.halt()
    return a.assemble()


def poisoned_address_program(shadow=False):
    """A store whose address is a missed load's result: it falls back on
    ``poisoned_store_addr``."""
    a = Assembler("poisoned_address")
    a.word(A1, B1)                 # the chased pointer
    a.li(R.r5, A1)
    a.li(R.r7, 99)
    a.ld(R.r2, R.r5, 0)            # miss: r2 poisoned (value is B1)
    a.st(R.r7, R.r2, 0)            # poisoned ADDRESS store
    a.addi(R.r3, R.r7, 1)          # would-be independent work
    if shadow:
        shadow_work(a)
    a.halt()
    return a.assemble()


def store_run_program(stores, shadow=False):
    """A miss and ``stores`` independent stores under it: the drain is
    gated by the checkpoint, so more stores than the store buffer holds
    fall back on ``store_buffer_full``."""
    a = Assembler("store_run")
    a.li(R.r5, A1)
    a.li(R.r6, 0x2000)
    a.li(R.r7, 7)
    a.ld(R.r2, R.r5, 0)            # miss
    for i in range(stores):
        a.st(R.r7, R.r6, 8 * i)
    a.addi(R.r3, R.r2, 1)
    if shadow:
        shadow_work(a)
    a.halt()
    return a.assemble()


def aliasing_store_program(shadow=False):
    """A store under a miss, then a load whose address shares its
    chain-table slot: the ``indexed`` store buffer cannot disambiguate
    them and falls back on ``indexed_stall``."""
    a = Assembler("aliasing_store")
    a.li(R.r5, A1)
    a.li(R.r6, 0x2000)
    a.li(R.r7, 7)
    a.ld(R.r2, R.r5, 0)            # miss
    a.st(R.r7, R.r6, 0)
    a.ld(R.r8, R.r6, 0x1000)       # same chain-table slot, other address
    a.addi(R.r3, R.r2, 1)
    a.addi(R.r9, R.r8, 1)
    if shadow:
        shadow_work(a)
    a.halt()
    return a.assemble()


#: Each fallback reason's program (with shadow work) and iCFP features.
#: The two 140-long programs overflow the 128-entry slice and store
#: buffers, so SLTP, whose buffer sizes are fixed, reaches those reasons
#: too; it never reaches ``indexed_stall`` (its store buffer is assoc).
FALLBACK_CASES = {
    "slice_buffer_full": (lambda: dependent_chain_program(140, shadow=True),
                          ICFPFeatures(validate=True)),
    "store_buffer_full": (lambda: store_run_program(140, shadow=True),
                          ICFPFeatures(validate=True)),
    "poisoned_store_addr": (lambda: poisoned_address_program(shadow=True),
                            ICFPFeatures(validate=True)),
    "indexed_stall": (lambda: aliasing_store_program(shadow=True),
                      ICFPFeatures(validate=True, store_buffer_kind="indexed")),
}


#: Cycles and result digest of each fallback program, per model and
#: engine (leap, or stepped with ``leap=False``: the stall counts, which
#: count attempts, differ between the two).  Generated before the
#: fallback ran inside one ``step_cycle`` call; never re-pin them for a
#: refactor.
FALLBACK_PINS = {
    ("slice_buffer_full", "icfp", True): (
        596, "1d056aaf1f43c0ceb97f86187e9f7a09fdb0e0049ffe1b817a96c7c937d642f9"),
    ("slice_buffer_full", "icfp", False): (
        596, "a241dfe8dd285ab08cbfc050db613adbbf43ea6c6b59727073b1b588566f7242"),
    ("slice_buffer_full", "sltp", True): (
        596, "199e18bb06ec8996b3be07efc96b5570212fec5d83172fec769e5aed695c0d94"),
    ("slice_buffer_full", "sltp", False): (
        596, "aa2077f7ec94219cbed0fd52acfaa7015ce8a252f0cd7e8feff19c23cbf86005"),
    ("store_buffer_full", "icfp", True): (
        2267, "204b990d908ba7ed8402922f41fc2cf2e25dd6d8327dee4c0b80096ca917676b"),
    ("store_buffer_full", "icfp", False): (
        2267, "fc6d98e6479f0581dde9b2042794a82dd9bf1a5b34f88e52bbce5da5fd0af9f2"),
    ("store_buffer_full", "sltp", True): (
        1519, "406ebdc58c45e6c16867c1bb741f04a8608b59a246db97da7d749d073acd6602"),
    ("store_buffer_full", "sltp", False): (
        1519, "6cdb56d9b6f911716e0c6bc1e36b5c6fb8542e9653ad2ef6e2a177eb139c1795"),
    ("poisoned_store_addr", "icfp", True): (
        826, "c5e44e0df433c1a2be468e2a82189c1a6764d12ed3c1bfa0aeb7c9fdb066e13e"),
    ("poisoned_store_addr", "icfp", False): (
        826, "c5e44e0df433c1a2be468e2a82189c1a6764d12ed3c1bfa0aeb7c9fdb066e13e"),
    ("poisoned_store_addr", "sltp", True): (
        826, "809c807687d1a3ae9d0bf21882592b4dff46ad6ce7e6e0252019c840d0d89b62"),
    ("poisoned_store_addr", "sltp", False): (
        826, "5d421c15f7fc8ca1e85c48730b3c06b14b85f19c4d3f7e2b0ed34cab642a555c"),
    ("indexed_stall", "icfp", True): (
        853, "8683ffbe699da714a44e1dda8466cc989f2db443367d1e0bf3f219937df81cb4"),
    ("indexed_stall", "icfp", False): (
        853, "0e4fb97543b3ad775ea80831fb0496259bc1c905f0644fed1f043ac7a2977592"),
}


def fallback_core(reason, model, leap):
    """The core for one fallback pin, its shadow work's warm line
    installed."""
    program, features = FALLBACK_CASES[reason]
    trace = run_program(program())
    config = MachineConfig.hpca09()
    core = (ICFPCore(trace, config=config, features=features, leap=leap)
            if model == "icfp" else SLTPCore(trace, config=config, leap=leap))
    warm(core, [WARM])
    return core


@pytest.mark.parametrize("reason, model, leap", [
    pytest.param(*key, id=f"{key[0]}-{key[1]}-{'leap' if key[2] else 'stepped'}")
    for key in FALLBACK_PINS
])
def test_fallback_timing_is_pinned(reason, model, leap):
    """Each fallback reason's program enters the fallback for that
    reason, ends with the functional trace's state, and keeps the cycles
    and full result it had when pinned: the leap and the fallback's
    exit edges (resume to advance, exit to normal) stay exact."""
    core = fallback_core(reason, model, leap)
    entered = []
    enter = core._enter_simple_ra

    def counted(dyn_index, why):
        entered.append(why)
        enter(dyn_index, why)

    core._enter_simple_ra = counted
    result = core.run()
    assert entered == [reason]
    assert core.mode == NORMAL
    assert not core.validate_final_state()
    payload = json.dumps(result_to_payload(result), sort_keys=True)
    digest = hashlib.sha256(payload.encode()).hexdigest()
    assert (result.cycles, digest) == FALLBACK_PINS[reason, model, leap]


@pytest.mark.parametrize("leap", [True, False], ids=["leap", "stepped"])
@pytest.mark.parametrize("cls", [ICFPCore, SLTPCore], ids=["icfp", "sltp"])
def test_one_step_cycle_call_runs_a_whole_fallback(cls, leap):
    """A ``step_cycle`` call whose tail issue falls back runs the
    fallback through the cycle that leaves it, so a caller driving the
    core by hand never sees it in simple runahead; driven to ``done()``
    it gives ``run()``'s result.  Stepped cycle by cycle, the calls are
    fewer than the cycles: the fallbacks ran in them."""
    trace = trace_by_name("mcf_like", 800)
    whole = cls(trace, config=MachineConfig.hpca09(), leap=leap).run()
    core = cls(trace, config=MachineConfig.hpca09(), leap=leap)
    calls = 0
    while not core.done():
        core.step_cycle()
        calls += 1
        assert core.mode != SIMPLE_RA
    assert core.stats.simple_runahead_entries > 0
    assert result_to_payload(core.finalize()) == result_to_payload(whole)
    if not leap:
        assert calls < core.cycle


def test_figure3_worked_example():
    trace = run_program(figure3_program())
    core = icfp(trace)
    warm(core, [B1, A2])
    result = run_and_validate(core)

    # One advance episode, six sliced instructions, two rally passes.
    assert core.stats.advance_entries == 1
    assert core.stats.slice_captures == 6
    assert core.stats.rally_passes == 2

    # Architectural outcome of the merge (Figure 3c).
    assert core.main_rf.values[R.r4] == 12
    assert core.committed_memory[A1] == 18
    assert core.committed_memory[A2] == 12
    assert result.instructions == len(trace)


def test_figure3_waw_gating_observable():
    """During the first rally, r3/r4 writes must be suppressed because
    younger advance instructions (seq 6/8) are the last writers."""
    trace = run_program(figure3_program())
    core = icfp(trace)
    warm(core, [B1, A2])
    # Drive manually until the first rally pass has completed.
    while core.stats.rally_passes < 1 or core.rally_active:
        core.step_cycle()
        if core.done():
            break
    # After the first rally: r3 still holds seq-6's value (3), and r4 is
    # still poisoned (its last writer, seq 8, waits on the second miss).
    assert core.main_rf.values[R.r3] == 3
    assert core.main_rf.poison[R.r4] != 0
    core.run()
    assert not core.validate_final_state()


def test_no_miss_program_never_advances():
    trace = run_program(assemble_text(
        """
        li r1, 5
        li r2, 6
        add r3, r1, r2
        mul r4, r3, r1
        halt
        """
    ))
    core = icfp(trace)
    result = run_and_validate(core)
    assert core.stats.advance_entries == 0
    assert result.instructions == 5


def test_lone_miss_commits_independents_under_it():
    """Figure 1a: iCFP commits miss-independent work under a lone miss
    and re-executes only the two-instruction slice."""
    text = f"""
        li r1, {A1}
        ld r2, r1, 0
        addi r3, r2, 1
    """ + "\n".join(["addi r4, r4, 1"] * 60) + "\nhalt"
    trace = run_program(assemble_text(text))
    core = icfp(trace)
    result = run_and_validate(core)
    assert core.stats.advance_entries == 1
    assert core.stats.slice_captures == 2  # the load and its use
    assert core.stats.rally_instructions >= 2

    base = InOrderCore(run_program(assemble_text(text)),
                       config=MachineConfig.hpca09()).run()
    assert result.cycles < base.cycles  # filler hidden under the miss


def test_independent_misses_overlap():
    """Figure 1b: stall-on-use in-order serialises use-miss pairs; iCFP
    overlaps all of them."""
    a = Assembler("indep")
    addrs = [0x50000 + i * 0x4000 for i in range(8)]
    for i, addr in enumerate(addrs):
        a.word(addr, i)
        a.li(R.r1, addr)
        a.ld(R.r2, R.r1, 0)
        a.add(R.r3, R.r3, R.r2)  # immediate use forces in-order stall
    a.halt()
    prog = a.assemble()

    base = InOrderCore(run_program(prog), config=MachineConfig.hpca09()).run()
    core = icfp(run_program(prog))
    result = run_and_validate(core)
    assert result.cycles < base.cycles * 0.45  # overlapped vs serialised
    assert core.stats.d_mlp.average() > 2.0


def test_dependent_miss_chain_multiple_rallies():
    """Figure 1c/d: a pointer chain forces one rally pass per link."""
    a = Assembler("chain")
    chain = [0x60000, 0x70000, 0x80000, 0x90000]
    for here, there in zip(chain, chain[1:]):
        a.word(here, there)
    a.word(chain[-1], 1234)
    a.li(R.r1, chain[0])
    for _ in range(len(chain)):
        a.ld(R.r1, R.r1, 0)
    a.addi(R.r2, R.r1, 0)
    a.halt()
    trace = run_program(a.assemble())
    core = icfp(trace)
    result = run_and_validate(core)
    assert core.main_rf.values[R.r2] == 1234
    assert core.stats.rally_passes >= len(chain) - 1
    assert core.stats.rallies_per_ki() > 0


def test_store_load_forwarding_under_miss():
    """A store under a miss forwards to a younger independent load via
    the chained store buffer (no cache write until commit)."""
    text = f"""
        li r5, {A1}
        li r6, 0x2000
        li r7, 77
        ld r2, r5, 0         # cold miss -> advance
        st r7, r6, 0         # independent store under the miss
        ld r8, r6, 0         # forwards from the store buffer
        addi r3, r2, 1       # miss-dependent
        halt
    """
    trace = run_program(assemble_text(text))
    core = icfp(trace)
    result = run_and_validate(core)
    assert core.stats.store_forward_hits >= 1
    assert core.committed_memory[0x2000] == 77
    assert core.main_rf.values[R.r8] == 77


def test_poisoned_data_store_forwards_poison():
    """A load forwarding from a miss-dependent store gets poisoned and
    rallies later with the correct value."""
    text = f"""
        li r5, {A1}
        li r6, 0x2000
        ld r2, r5, 0         # miss
        addi r2, r2, 1       # dependent
        st r2, r6, 0         # data-poisoned store
        ld r8, r6, 0         # forwards poison -> sliced
        addi r9, r8, 1       # dependent on the poisoned load
        halt
    """
    trace = run_program(assemble_text(text))
    core = icfp(trace)
    run_and_validate(core)
    assert core.main_rf.values[R.r8] == trace.final_state.regs[R.r8]
    assert core.main_rf.values[R.r9] == trace.final_state.regs[R.r9]
    assert core.committed_memory[0x2000] == trace.final_state.memory[0x2000]


def test_poisoned_address_store_falls_back_to_simple_runahead():
    trace = run_program(poisoned_address_program())
    core = icfp(trace)
    run_and_validate(core)
    assert core.stats.simple_runahead_entries >= 1
    assert core.committed_memory[B1] == 99


def test_slice_buffer_overflow_falls_back_and_recovers():
    trace = run_program(dependent_chain_program(40))
    core = icfp(trace, features=ICFPFeatures(validate=True, slice_entries=8))
    run_and_validate(core)
    assert core.stats.simple_runahead_entries >= 1
    assert core.main_rf.values[R.r3] == 45


def test_poisoned_mispredicted_branch_squashes():
    """A branch whose direction depends on missed data and whose
    prediction is wrong must squash to the checkpoint at rally."""
    text = f"""
        li r5, {A1}
        li r6, 1
        ld r2, r5, 0          # miss; loaded value is 7 (odd)
        andi r3, r2, 1
        beq r3, r6, taken     # poisoned branch, actually taken
        addi r9, r9, 500      # not executed architecturally
        taken:
        addi r9, r9, 3
        halt
    """
    prog = assemble_text(text)
    prog.data[A1] = 7
    trace = run_program(prog)
    core = icfp(trace)
    run_and_validate(core)
    assert core.stats.squashes >= 1
    assert core.main_rf.values[R.r9] == 3


def test_external_store_signature_squash():
    trace = run_program(assemble_text(
        f"""
        li r5, {A1}
        li r6, 0x2000
        ld r2, r5, 0          # miss -> advance
        ld r7, r6, 0          # vulnerable cache load under the miss
        addi r3, r2, 1
        halt
        """
    ))
    core = icfp(trace)
    warm(core, [0x2000])  # the vulnerable load must hit the cache
    # Run until we are in advance mode with the vulnerable load done.
    while core.mode != ADVANCE or core.signature.empty:
        core.step_cycle()
        assert not core.done()
    assert core.external_store(0x2000) is True
    assert core.stats.squashes == 1
    assert core.external_store(0x2000) is False  # back to normal mode
    core.run()
    assert not core.validate_final_state()


def test_external_store_squashes_after_a_fallback_call():
    """Callers probe between ``step_cycle`` calls, and a fallback runs
    inside one: after the call that ran it, the advance episode it
    resumed still squashes on a store to a signature address."""
    a = Assembler("fallback_then_probe")
    a.word(A1, B1)                 # the chased pointer
    a.li(R.r5, A1)
    a.li(R.r6, 0x2000)
    a.li(R.r7, 99)
    a.ld(R.r2, R.r5, 0)            # miss -> advance
    a.ld(R.r9, R.r6, 0)            # vulnerable cache load under the miss
    a.ld(R.r8, R.r2, 0)            # chases B1: pending past the first rally
    a.st(R.r7, R.r2, 0)            # poisoned ADDRESS store -> fallback
    a.addi(R.r3, R.r7, 1)
    a.halt()
    trace = run_program(a.assemble())
    core = icfp(trace)
    warm(core, [0x2000])  # the vulnerable load must hit the cache
    while core.stats.simple_runahead_entries == 0:
        core.step_cycle()
        assert not core.done()
    assert core.mode == ADVANCE and not core.signature.empty
    assert core.external_store(0x2000) is True
    assert core.stats.squashes == 1
    core.run()
    assert not core.validate_final_state()


def test_l2_only_trigger_ignores_l1_misses():
    """advance_on='l2' must not advance past an L1-miss/L2-hit."""
    a = Assembler("l2only")
    a.word(A1, 5)
    a.li(R.r1, A1)
    a.ld(R.r2, R.r1, 0)
    a.addi(R.r3, R.r2, 1)
    a.halt()
    trace = run_program(a.assemble())
    core = icfp(trace, features=ICFPFeatures(validate=True, advance_on="l2"))
    # A1 resident in L2 but not in L1: an L1 miss that hits the L2.
    core.hierarchy.l2.insert(core.hierarchy.config.l2.line_addr(A1))
    run_and_validate(core)
    assert core.stats.advance_entries == 0  # L2 hit: no advance


def test_trace_truncation_mid_advance_still_terminates():
    text = f"""
        li r5, {A1}
        loop:
        ld r2, r5, 0
        addi r2, r2, 1
        j loop
    """
    trace = run_program(assemble_text(text), max_instructions=30)
    core = icfp(trace)
    result = core.run()
    assert core.mode == NORMAL
    assert result.instructions == 30
