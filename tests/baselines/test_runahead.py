"""Integration tests for Runahead and its cache."""

import pytest

from repro.baselines import (InOrderCore, MultipassCore, RunaheadCache,
                             RunaheadCore)
from repro.baselines.runahead import NORMAL
from repro.exec.store import result_to_payload
from repro.functional import run_program
from repro.isa import Assembler, R, assemble_text
from repro.pipeline import MachineConfig
from repro.workloads import trace_by_name

A1, B1 = 0x10000, 0x20000


def run_core(cls, prog_or_trace, **kw):
    trace = (prog_or_trace if hasattr(prog_or_trace, "insts")
             else run_program(prog_or_trace))
    return cls(trace, config=MachineConfig.hpca09(), **kw).run()


# ----------------------------------------------------------------------
# runahead cache
# ----------------------------------------------------------------------
def test_ra_cache_round_trip():
    c = RunaheadCache(16)
    c.write(0x100, 7)
    assert c.read(0x100) == (7, False)
    assert c.read(0x108) is None


def test_ra_cache_conflict_eviction_is_best_effort():
    c = RunaheadCache(4)
    c.write(0x100, 1)
    c.write(0x100 + 4 * 8, 2)  # same index, different address
    assert c.read(0x100) is None  # displaced: best-effort only
    assert c.read(0x100 + 4 * 8) == (2, False)


def test_ra_cache_poison_and_flush():
    c = RunaheadCache(16)
    c.write(0x100, None, poisoned=True)
    assert c.read(0x100) == (None, True)
    c.flush()
    assert c.read(0x100) is None


def test_ra_cache_rejects_bad_size():
    with pytest.raises(ValueError):
        RunaheadCache(10)


# ----------------------------------------------------------------------
# runahead core
# ----------------------------------------------------------------------
def test_all_instructions_commit_exactly_once():
    text = f"""
        li r1, {A1}
        ld r2, r1, 0
        addi r3, r2, 1
    """ + "\n".join(["addi r4, r4, 1"] * 30) + "\nhalt"
    trace = run_program(assemble_text(text))
    r = run_core(RunaheadCore, assemble_text(text))
    assert r.instructions == len(trace)


def test_lone_miss_gives_no_benefit():
    """Figure 1a: Runahead discards its advance work, so a lone miss
    with no other misses behind it buys nothing."""
    text = f"""
        li r1, {A1}
        ld r2, r1, 0
        addi r3, r2, 1
    """ + "\n".join(["addi r4, r4, 1"] * 60) + "\nhalt"
    base = run_core(InOrderCore, assemble_text(text))
    ra = run_core(RunaheadCore, assemble_text(text))
    assert ra.cycles >= base.cycles - 5  # no speedup (within noise)


def test_independent_misses_overlap():
    """Figure 1b: runahead prefetches the second miss under the first."""
    a = Assembler("indep")
    addrs = [0x50000 + i * 0x4000 for i in range(6)]
    for i, addr in enumerate(addrs):
        a.word(addr, i)
        a.li(R.r1, addr)
        a.ld(R.r2, R.r1, 0)
        a.add(R.r3, R.r3, R.r2)
    a.halt()
    prog = a.assemble()
    base = run_core(InOrderCore, prog)
    ra = run_core(RunaheadCore, prog)
    assert ra.cycles < base.cycles * 0.55
    core = RunaheadCore(run_program(prog), config=MachineConfig.hpca09())
    core.run()
    assert core.stats.advance_entries >= 1
    assert core.stats.d_mlp.average() > 1.5


def test_runahead_reexecutes_everything():
    """Unlike iCFP, runahead instructions do not commit: the advance
    instruction count shows the re-execution overhead."""
    a = Assembler("re")
    addrs = [0x50000 + i * 0x4000 for i in range(4)]
    for i, addr in enumerate(addrs):
        a.word(addr, i)
        a.li(R.r1, addr)
        a.ld(R.r2, R.r1, 0)
        a.add(R.r3, R.r3, R.r2)
    a.halt()
    core = RunaheadCore(run_program(a.assemble()), config=MachineConfig.hpca09())
    r = core.run()
    assert core.stats.advance_instructions > 0
    assert r.instructions == len(core.trace)


def test_runahead_store_forwarding_via_ra_cache():
    text = f"""
        li r5, {A1}
        li r6, 0x2000
        li r7, 77
        ld r2, r5, 0          # miss -> runahead
        st r7, r6, 0          # runahead store
        ld r8, r6, 0          # forwards from the runahead cache
        addi r9, r8, 1
        addi r3, r2, 1
        halt
    """
    core = RunaheadCore(run_program(assemble_text(text)),
                        config=MachineConfig.hpca09())
    ra_cache = core.ra_cache
    write, read = ra_cache.write, ra_cache.read
    written, forwarded = [], []

    def recording_write(addr, value, poisoned=False):
        written.append(addr)
        write(addr, value, poisoned=poisoned)

    def recording_read(addr):
        hit = read(addr)
        if hit is not None:
            forwarded.append((addr, hit))
        return hit

    ra_cache.write, ra_cache.read = recording_write, recording_read
    core.run()
    assert 0x2000 in written
    assert (0x2000, (77, False)) in forwarded
    # Architectural memory state comes from the normal re-execution.
    assert core.committed_memory[0x2000] == 77


def test_dollar_blocking_vs_nonblocking_configs():
    """advance_on='all' poisons secondary D$ misses instead of waiting."""
    a = Assembler("sec")
    a.word(A1, 1)
    # One long L2 miss, then a D$-missing (L2-hit) load behind it.
    a.li(R.r1, A1)
    a.li(R.r2, B1)
    a.ld(R.r3, R.r1, 0)
    a.ld(R.r4, R.r2, 0)
    a.add(R.r5, R.r3, R.r4)
    a.halt()
    prog = a.assemble()
    for mode in ("l2", "all"):
        core = RunaheadCore(run_program(prog), config=MachineConfig.hpca09(),
                            advance_on=mode)
        core.hierarchy.l2.insert(core.hierarchy.config.l2.line_addr(B1))
        r = core.run()
        assert r.instructions == len(core.trace)


def test_invalid_advance_on_rejected():
    trace = run_program(assemble_text("halt"))
    with pytest.raises(ValueError):
        RunaheadCore(trace, advance_on="sometimes")


def test_poisoned_mispredicted_branch_stalls_until_exit():
    text = f"""
        li r5, {A1}
        li r6, 1
        ld r2, r5, 0
        andi r3, r2, 1
        beq r3, r6, taken
        addi r9, r9, 500
        taken:
        addi r9, r9, 3
        halt
    """
    prog = assemble_text(text)
    prog.data[A1] = 7
    r = run_core(RunaheadCore, prog)
    trace = run_program(prog)
    assert r.instructions == len(trace)


@pytest.mark.parametrize("leap", [True, False], ids=["leap", "stepped"])
@pytest.mark.parametrize("cls", [RunaheadCore, MultipassCore],
                         ids=lambda c: c.name)
def test_one_step_cycle_call_runs_a_whole_stretch(cls, leap):
    """A ``step_cycle`` call that runs ahead returns on the cycle before
    the trigger fill does, so a caller driving the core by hand sees it
    between runahead stretches, never past a due restore; driven to
    ``done()`` it gives ``run()``'s result.  Stepped cycle by cycle,
    the calls are fewer than the cycles: the stretches ran in them."""
    trace = trace_by_name("mcf_like", 800)
    whole = cls(trace, config=MachineConfig.hpca09(), leap=leap).run()
    core = cls(trace, config=MachineConfig.hpca09(), leap=leap)
    calls = 0
    while not core.done():
        core.step_cycle()
        calls += 1
        assert core.mode == NORMAL or core.cycle < core._trigger_ready
        assert core.cycle <= whole.cycles
    assert core.stats.advance_entries > 0
    assert result_to_payload(core.finalize()) == result_to_payload(whole)
    if not leap:
        assert calls < core.cycle
