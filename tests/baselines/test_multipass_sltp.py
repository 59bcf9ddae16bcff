"""Integration tests for Multipass and SLTP."""

import pytest

from repro.baselines import InOrderCore, MultipassCore, RunaheadCore, SLTPCore
from repro.baselines.runahead import NORMAL, RUNAHEAD
from repro.core.icfp import ICFPCore, ICFPFeatures
from repro.engine import ISSUED
from repro.exec.store import result_to_payload
from repro.functional import run_program
from repro.isa import Assembler, R, assemble_text
from repro.pipeline import MachineConfig
from repro.workloads import trace_by_name

A1 = 0x10000


def independent_miss_program(n=6, with_compute=True):
    a = Assembler("indep")
    for i in range(n):
        addr = 0x50000 + i * 0x4000
        a.word(addr, i)
        a.li(R.r1, addr)
        a.ld(R.r2, R.r1, 0)
        a.add(R.r3, R.r3, R.r2)
        if with_compute:
            for _ in range(4):
                a.mul(R.r4, R.r4, R.r4)
    a.halt()
    return a.assemble()


def run_core(cls, prog, **kw):
    return cls(run_program(prog), config=MachineConfig.hpca09(), **kw).run()


def count_reuses(core):
    """Wrap ``core._issue_reused``; the returned dict counts the saved
    results each mode replayed (issued, not stalled)."""
    issue_reused = core._issue_reused
    reused = {NORMAL: 0, RUNAHEAD: 0}

    def counting_issue_reused(idx):
        outcome = issue_reused(idx)
        if outcome is ISSUED:
            reused[core.mode] += 1
        return outcome

    core._issue_reused = counting_issue_reused
    return reused


# ----------------------------------------------------------------------
# Multipass
# ----------------------------------------------------------------------
def test_multipass_commits_everything_once():
    prog = independent_miss_program()
    trace = run_program(prog)
    r = run_core(MultipassCore, prog)
    assert r.instructions == len(trace)


def test_multipass_records_and_reuses_results():
    prog = independent_miss_program()
    core = MultipassCore(run_program(prog), config=MachineConfig.hpca09())
    reused = count_reuses(core)
    core.run()
    assert sum(reused.values()) > 0


def test_multipass_beats_runahead_on_replay_heavy_code():
    """Result reuse accelerates re-execution: Multipass >= Runahead."""
    prog = independent_miss_program(n=8)
    ra = run_core(RunaheadCore, prog, advance_on="l2_d1")
    mp = run_core(MultipassCore, prog)
    assert mp.cycles <= ra.cycles + 10


def test_multipass_beats_inorder_on_independent_misses():
    prog = independent_miss_program(n=8)
    base = run_core(InOrderCore, prog)
    mp = run_core(MultipassCore, prog)
    assert mp.cycles < base.cycles


@pytest.mark.parametrize("kernel", ["mcf_like", "art_like", "gzip_like"])
def test_multipass_without_result_buffer_is_runahead(kernel):
    """Multipass runs Runahead's per-cycle body and adds only result
    reuse: with no result-buffer entries it must match Runahead under
    the same advance policy on every statistic."""
    trace = trace_by_name(kernel, 800)
    mp = MultipassCore(trace, config=MachineConfig.hpca09(),
                       result_buffer_entries=0)
    ra = RunaheadCore(trace, config=MachineConfig.hpca09(),
                      advance_on=mp.advance_on)
    reused = count_reuses(mp)
    mp_payload = result_to_payload(mp.run())
    ra_payload = result_to_payload(ra.run())
    assert reused == {NORMAL: 0, RUNAHEAD: 0}
    assert mp_payload.pop("model") == "multipass"
    assert ra_payload.pop("model") == "runahead"
    assert mp_payload == ra_payload


@pytest.mark.parametrize("mode", [NORMAL, RUNAHEAD])
def test_multipass_reuses_results_in_both_modes(mode):
    """Both mode issue methods send a head with a saved result to
    ``_issue_reused``: the architectural replay commits it, and a later
    advance pass over the same region re-uses it too."""
    core = MultipassCore(trace_by_name("mcf_like", 800),
                         config=MachineConfig.hpca09())
    reused = count_reuses(core)
    core.run()
    assert reused[mode] > 0


#: model class -> the class whose ``step_cycle`` it runs.  Class-level
#: probes (benchmarks/perf) wrap ``vars(owner)["step_cycle"]`` of the
#: four owners, so each must hold the attribute itself.
STEP_OWNERS = {
    InOrderCore: InOrderCore,
    RunaheadCore: RunaheadCore,
    MultipassCore: MultipassCore,
    SLTPCore: ICFPCore,
    ICFPCore: ICFPCore,
}


@pytest.mark.parametrize("cls", list(STEP_OWNERS), ids=lambda c: c.name)
def test_each_model_runs_one_owned_step_cycle(cls):
    owner = STEP_OWNERS[cls]
    assert "step_cycle" in vars(owner)
    assert cls.step_cycle is vars(owner)["step_cycle"]
    if cls is MultipassCore:
        # One body for the runahead family, not a copy.
        assert vars(cls)["step_cycle"] is vars(RunaheadCore)["step_cycle"]


# ----------------------------------------------------------------------
# SLTP
# ----------------------------------------------------------------------
def test_sltp_commits_everything_once_and_state_is_correct():
    prog = independent_miss_program()
    trace = run_program(prog)
    core = SLTPCore(trace, config=MachineConfig.hpca09(), advance_on="all")
    r = core.run()
    assert r.instructions == len(trace)
    assert not core.validate_final_state()


def test_sltp_speculative_lines_flushed_at_rally():
    text = f"""
        li r5, {A1}
        li r6, 0x2000
        li r7, 77
        ld r2, r5, 0          # miss -> advance
        st r7, r6, 0          # speculative cache write
        ld r8, r6, 0          # forwards through the cache
        addi r3, r2, 1        # dependent -> slice
        halt
    """
    core = SLTPCore(run_program(assemble_text(text)),
                    config=MachineConfig.hpca09(), advance_on="all")
    l1d = core.hierarchy.l1d
    invalidate = l1d.invalidate
    dropped = []

    def recording_invalidate(line):
        if invalidate(line):
            dropped.append(line)
            return True
        return False

    l1d.invalidate = recording_invalidate
    core.run()
    assert 0x2000 // l1d.config.line_bytes in dropped
    assert core.committed_memory[0x2000] == 77
    assert not core.validate_final_state()


def test_sltp_blocking_rally_delays_tail_misses():
    """Figure 1e: a dependent miss rallies while an independent miss
    waits at the tail.  iCFP's non-blocking rally lets the tail reach
    and overlap the independent miss; SLTP's blocking rally freezes the
    tail until the dependent miss returns."""
    a = Assembler("fig1e")
    ch0, ch1, g = 0x60000, 0x70000, 0x80000
    a.word(ch0, ch1)
    a.word(ch1, 42)
    a.word(g, 5)
    a.li(R.r1, ch0)
    a.ld(R.r1, R.r1, 0)       # miss A
    a.ld(R.r1, R.r1, 0)       # dependent miss E (found during A's rally)
    a.addi(R.r9, R.r1, 0)
    for _ in range(500):      # serial tail: fetch reaches G only after
        a.addi(R.r2, R.r2, 1)  # A's rally has begun
    a.li(R.r3, g)
    a.ld(R.r4, R.r3, 0)       # independent miss G
    a.add(R.r5, R.r4, R.r4)
    a.halt()
    prog = a.assemble()

    sltp = SLTPCore(run_program(prog), config=MachineConfig.hpca09(),
                    advance_on="all")
    sltp_result = sltp.run()
    assert not sltp.validate_final_state()

    icfp = ICFPCore(run_program(prog), config=MachineConfig.hpca09(),
                    features=ICFPFeatures(validate=True))
    icfp_result = icfp.run()
    assert not icfp.validate_final_state()
    # iCFP overlaps G with E; SLTP serialises them behind the rally.
    assert icfp_result.cycles < sltp_result.cycles - 100
