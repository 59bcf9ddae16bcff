#!/usr/bin/env python3
"""Section 3.3: signature-based multiprocessor safety, demonstrated.

iCFP's checkpointed execution leaves cache-sourced loads vulnerable to
stores from other cores.  This example drives an iCFP core cycle by
cycle into advance mode, then injects external stores: one to an
address a vulnerable load read (must squash to the checkpoint and
re-execute) and one to an unrelated address (must not).  The stores
are injected between ``step_cycle`` calls.  A call steps one cycle,
except that one whose tail issue falls back to simple runahead runs the
whole fallback, so a probe never lands mid-fallback; this program never
falls back, so each call here steps one cycle.

Run:  python examples/multiprocessor_safety.py
"""

from repro.core.icfp import ADVANCE, ICFPCore, ICFPFeatures
from repro.functional import run_program
from repro.harness import ExperimentConfig
from repro.isa import Assembler, R

MISS_LINE = 0x100000
SHARED = 0x2000
UNRELATED = 0x3000


def build_core():
    a = Assembler("mp-safety")
    a.word(MISS_LINE, 7)
    a.word(SHARED, 10)
    a.li(R.r1, MISS_LINE)
    a.li(R.r4, SHARED)
    a.ld(R.r2, R.r1, 0)       # long miss -> checkpoint, advance
    a.ld(R.r5, R.r4, 0)       # vulnerable load: commits under the miss
    a.add(R.r6, R.r5, R.r5)
    a.addi(R.r3, R.r2, 1)     # miss-dependent slice
    a.halt()
    trace = run_program(a.assemble())
    config = ExperimentConfig(warm=False)
    core = ICFPCore(trace, config=config.machine_config(),
                    features=ICFPFeatures(validate=True))
    # The shared line is cache-resident (it belongs to another thread's
    # recent working set); the miss line is cold.
    core.hierarchy.l2.insert(core.hierarchy.config.l2.line_addr(SHARED))
    core.hierarchy.l1d.insert(core.hierarchy.config.l1d.line_addr(SHARED))
    return core


def advance_until_vulnerable(core):
    while core.mode != ADVANCE or core.signature.empty:
        core.step_cycle()


def main():
    print("case 1: external store to an address a committed load read")
    core = build_core()
    advance_until_vulnerable(core)
    print(f"  cycle {core.cycle}: in advance mode, signature occupancy "
          f"{core.signature.occupancy():.3%}")
    squashed = core.external_store(SHARED)
    print(f"  external store to {SHARED:#x}: squashed={squashed} "
          f"(total squashes: {core.stats.squashes})")
    core.run()
    assert not core.validate_final_state()
    print("  re-execution converged to the correct architectural state\n")

    print("case 2: external store to an unrelated address")
    core = build_core()
    advance_until_vulnerable(core)
    squashed = core.external_store(UNRELATED)
    print(f"  external store to {UNRELATED:#x}: squashed={squashed}")
    core.run()
    assert not core.validate_final_state()
    print("  no squash, no harm: the signature filtered the probe")

    print("\nUnlike a big associative load queue, the signature costs")
    print("1024 bits (see `python -m repro area`) and is never")
    print("communicated between cores.")


if __name__ == "__main__":
    main()
