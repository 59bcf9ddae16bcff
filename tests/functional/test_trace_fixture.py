"""Byte-level fixture of functional traces.

Every timing model replays the functional executor's traces, so a trace
that moves moves every simulated statistic downstream of it.  This test
pins trace content directly: per trace, a sha256 over every
:class:`DynInst` slot, the :class:`TraceHot` columns the engine reads
(plus the 64-byte I$ line column), the final architectural state and
the completion flag.  It covers the 24 named kernels, a generated
multi-phase suite, and a hand-assembled program that executes all 34
opcodes (sixteen of which no suite or generated trace reaches), the
last both in one ``run()`` and through ``step()`` then ``run()``.

Functional and ISA refactors must keep every digest.  Regenerate only
for an intended change to ISA semantics::

    PYTHONPATH=src python tests/functional/test_trace_fixture.py --regen
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os

import pytest

from repro.functional import FunctionalExecutor
from repro.functional.trace import DynInst
from repro.isa import Opcode, assemble_text
from repro.wgen import build_workload, generate_suite
from repro.workloads.suite import build_kernel, kernel_names, trace_kernel

INSTRUCTIONS = 2000
#: ``generate_suite(count, seed)``: four generated multi-phase workloads.
GENERATED = (4, 2009)
#: The engine-facing TraceHot columns, in digest order.
HOT_COLUMNS = ("kind", "srcs", "dst", "exec_done", "port_int", "pc",
               "nsrc", "src0", "src1")
#: How many records the split pass takes through ``step()``.
STEPPED = 3

FIXTURE_PATH = os.path.join(os.path.dirname(__file__), "trace_digests.json")

ALL_OPCODES_TEXT = """
        li    r1, 0x2000          # data base
        li    r2, 3               # trip count
        li    r3, 0
        li    r9, -7
loop:
        ld    r4, r1, 0           # int word from the data image
        ldf   f1, r1, 8           # float word
        ldf   f2, r1, 0           # int word, converted to float
        add   r5, r4, r3
        sub   r6, r5, r9
        and   r7, r5, r9
        or    r8, r5, r9
        xor   r10, r5, r9
        slt   r11, r9, r5
        shl   r12, r9, r2
        shr   r13, r9, r2         # logical: a negative value turns large
        mul   r14, r9, r5
        addi  r3, r3, 1
        andi  r15, r9, 0xff
        ori   r16, r9, 0x100
        slti  r17, r9, 0
        shli  r18, r9, 62         # wraps to signed 64 bits
        fadd  f3, f1, f2
        fsub  f4, f1, f2
        fmul  f5, f3, f4
        fmadd f6, f1, f2, f3
        cvtif f7, r9
        cvtfi r19, f5             # truncates a negative float
        st    r5, r1, 16
        stf   f6, r1, 24
        ld    r20, r1, 24         # a float word through an int load
        ldf   f8, r1, 32          # a never-written word reads 0 -> 0.0
        addi  r0, r5, 1           # r0 write dropped, result still recorded
        ld    r0, r1, 0
        beq   r3, r2, out         # taken on the last pass only
        blt   r3, r2, loop        # taken
out:
        jal   r31, func
        bne   r3, r2, out         # not taken
        bge   r9, r2, out         # not taken
        bge   r3, r2, tail        # taken
        halt                      # skipped
func:
        nop
        jr    r31
tail:
        j     done
        nop                       # skipped
done:
        halt
"""


def all_opcodes_program():
    return dataclasses.replace(assemble_text(ALL_OPCODES_TEXT, "all_opcodes"),
                               data={0x2000: 10, 0x2008: 2.5})


def record_key(dyn: DynInst) -> str:
    """Every slot of one record (``inst`` by its repr)."""
    return repr(tuple(getattr(dyn, slot) for slot in DynInst.__slots__))


def state_key(state) -> str:
    """Registers, then memory sorted by address."""
    return repr((state.regs, sorted(state.memory.items())))


def trace_digest(trace) -> str:
    digest = hashlib.sha256()
    for dyn in trace.insts:
        digest.update(record_key(dyn).encode())
    hot = trace.hot
    for column in HOT_COLUMNS:
        digest.update(repr(getattr(hot, column)).encode())
    digest.update(repr(hot.iline(64)).encode())
    digest.update(state_key(trace.final_state).encode())
    digest.update(repr(trace.completed).encode())
    return digest.hexdigest()


_GENERATED_SPECS = {spec.name: spec for spec in generate_suite(*GENERATED)}
TRACE_NAMES = (kernel_names() + list(_GENERATED_SPECS) + ["all_opcodes"])


def build_trace(name: str):
    if name == "all_opcodes":
        return FunctionalExecutor(all_opcodes_program()).run()
    spec = _GENERATED_SPECS.get(name)
    kernel = build_workload(spec) if spec is not None else build_kernel(name)
    return trace_kernel(kernel, instructions=INSTRUCTIONS)


def load_fixture() -> dict:
    with open(FIXTURE_PATH) as handle:
        return json.load(handle)


def test_fixture_covers_every_trace():
    fixture = load_fixture()
    assert fixture["instructions"] == INSTRUCTIONS
    assert fixture["generated"] == list(GENERATED)
    assert sorted(fixture["digests"]) == sorted(TRACE_NAMES)


@pytest.mark.parametrize("name", TRACE_NAMES)
def test_trace_matches_fixture(name):
    assert trace_digest(build_trace(name)) == load_fixture()["digests"][name], (
        f"{name}: functional trace changed"
    )


def test_all_opcodes_program_executes_every_opcode():
    trace = build_trace("all_opcodes")
    assert trace.completed
    assert {dyn.op for dyn in trace} == set(Opcode)


def test_step_then_run_matches_one_run():
    whole = FunctionalExecutor(all_opcodes_program()).run()
    executor = FunctionalExecutor(all_opcodes_program())
    stepped = [executor.step() for _ in range(STEPPED)]
    rest = executor.run()
    assert ([record_key(d) for d in stepped + rest.insts]
            == [record_key(d) for d in whole.insts])
    assert state_key(rest.final_state) == state_key(whole.final_state)
    assert rest.completed and whole.completed


def regenerate() -> None:
    payload = {
        "instructions": INSTRUCTIONS,
        "generated": list(GENERATED),
        "digests": {name: trace_digest(build_trace(name))
                    for name in TRACE_NAMES},
    }
    with open(FIXTURE_PATH, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(payload['digests'])} digests to {FIXTURE_PATH}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        regenerate()
    else:
        print(__doc__)
