"""Property tests: executor semantics against Python reference math."""

from hypothesis import given, settings, strategies as st

from repro.functional import run_program, to_signed64
from repro.isa import Assembler, R

_i64 = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)


def run_binop(op_name, a_val, b_val):
    a = Assembler()
    a.li(R.r1, a_val)
    a.li(R.r2, b_val)
    getattr(a, op_name)(R.r3, R.r1, R.r2)
    a.halt()
    return run_program(a.assemble()).final_state.regs[R.r3]


@settings(max_examples=150, deadline=None)
@given(_i64, _i64)
def test_add_wraps_like_signed64(x, y):
    assert run_binop("add", x, y) == to_signed64(x + y)


@settings(max_examples=150, deadline=None)
@given(_i64, _i64)
def test_mul_wraps_like_signed64(x, y):
    assert run_binop("mul", x, y) == to_signed64(x * y)


@settings(max_examples=100, deadline=None)
@given(_i64, _i64)
def test_sub_and_xor(x, y):
    assert run_binop("sub", x, y) == to_signed64(x - y)
    assert run_binop("xor", x, y) == to_signed64(x ^ y)
    assert run_binop("and_", x, y) == to_signed64(x & y)
    assert run_binop("or_", x, y) == to_signed64(x | y)


@settings(max_examples=100, deadline=None)
@given(_i64, st.integers(min_value=0, max_value=63))
def test_shifts_mask_their_count(x, count):
    a = Assembler()
    a.li(R.r1, x)
    a.li(R.r2, count)
    a.shl(R.r3, R.r1, R.r2)
    a.shr(R.r4, R.r1, R.r2)
    a.halt()
    regs = run_program(a.assemble()).final_state.regs
    assert regs[R.r3] == to_signed64(x << count)
    assert regs[R.r4] == to_signed64((x & ((1 << 64) - 1)) >> count)


@settings(max_examples=100, deadline=None)
@given(_i64, _i64)
def test_slt_total_order(x, y):
    assert run_binop("slt", x, y) == (1 if x < y else 0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 7), _i64), min_size=1, max_size=24))
def test_memory_is_last_writer_wins(writes):
    """A sequence of stores to 8 slots: final memory = the last write."""
    a = Assembler()
    a.li(R.r1, 0x4000)
    expected = {}
    for slot, value in writes:
        value = to_signed64(value)
        a.li(R.r2, value)
        a.st(R.r2, R.r1, slot * 8)
        expected[0x4000 + slot * 8] = value
    a.halt()
    final = run_program(a.assemble()).final_state.memory
    for addr, value in expected.items():
        assert final[addr] == value


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=30))
def test_loop_trip_count(n):
    a = Assembler()
    a.li(R.r1, 0)
    a.li(R.r2, n)
    a.label("loop")
    a.addi(R.r1, R.r1, 1)
    a.bne(R.r1, R.r2, "loop")
    a.halt()
    trace = run_program(a.assemble())
    assert trace.final_state.regs[R.r1] == n
    assert trace.num_branches == n
