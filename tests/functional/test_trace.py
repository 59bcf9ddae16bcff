"""Unit tests for Trace / DynInst helpers."""

from repro.functional import run_program
from repro.isa import assemble_text


def make_trace():
    return run_program(assemble_text(
        """
        li r1, 0x2000
        li r2, 3
        ld r3, r1, 0
        st r2, r1, 8
        ldf f1, r1, 16
        fadd f2, f1, f1
        beq r2, r0, skip
        mul r4, r2, r2
        skip: halt
        """
    ))


def test_len_index_iter():
    trace = make_trace()
    assert len(trace) == 9
    assert trace[0].index == 0
    assert [d.index for d in trace] == list(range(9))


def test_classification_properties():
    trace = make_trace()
    kinds = [(d.is_load, d.is_store, d.is_branch, d.is_control)
             for d in trace]
    assert kinds[2] == (True, False, False, False)    # ld
    assert kinds[3] == (False, True, False, False)    # st
    assert kinds[4] == (True, False, False, False)    # ldf
    assert kinds[6] == (False, False, True, True)     # beq
    assert trace[2].is_mem and trace[3].is_mem
    assert not trace[5].is_mem


def test_counts():
    trace = make_trace()
    assert trace.num_loads == 2
    assert trace.num_stores == 1
    assert trace.num_branches == 1


def test_count_predicate():
    trace = make_trace()
    assert trace.count(lambda d: d.opclass.value.startswith("fp")) == 1  # fadd


def test_completed_flag():
    trace = make_trace()
    assert trace.completed


def test_src_vals_recorded():
    trace = make_trace()
    store = trace[3]
    assert store.src_vals == (0x2000, 3)  # (base, data)
    assert store.store_val == 3


def test_counts_are_memoized():
    trace = make_trace()
    assert trace.num_loads == 2
    # Cached: mutating the records must not change the memoized answer
    # (traces are read-only to the timing models; this just proves the
    # O(n) scan ran once).
    assert trace._num_loads == 2
    assert trace.num_loads == 2
    assert trace.mem_footprint_lines(64) == trace.mem_footprint_lines(64)
    assert 64 in trace._footprints


def test_hot_arrays_mirror_records():
    trace = make_trace()
    hot = trace.hot
    assert hot is trace.hot  # built once, cached
    for dyn in trace:
        i = dyn.index
        assert hot.srcs[i] == dyn.srcs
        assert hot.dst[i] == dyn.dst
        assert hot.pc[i] == dyn.pc
        assert hot.nsrc[i] == len(dyn.srcs)
        if dyn.srcs:
            assert hot.src0[i] == dyn.srcs[0]
    kinds = [hot.kind[d.index] for d in trace]
    assert kinds[2] == 1 and kinds[3] == 2  # ld, st
    iline = hot.iline(64)
    assert iline == [pc // 64 for pc in hot.pc]
    assert hot.iline(64) is iline  # memoized per line size
