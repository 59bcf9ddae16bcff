"""Property test: chained forwarding against a brute-force oracle.

Whatever sequence of allocations, rally updates, drains, and squashes
occurs, a chained (or indexed) store buffer's *successful* forwards
must agree with an exhaustive youngest-match search over the live
stores, and the chained kind must never miss a store the oracle finds.
"""

from hypothesis import given, settings, strategies as st

from repro.core.store_buffer import (
    ChainedStoreBuffer,
    ForwardResult,
    IndexedStall,
)

_ADDRS = [0x40 * i for i in range(1, 9)]


class _FakeHierarchy:
    def data_access(self, addr, cycle, is_store=False):
        class R:
            ready_cycle = cycle
            stalled = False
        return R()


_events = st.lists(
    st.one_of(
        st.tuples(st.just("store"), st.sampled_from(_ADDRS),
                  st.integers(0, 99)),
        st.tuples(st.just("forward"), st.sampled_from(_ADDRS)),
        st.tuples(st.just("drain"), st.just(0)),
    ),
    min_size=1, max_size=120,
)


def oracle(live, addr):
    """Youngest live store to ``addr`` (ssn, value) or None."""
    matches = [(ssn, value) for ssn, (a, value) in live.items() if a == addr]
    return max(matches) if matches else None


@settings(max_examples=200, deadline=None)
@given(_events)
def test_chained_forwarding_matches_oracle(events):
    sb = ChainedStoreBuffer(capacity=16, chain_table_size=8, kind="chained")
    hierarchy = _FakeHierarchy()
    live = {}  # ssn -> (addr, value)
    for event in events:
        if event[0] == "store":
            _, addr, value = event
            if sb.full:
                continue
            ssn = sb.allocate(addr, value, 0)
            live[ssn] = (addr, value)
        elif event[0] == "forward":
            _, addr = event
            got = sb.forward(addr)
            want = oracle(live, addr)
            if want is None:
                assert got is None
            else:
                assert isinstance(got, ForwardResult)
                assert (got.ssn, got.value) == want
        else:
            before = sb.ssn_complete
            sb.drain_step(hierarchy, 0, {})
            for ssn in [s for s in live if s <= sb.ssn_complete]:
                del live[ssn]
            assert sb.ssn_complete >= before


@settings(max_examples=100, deadline=None)
@given(_events, st.integers(0, 30))
def test_squash_then_forward_matches_oracle(events, squash_after):
    sb = ChainedStoreBuffer(capacity=16, chain_table_size=8, kind="chained")
    live = {}
    for event in events:
        if event[0] == "store" and not sb.full:
            _, addr, value = event
            ssn = sb.allocate(addr, value, 0)
            live[ssn] = (addr, value)
    new_tail = max(sb.ssn_complete + 1, sb.ssn_tail - squash_after)
    sb.squash_to(new_tail)
    for ssn in [s for s in live if s >= new_tail]:
        del live[ssn]
    for addr in _ADDRS:
        got = sb.forward(addr)
        want = oracle(live, addr)
        if want is None:
            assert got is None
        else:
            assert (got.ssn, got.value) == want


@settings(max_examples=100, deadline=None)
@given(_events)
def test_indexed_kind_is_conservative(events):
    """The indexed kind may stall, but when it *does* forward it must
    agree with the oracle, and when it misses the oracle must miss."""
    sb = ChainedStoreBuffer(capacity=16, chain_table_size=8, kind="indexed")
    live = {}
    for event in events:
        if event[0] == "store" and not sb.full:
            _, addr, value = event
            ssn = sb.allocate(addr, value, 0)
            live[ssn] = (addr, value)
    for addr in _ADDRS:
        got = sb.forward(addr)
        want = oracle(live, addr)
        if isinstance(got, ForwardResult):
            assert (got.ssn, got.value) == want
        elif got is None:
            assert want is None
        else:
            assert isinstance(got, IndexedStall)
