"""Unit tests for the stream-buffer prefetcher."""

from repro.memory import MainMemory, StreamPrefetcher


def make_prefetcher(buffers=2, depth=4):
    mem = MainMemory(latency=100, chunk_cycles=4, chunk_bytes=16, line_bytes=128)
    return StreamPrefetcher(mem, num_buffers=buffers, depth=depth), mem


def live_streams(pf):
    return [b for b in pf.buffers if b.live]


def miss(pf, line_addr, cycle):
    """An L2 miss as ``MemoryHierarchy.data_access`` presents it to the
    prefetcher: probe the streams, and train a new one only when no
    stream holds the line.  Returns the probe's ready cycle."""
    ready = pf.lookup(line_addr, cycle)
    if ready is None:
        pf.train(line_addr, cycle)
    return ready


def test_first_miss_allocates_stream():
    pf, mem = make_prefetcher()
    assert miss(pf, 100, cycle=0) is None
    [buf] = live_streams(pf)
    # The stream holds lines 101..104, filled to depth by four
    # prefetches spaced by the 32-cycle bus.
    assert [e.line_addr for e in buf.queue] == [101, 102, 103, 104]
    assert [e.ready_cycle for e in buf.queue] == [100, 132, 164, 196]


def test_sequential_misses_hit_the_stream():
    pf, mem = make_prefetcher()
    miss(pf, 100, cycle=0)
    ready = miss(pf, 101, cycle=50)
    assert ready == 100  # the prefetched line's fill time
    # The stream topped itself up past the consumed line.
    buf = next(b for b in pf.buffers if b.live)
    assert buf.queue[0].line_addr == 102
    assert buf.queue[-1].line_addr == 105


def test_skipping_ahead_consumes_intermediate_lines():
    pf, mem = make_prefetcher(depth=4)
    miss(pf, 200, cycle=0)
    ready = miss(pf, 203, cycle=10)  # skips 201, 202
    assert ready is not None
    buf = next(b for b in pf.buffers if b.live)
    assert buf.queue[0].line_addr == 204


def test_unrelated_miss_allocates_second_stream():
    pf, mem = make_prefetcher(buffers=2)
    miss(pf, 100, cycle=0)
    miss(pf, 500, cycle=1)
    live = live_streams(pf)
    assert sorted(b.queue[0].line_addr for b in live) == [101, 501]


def test_lru_stream_replacement():
    pf, mem = make_prefetcher(buffers=2)
    miss(pf, 100, cycle=0)   # stream A
    miss(pf, 500, cycle=10)  # stream B
    miss(pf, 101, cycle=20)  # hit stream A, making B the LRU
    miss(pf, 900, cycle=30)  # must replace B
    lines = {e.line_addr for b in pf.buffers for e in b.queue}
    assert any(line > 900 for line in lines)
    assert all(not (501 <= line <= 510) for line in lines)


def test_prefetches_yield_to_demand_fills():
    pf, mem = make_prefetcher(buffers=1, depth=4)
    miss(pf, 100, cycle=0)
    # 4 prefetches are in flight, but a demand fill jumps the queue.
    demand = mem.read_line(0)
    assert demand == 100  # raw latency, unaffected by prefetch traffic
    # A new prefetch, in contrast, queues behind everything so far:
    # the four stream prefetches hold the bus until 100 + 3 * 32.
    before = mem.bus.next_free
    assert before == 196
    late = mem.read_line(0, prefetch=True)
    assert late == before + mem.line_occupancy


def test_disabled_prefetcher_never_hits():
    mem = MainMemory()
    pf = StreamPrefetcher(mem, num_buffers=0, depth=0)
    assert not pf.enabled()
    assert miss(pf, 1, 0) is None
    assert miss(pf, 2, 0) is None
    assert mem.bus.next_free == 0  # and never prefetches


def test_lookup_does_not_allocate():
    mem = MainMemory(latency=100, chunk_cycles=4, chunk_bytes=16, line_bytes=128)
    pf = StreamPrefetcher(mem, num_buffers=2, depth=4)
    assert pf.lookup(100, 0) is None
    assert live_streams(pf) == []
    assert mem.bus.next_free == 0  # demand fill gets the bus first
    pf.train(100, 0)
    assert len(live_streams(pf)) == 1


def test_outstanding_accounting():
    pf, mem = make_prefetcher(buffers=1, depth=2)
    miss(pf, 100, cycle=0)
    assert pf.outstanding(0) == 2
    assert pf.outstanding(10_000) == 0
