""""Flea-flicker" Multipass pipelining (Barnes, Ryoo & Hwu, MICRO 2005).

Multipass extends Runahead with a *result buffer*: advance passes save
the results of miss-independent instructions, and later passes over the
same region reuse them — a reused instruction's consumers need not wait
on its latency, so each pass runs faster ("breaking data-dependences
and increasing ILP").  Unlike SLTP/iCFP, every post-miss instruction is
still re-processed on every pass; reuse accelerates but does not skip.

Configuration per Section 5.1: advances under all L2 misses and under
*primary* data-cache misses; blocks on secondary data-cache misses.

Result reuse is :class:`~.runahead.RunaheadCore`'s one hook (its
``_results``, ``_issue_reused``, the reused head's wake-up and the
prune at exit), idle there because Runahead records no results; this
class only gives the buffer its capacity.
"""

from __future__ import annotations

from .runahead import RunaheadCore


class MultipassCore(RunaheadCore):
    """Runahead with result reuse across passes."""

    name = "multipass"

    def __init__(self, trace, config=None, advance_on: str = "l2_d1",
                 result_buffer_entries: int = 128, **kwargs) -> None:
        super().__init__(trace, config=config, advance_on=advance_on, **kwargs)
        self.result_buffer_entries = result_buffer_entries

    # Runahead's per-cycle body, bound on this class too so class-level
    # probes (benchmarks/perf) can wrap each model's step separately.
    step_cycle = RunaheadCore.step_cycle
