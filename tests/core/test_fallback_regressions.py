"""Regression tests for simple-runahead fallback liveness.

Two deadlocks were found during bring-up, both in the Section 3.4
fallback path; these tests pin the fixes:

1. A store-buffer-full fallback could never resume: the drain is gated
   by the live checkpoint, so waiting for the buffer to empty deadlocks.
   Once the episode's slices have all merged, the fallback must resume
   so the checkpoint can be released and the drain unblocked.
2. Entries sliced *during* a rally pass carrying that pass's own poison
   bit would never be rallied (their bit had already "returned").
"""

from repro.core.icfp import ICFPCore, ICFPFeatures, NORMAL
from repro.harness import ExperimentConfig
from repro.workloads import trace_by_name


def run_kernel(name, features, instructions=2000):
    config = ExperimentConfig(instructions=instructions)
    trace = trace_by_name(name, instructions)
    core = ICFPCore(trace, config=config.machine_config(), features=features)
    result = core.run()
    assert core.mode == NORMAL
    assert result.instructions == len(trace)
    return core


def test_tiny_store_buffer_terminates_on_store_heavy_kernel():
    """Store-heavy stream + 16-entry store buffer: the fallback must
    resume once the episode's slices merge (checkpoint release is the
    only way the gated drain can proceed)."""
    core = run_kernel("swim_like",
                      ICFPFeatures(store_buffer_entries=16, validate=True))
    assert not core.validate_final_state()
    assert core.stats.simple_runahead_entries > 0


def test_tiny_slice_buffer_terminates_on_chase_kernel():
    core = run_kernel("twolf_like",
                      ICFPFeatures(slice_entries=8, validate=True))
    assert not core.validate_final_state()
    assert core.stats.simple_runahead_entries > 0


def test_mt_rally_capture_race_terminates():
    """Entries captured mid-pass with the pass's own bit must still be
    swept up (the stale-bit re-queue in ICFPCore.step_cycle)."""
    core = run_kernel("twolf_like", ICFPFeatures(validate=True),
                      instructions=3000)
    assert not core.validate_final_state()
    assert core.stats.rally_passes > 0
