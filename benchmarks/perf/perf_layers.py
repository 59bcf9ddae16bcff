"""Per-layer costs, measured from outside by class-level method wrappers.

:class:`Probe` replaces public methods on their classes with wrappers
that keep an exact call count and a *self time* each, then puts the
originals back.  Every call site in the simulator looks its callee up
by attribute (``self.hierarchy.data_access(...)``), so a class-level
patch installed before any core is built sees every call.  Self time
excludes nested wrapped calls, and the wrapper's own cost, calibrated
on a no-op, is subtracted from both the callee and its caller.

The module also owns the layer-metric catalogue: each metric's unit and
direction (``LAYER_METRICS``), which end-to-end metric it should move
on which workload (``MOVES``, written down before measuring), and which
metric owns a profiled function (:func:`owner`).
"""

from __future__ import annotations

import importlib
import math
import re
import statistics
import time

from perf_workloads import MODELS, WORKLOADS

HORIZON_SOURCES = ("head", "fetch", "store_queue", "hierarchy", "subclass",
                   "completion")
ALL = tuple(WORKLOADS)
NAMED = tuple(name for name, w in WORKLOADS.items() if not w.generated)

#: ``step_cycle`` bodies: one per model family (SLTP inherits iCFP's).
STEP_OWNERS = (
    ("repro.baselines.inorder", "InOrderCore"),
    ("repro.baselines.runahead", "RunaheadCore"),
    ("repro.baselines.multipass", "MultipassCore"),
    ("repro.core.icfp", "ICFPCore"),
)

#: (module, class, method, metric prefix) of every timed component call.
#: MSHR retirement is counted at ``MSHRFile.retire_complete``: the
#: merged ``step_cycle`` bodies inline ``retire_mshrs``'s fast path and
#: call the file directly.
COMPONENTS = tuple(
    ("repro.memory.hierarchy", "MemoryHierarchy", fn, f"memory.{fn}")
    for fn in ("data_access", "data_hit_cycle", "fetch_access",
               "next_event_cycle")
) + (
    ("repro.memory.mshr", "MSHRFile", "retire_complete",
     "memory.retire_mshrs"),
) + tuple(
    ("repro.branch.predictor", "BranchPredictor", fn, f"branch.{fn}")
    for fn in ("predict", "update")
) + tuple(
    ("repro.pipeline.store_queue", "StoreQueue", fn,
     f"pipeline.store_queue.{fn}")
    for fn in ("drain_step", "forward", "next_event_cycle")
) + tuple(
    ("repro.core.store_buffer", "ChainedStoreBuffer", fn,
     f"core.store_buffer.{fn}")
    for fn in ("forward", "drain_step", "next_event_cycle")
) + (
    ("repro.core.slice_buffer", "SliceBuffer", "append",
     "core.slice_buffer.append"),
)

#: Campaign-layer calls (timed only around ``run_jobs``).
EXEC_CALLS = (
    ("repro.exec.store", "ResultStore", "get_result", "exec.store.get"),
    ("repro.exec.store", "ResultStore", "put_result", "exec.store.put"),
    ("repro.exec.job", "SimJob", "run", "exec.job.run"),
)

#: Generated-workload composition (timed only during set-up).
COMPOSE_CALL = ("repro.wgen.compose", None, "build_workload",
                "wgen.compose")


# ----------------------------------------------------------------------
# the probe
# ----------------------------------------------------------------------
class Probe:
    """Counting, self-timing wrappers over simulator methods."""

    def __init__(self) -> None:
        #: metric prefix -> [calls, self ns]
        self.calls: dict[str, list[int]] = {}
        #: model name -> [outermost step_cycle calls, self ns]
        self.steps: dict[str, list[int]] = {}
        self._stack = [0]
        self._depth = [0]
        self._saved: list[tuple[object, str, object]] = []
        self.inner_ns = 0.0
        self.carry_ns = 0.0

    # -- calibration ---------------------------------------------------
    def calibrate(self, calls: int = 20000, trials: int = 5) -> None:
        """Measure the wrapper's cost on a no-op method.

        ``inner_ns`` is what a wrapper measures around a call that does
        nothing; ``carry_ns`` is the rest of the cost it adds to its
        caller.  Both are subtracted from every wrapped call.  The no-op
        takes two arguments, as the typical wrapped call does.
        """
        class _Noop:
            def call(self, addr, cycle):
                return None

        target = _Noop()
        original = _Noop.__dict__["call"]
        inners, carries = [], []
        for _ in range(trials):
            bare = self._per_call(target.call, calls)
            cell = [0, 0]
            _Noop.call = self._timed(original, cell, 0.0, 0.0)
            wrapped = self._per_call(target.call, calls)
            _Noop.call = original
            inner = cell[1] / cell[0]
            inners.append(inner)
            carries.append(max(0.0, wrapped - bare - inner))
        self.inner_ns = statistics.median(inners)
        self.carry_ns = statistics.median(carries)
        self._stack[:] = [0]

    @staticmethod
    def _per_call(fn, calls: int) -> float:
        start = time.perf_counter_ns()
        for cycle in range(calls):
            fn(64, cycle)
        return (time.perf_counter_ns() - start) / calls

    # -- wrappers ------------------------------------------------------
    def _timed(self, fn, cell, inner, carry):
        stack = self._stack
        perf = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            stack.append(0)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                cell[0] += 1
                cell[1] += elapsed - stack.pop() - inner
                stack[-1] += elapsed + carry
        return wrapper

    def _stepper(self, fn):
        """``step_cycle`` wrapper: counted once per outermost call, keyed
        by the core's model name (a ``super()`` step is not a step)."""
        stack, depth, steps = self._stack, self._depth, self.steps
        perf = time.perf_counter_ns
        inner, carry = self.inner_ns, self.carry_ns

        def step_cycle(core):
            if depth[0]:
                return fn(core)
            depth[0] = 1
            stack.append(0)
            start = perf()
            try:
                return fn(core)
            finally:
                elapsed = perf() - start
                depth[0] = 0
                cell = steps.get(core.name)
                if cell is None:
                    cell = steps[core.name] = [0, 0]
                cell[0] += 1
                cell[1] += elapsed - stack.pop() - inner
                stack[-1] += elapsed + carry
        return step_cycle

    def patch(self, module: str, cls: str | None, attr: str, make) -> None:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        original = (owner.__dict__[attr] if cls is not None
                    else getattr(owner, attr))
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self, calls=COMPONENTS, steps: bool = True) -> None:
        """Wrap ``calls`` (and every model's ``step_cycle``)."""
        if steps:
            for module, cls in STEP_OWNERS:
                self.patch(module, cls, "step_cycle", self._stepper)
        for module, cls, attr, prefix in calls:
            cell = self.calls.setdefault(prefix, [0, 0])
            self.patch(module, cls, attr,
                       lambda fn, cell=cell: self._timed(
                           fn, cell, self.inner_ns, self.carry_ns))

    def restore(self) -> list[str]:
        """Put every original back; returns any attribute left patched."""
        leftovers = []
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        for owner, attr, original in self._saved:
            current = (owner.__dict__.get(attr) if isinstance(owner, type)
                       else getattr(owner, attr, None))
            if current is not original:
                leftovers.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        self._saved.clear()
        return leftovers

    def count(self, prefix: str) -> int:
        return self.calls.get(prefix, (0, 0))[0]

    def self_ns(self, prefix: str) -> float:
        return self.calls.get(prefix, (0, 0))[1]


# ----------------------------------------------------------------------
# the metric catalogue
# ----------------------------------------------------------------------
def _catalogue() -> list[tuple[str, str, str]]:
    rows = []
    for model in MODELS:
        rows += [(f"engine.{model}.run_s", "s", "lower"),
                 (f"engine.{model}.us_per_step", "us", "lower"),
                 (f"engine.{model}.steps_per_ki", "1/ki", "lower"),
                 (f"engine.{model}.leapt_frac", "fraction", "higher"),
                 (f"engine.{model}.leaps_per_ki", "1/ki", "lower")]
    rows += [(f"engine.horizon.{source}_share", "fraction", "lower")
             for source in HORIZON_SOURCES]
    rows += [("engine.warm_s", "s", "lower"),
             ("engine.self_frac", "fraction", "lower")]
    for _module, _cls, attr, prefix in COMPONENTS:
        rows.append((f"{prefix}.calls_per_ki", "1/ki", "lower"))
        if attr != "append":
            rows.append((f"{prefix}.ns_per_call", "ns", "lower"))
    rows += [(f"{layer}.self_frac", "fraction", "lower")
             for layer in ("memory", "branch", "pipeline", "core")]
    rows += [("functional.build_s", "s", "lower"),
             ("functional.kips", "kinst/s", "higher"),
             ("wgen.compose_s", "s", "lower"),
             ("exec.fingerprint.us_per_call", "us", "lower"),
             ("exec.store.get_ms_per_record", "ms", "lower"),
             ("exec.store.put_ms_per_record", "ms", "lower"),
             ("exec.store.bytes_per_record", "B", "lower"),
             ("exec.store.hits", "count", "higher"),
             ("exec.store.writes", "count", "lower"),
             ("exec.compute_frac", "fraction", "higher"),
             ("exec.retries", "count", "lower"),
             ("exec.failures", "count", "lower")]
    rows += [(f"model.{model}.ipc", "inst/cycle", "higher")
             for model in MODELS]
    rows += [("model.icfp.speedup_gmean", "x", "higher"),
             ("model.l1d_mpki", "1/ki", "lower"),
             ("model.l2_mpki", "1/ki", "lower"),
             ("model.icfp.advance_frac", "ratio", "higher"),
             ("model.icfp.rallies_per_ki", "1/ki", "lower"),
             ("trace.overhead_pct", "%", "lower")]
    return rows


#: (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = tuple(_catalogue())

#: Which end-to-end metric each layer metric should move, on which
#: workloads, and where it should not (the control).  The first matching
#: row wins.  ``None`` marks exact simulated statistics, which a
#: performance change must leave identical, and the benchmark's own cost.
MOVES = (
    (r"engine\.(runahead|multipass|icfp)\.(us_per_step|steps_per_ki)$",
     "sim_kips", ("miss-bound", "hit-bound"), ()),
    (r"engine\.(in-order|sltp)\.(us_per_step|steps_per_ki)$",
     "sim_kips", ("hit-bound",), ()),
    (r"engine\.[a-z-]+\.(leapt_frac|leaps_per_ki)$",
     "sim_kips", ("miss-bound",), ("hit-bound",)),
    (r"engine\.horizon\.", "sim_kips", ("miss-bound",), ("hit-bound",)),
    (r"engine\.[a-z-]+\.run_s$", "sim_kips", ALL, ()),
    (r"engine\.self_frac$", "sim_kips", ("miss-bound", "hit-bound"), ()),
    (r"engine\.warm_s$", "setup_s", ("fig5-grid", "miss-bound"),
     ("hit-bound",)),
    (r"memory\.(data_access|retire_mshrs|next_event_cycle)\.",
     "sim_kips", ("miss-bound",), ("hit-bound",)),
    (r"memory\.(data_hit_cycle|fetch_access)\.",
     "sim_kips", ("hit-bound",), ("miss-bound",)),
    (r"memory\.self_frac$", "sim_kips", ("miss-bound", "hit-bound"), ()),
    (r"branch\.", "sim_kips", ("hit-bound",), ("miss-bound",)),
    (r"pipeline\.", "sim_kips", ("hit-bound",), ()),
    (r"core\.", "sim_kips", ("miss-bound",), ("hit-bound",)),
    (r"functional\.", "setup_s", ("hit-bound", "gen-campaign"), ()),
    (r"wgen\.", "setup_s", ("gen-campaign",), NAMED),
    (r"exec\.store\.(get_ms_per_record|bytes_per_record|hits)$",
     "replay_ms", ALL, ()),
    (r"exec\.", "sim_kips", ("gen-campaign",), NAMED),
    (r"model\.", None, (), ALL),
    (r"trace\.", None, (), ()),
)


def moves(metric: str):
    """``(end-to-end metric, workloads, controls)`` for a layer metric."""
    for pattern, e2e, workloads, controls in MOVES:
        if re.match(pattern, metric):
            return e2e, workloads, controls
    raise KeyError(f"no MOVES row for layer metric {metric!r}")


# ----------------------------------------------------------------------
# deriving the metrics from one traced repetition
# ----------------------------------------------------------------------
def _per_ki(count: float, instructions: int) -> float:
    return 1000.0 * count / instructions if instructions else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(cells: list[dict], probe: Probe, setup: dict, campaign: dict,
           untraced_s: float, traced_s: float) -> dict[str, float]:
    """Every per-layer metric from one traced repetition.

    ``cells`` carry each cell's model, stats, untraced seconds, and the
    obs engine probe's leap tallies from the traced pass; ``setup`` the
    set-up timings; ``campaign`` the ``repro.exec`` timings (zeros for
    workloads that bypass it).
    """
    out: dict[str, float] = {}
    total_inst = sum(c["instructions"] for c in cells)
    # Self fractions are shares of the traced pass less the wrappers'
    # calibrated cost: traced code also runs slower *between* wrapped
    # calls, so shares of the untraced wall would sum past one.
    wrapped = (sum(probe.count(prefix) for *_where, prefix in COMPONENTS)
               + sum(calls for calls, _ns in probe.steps.values()))
    busy_ns = traced_s * 1e9 - wrapped * (probe.inner_ns + probe.carry_ns)
    sources = {s: 0 for s in HORIZON_SOURCES}
    for model in MODELS:
        mine = [c for c in cells if c["model"] == model]
        inst = sum(c["instructions"] for c in mine)
        cycles = sum(c["cycles"] for c in mine)
        run_s = sum(c["seconds"] for c in mine)
        steps = probe.steps.get(model, (0, 0))[0]
        out[f"engine.{model}.run_s"] = run_s
        out[f"engine.{model}.us_per_step"] = _ratio(run_s * 1e6, steps)
        out[f"engine.{model}.steps_per_ki"] = _per_ki(steps, inst)
        out[f"engine.{model}.leapt_frac"] = _ratio(
            sum(c["leapt"] for c in mine), cycles)
        out[f"engine.{model}.leaps_per_ki"] = _per_ki(
            sum(c["leaps"] for c in mine), inst)
        for cell in mine:
            for source, count in cell["sources"].items():
                sources[source] += count
    scans = sum(sources.values())
    for source in HORIZON_SOURCES:
        out[f"engine.horizon.{source}_share"] = _ratio(sources[source], scans)
    out["engine.warm_s"] = setup["warm_s"]
    out["engine.self_frac"] = _ratio(
        sum(ns for _n, ns in probe.steps.values()), busy_ns)
    layer_ns: dict[str, float] = {}
    for _module, _cls, attr, prefix in COMPONENTS:
        calls, self_ns = probe.count(prefix), probe.self_ns(prefix)
        out[f"{prefix}.calls_per_ki"] = _per_ki(calls, total_inst)
        if attr != "append":
            out[f"{prefix}.ns_per_call"] = _ratio(self_ns, calls)
        layer = prefix.split(".", 1)[0]
        layer_ns[layer] = layer_ns.get(layer, 0.0) + self_ns
    for layer in ("memory", "branch", "pipeline", "core"):
        out[f"{layer}.self_frac"] = _ratio(layer_ns.get(layer, 0.0),
                                           busy_ns)
    out["functional.build_s"] = setup["build_s"]
    out["functional.kips"] = _ratio(setup["traced_instructions"],
                                    setup["build_s"] * 1000.0)
    out["wgen.compose_s"] = setup["compose_s"]
    out.update({f"exec.{name}": value for name, value in campaign.items()})
    for model in MODELS:
        mine = [c for c in cells if c["model"] == model]
        out[f"model.{model}.ipc"] = _ratio(
            sum(c["instructions"] for c in mine),
            sum(c["cycles"] for c in mine))
    by_kernel: dict[str, dict[str, dict]] = {}
    for cell in cells:
        by_kernel.setdefault(cell["kernel"], {})[cell["model"]] = cell
    # Over the kernels whose in-order and icfp cells both passed.
    speedups = [runs["in-order"]["cycles"] / runs["icfp"]["cycles"]
                for runs in by_kernel.values()
                if "in-order" in runs and "icfp" in runs]
    out["model.icfp.speedup_gmean"] = (
        math.exp(sum(map(math.log, speedups)) / len(speedups))
        if speedups else 0.0)
    inorder = [c for c in cells if c["model"] == "in-order"]
    icfp = [c for c in cells if c["model"] == "icfp"]
    inorder_inst = sum(c["instructions"] for c in inorder)
    icfp_inst = sum(c["instructions"] for c in icfp)
    out["model.l1d_mpki"] = _per_ki(sum(c["l1d_misses"] for c in inorder),
                                    inorder_inst)
    out["model.l2_mpki"] = _per_ki(sum(c["l2_misses"] for c in inorder),
                                   inorder_inst)
    out["model.icfp.advance_frac"] = _ratio(
        sum(c["advance_instructions"] for c in icfp), icfp_inst)
    out["model.icfp.rallies_per_ki"] = _per_ki(
        sum(c["rally_instructions"] for c in icfp), icfp_inst)
    out["trace.overhead_pct"] = 100.0 * _ratio(traced_s - untraced_s,
                                               untraced_s)
    return out


# ----------------------------------------------------------------------
# profile rows -> owning metric
# ----------------------------------------------------------------------
_MODEL_FILES = {
    "baselines/inorder.py": "in-order",
    "baselines/runahead.py": "runahead",
    "baselines/runahead_cache.py": "runahead",
    "baselines/multipass.py": "multipass",
    "baselines/sltp.py": "sltp",
    "core/icfp.py": "icfp",
    "core/regfile.py": "icfp",
    "core/poison.py": "icfp",
    "core/signature.py": "icfp",
}
_WRAPPED = {(module.replace(".", "/").removeprefix("repro/") + ".py", attr):
            prefix for module, _cls, attr, prefix in COMPONENTS}


def owner(filename: str, function: str) -> str | None:
    """The layer metric whose time a profiled function is part of.

    Mirrors where the probe charges it: a wrapped method owns its own
    row; anything else in a component's package runs inside that
    component's wrapped calls; the rest of the simulator runs inside a
    model's ``step_cycle``.
    """
    path = filename.replace("\\", "/")
    if "/repro/" not in path:
        return None
    rel = path.rsplit("/repro/", 1)[1]
    prefix = _WRAPPED.get((rel, function))
    if prefix is not None:
        return (f"{prefix}.calls_per_ki" if function == "append"
                else f"{prefix}.ns_per_call")
    if rel in _MODEL_FILES:
        return f"engine.{_MODEL_FILES[rel]}.us_per_step"
    package = rel.split("/", 1)[0]
    if rel in ("core/store_buffer.py", "core/slice_buffer.py"):
        return "core.self_frac"
    if rel == "pipeline/store_queue.py":
        return "pipeline.self_frac"
    if package in ("memory", "branch"):
        return f"{package}.self_frac"
    if package in ("engine", "pipeline", "harness"):
        return "engine.self_frac"
    if package in ("functional", "isa", "workloads"):
        return "functional.build_s"
    if package == "wgen":
        return "wgen.compose_s"
    if rel == "exec/fingerprint.py":
        return "exec.fingerprint.us_per_call"
    if rel == "exec/store.py":
        return "exec.store.get_ms_per_record"
    return None


def profile_rows(stats, top: int = 25) -> list[dict]:
    """Top-``top`` self-time rows of a ``pstats.Stats``, each tagged with
    its owning metric.  A row no layer owns (a built-in, a generated
    ``__init__``) takes the owner of the caller that spent the most time
    in it."""
    table = stats.stats
    rows = []
    for func, (_cc, calls, tottime, cumtime, callers) in sorted(
            table.items(), key=lambda kv: kv[1][2], reverse=True)[:top]:
        filename, line, name = func
        metric = owner(filename, name)
        if metric is None and callers:
            caller = max(callers.items(), key=lambda kv: kv[1][2])[0]
            metric = owner(caller[0], caller[2])
        rows.append({"function": f"{filename}:{line}({name})",
                     "calls": calls, "self_s": tottime, "cum_s": cumtime,
                     "metric": metric or "unmapped"})
    return rows
