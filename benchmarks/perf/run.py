"""The repository's benchmark: host throughput of the iCFP reproduction.

One run measures one workload (see ``perf_workloads.py``)::

    python3 benchmarks/perf/run.py --workload fig5-grid --seed 0 \\
        --seconds 30 --trace 0

It starts one fresh process per repetition (``perf_rep.py``) until the
time budget is spent, at least ``MIN_REPS`` of them, checks every cell's
result, prints every metric by name with its unit, and ends with one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics (``END_TO_END``):

* ``sim_kips`` -- committed instructions / the sum over cells of each
  cell's median host time across repetitions (``gen-campaign``: a
  cell's share of the cold ``run_jobs`` campaign, store write included);
* ``setup_s`` -- process start until every trace is built and every
  warm tag store is ready, median over repetitions, set-up-only ones
  (which fill what the timed repetitions leave of ``--seconds``)
  included;
* ``peak_rss_mb`` -- peak RSS of a repetition, median over repetitions;
* ``replay_ms`` -- one warm replay of the finished grid from a
  ``ResultStore``: median of the replays within a repetition, median
  over repetitions.

Host times are reported at the nominal host speed: every measurement
is divided by the host slowness its bracketing ``perf_host`` samples
show.  The unscaled values are printed beside them.

``--trace 1`` runs one traced repetition and reports the per-layer
metrics (``perf_layers.LAYER_METRICS``).  ``--profile W`` tags the
top-25 cProfile rows of one repetition with the layer metric owning
each; ``--regen`` re-pins ``expected.json``.

A cell fails when it raises, when its result digest differs across
repetitions, from its traced run, or (seed 0) from ``expected.json``,
or when a warm replay does not return it byte-identical from the store.
``correct`` is false if any cell failed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO, "src")
EXPECTED = os.path.join(HERE, "expected.json")
WORK = os.path.join(HERE, ".work")

sys.path.insert(0, HERE)
import perf_host  # noqa: E402
from perf_layers import LAYER_METRICS  # noqa: E402
from perf_workloads import WORKLOADS  # noqa: E402

#: (name, unit, better) of every end-to-end metric.
END_TO_END = (
    ("sim_kips", "kinst/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("replay_ms", "ms", "lower"),
)

#: Fewest timed repetitions in a run, however short ``--seconds`` is.
MIN_REPS = 2

#: A repetition that runs longer than this is killed; the run fails.
REP_TIMEOUT_S = 170


class RepFailed(RuntimeError):
    """A repetition process crashed or overran its timeout."""


def spawn(request: dict, workdir: str) -> dict:
    """Run one repetition in a fresh process; its JSON report."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_STORE"] = "0"  # no warm checkpoints from a developer store
    env["PYTHONPATH"] = SRC
    # String hashing salts dict and set layouts, which moves host time
    # by a few percent from one process to the next; results never
    # depend on it (fingerprints avoid ``hash()``).
    env["PYTHONHASHSEED"] = "0"
    request = dict(request, workdir=workdir, spawned_at=perf_counter())
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "perf_rep.py"),
         json.dumps(request)],
        stdout=subprocess.PIPE, env=env, cwd=REPO, text=True,
        start_new_session=True)
    try:
        out, _err = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RepFailed(f"repetition overran {REP_TIMEOUT_S}s") from None
    if proc.returncode != 0 or not out.strip():
        raise RepFailed(f"repetition exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def pinned(workload: str, engine: str) -> dict:
    """``expected.json`` digests of a workload's seed-0 cells."""
    try:
        with open(EXPECTED, encoding="utf-8") as handle:
            return json.load(handle).get(engine, {}).get(workload, {})
    except FileNotFoundError:
        return {}


def judge(reps: list[dict], expected: dict | None) -> dict[str, str]:
    """Failed cells (key -> first reason) across a run's repetitions."""
    failed = {}
    keys = {key for rep in reps for key in rep["cells"]}
    if expected is not None:
        keys |= set(expected)
    for key in sorted(keys):
        runs = [rep["cells"].get(key) for rep in reps]
        errors = [r["error"] if r else "cell missing from a repetition"
                  for r in runs if not r or r.get("error")]
        digests = {r.get("digest") for r in runs if r}
        if errors:
            failed[key] = errors[0]
        elif len(digests) != 1:
            failed[key] = "result differs across repetitions"
        elif expected is not None and expected.get(key) not in digests:
            failed[key] = ("result differs from expected.json"
                           if key in expected else
                           "no pinned digest in expected.json")
    return failed


def summary(values: list[float]) -> dict:
    """Median, quartiles, p90 and n of a timing's samples."""
    values = sorted(values)
    if len(values) < 2:
        value = values[0] if values else 0.0
        return {"median": value, "q1": value, "q3": value, "p90": value,
                "n": len(values)}
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "p90": statistics.quantiles(values, n=10)[8], "n": len(values)}


def rep_slowness(rep: dict) -> float:
    """Median host slowness over a repetition's bracketed measurements."""
    brackets = [rep["setup_yardstick"], *rep["replay_yardstick"],
                *(cell["yardstick"] for cell in rep["cells"].values()
                  if "yardstick" in cell)]
    return statistics.median(map(perf_host.slowness, brackets))


def end_to_end(reps: list[dict], failed: dict, setups: list[dict] = (),
               slowness=perf_host.slowness) -> tuple[dict, dict]:
    """The end-to-end metrics of a timed run, plus per-sample diagnostics.

    Every host time is divided by ``slowness`` of the yardstick samples
    bracketing it (replays with the replay exponent) before the median
    is taken across repetitions.  ``setup_s`` also takes the
    set-up-only repetitions' ``setups``.
    """
    good = [key for key in reps[0]["cells"] if key not in failed]
    inst = sum(reps[0]["cells"][key]["instructions"] for key in good)
    times = [{key: rep["cells"][key]["seconds"]
              / slowness(rep["cells"][key]["yardstick"]) for key in good}
             for rep in reps]
    per_rep = [inst / sum(t.values()) / 1000 if good else 0.0
               for t in times]
    median = sum(statistics.median(t[key] for t in times) for key in good)
    sim_kips = inst / median / 1000 if good else 0.0
    setup = [rep["setup_s"] / slowness(rep["setup_yardstick"])
             for rep in [*reps, *setups]]
    replays = [[s * 1000 / slowness(pair, perf_host.REPLAY_EXPONENT)
                for s, pair in zip(rep["replay_s"], rep["replay_yardstick"])]
               for rep in reps]
    values = {
        "sim_kips": sim_kips,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rep["rss_mb"] for rep in reps),
        "replay_ms": statistics.median(statistics.median(r) for r in replays),
    }
    samples = {
        "sim_kips": per_rep,
        "setup_s": setup,
        "peak_rss_mb": [rep["rss_mb"] for rep in reps],
        "replay_ms": [s for r in replays for s in r],
    }
    return values, samples


def timed_run(seconds: float, request: dict,
              workdir) -> tuple[list[dict], list[dict]]:
    """Repetitions until ``seconds`` is spent (at least ``MIN_REPS``),
    then set-up-only repetitions in what is left of it: set-up is the
    noisiest measurement, so it gets the most samples the budget allows.
    """
    reps, setups = [], []
    start = perf_counter()
    while True:
        reps.append(spawn(request, workdir))
        elapsed = perf_counter() - start
        if (len(reps) >= MIN_REPS
                and elapsed + elapsed / len(reps) > seconds):
            break
    expected = max(rep["setup_s"] for rep in reps)
    while elapsed + expected <= seconds:
        begun = perf_counter()
        setups.append(spawn(dict(request, mode="setup"), workdir))
        expected = perf_counter() - begun
        elapsed = perf_counter() - start
    return reps, setups


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Host-throughput benchmark of the iCFP reproduction.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="layout seed: 0 is the paper suite as-is")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="time budget for starting repetitions")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: one traced repetition, per-layer metrics")
    parser.add_argument("--profile", choices=sorted(WORKLOADS),
                        help="tag the top-25 cProfile rows of one repetition")
    parser.add_argument("--regen", action="store_true",
                        help="re-pin expected.json from seed 0")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (args.workload or args.profile or args.regen):
        parser.error("one of --workload, --profile, --regen is required")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: simulator sources not found under {SRC}",
              file=sys.stderr)
        return 2
    compileall.compile_dir(SRC, quiet=1)  # repetitions import from .pyc
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        if args.regen:
            return regen(workdir)
        if args.profile:
            return profile(args, workdir)
        return measure(args, WORKLOADS[args.workload], workdir)
    except RepFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run still holds its own workdir


def measure(args, workload, workdir) -> int:
    request = {"workload": workload.name, "seed": args.seed,
               "mode": "trace" if args.trace else "time"}
    reps, setups = (([spawn(request, workdir)], []) if args.trace
                    else timed_run(args.seconds, request, workdir))
    expected = (pinned(workload.name, reps[0]["engine"])
                if args.seed == 0 else None)
    failed = judge(reps, expected)
    attempted = len(reps[0]["cells"])
    print(f"{workload.name}  seed {args.seed}  "
          f"{'traced' if args.trace else 'timed'} repetitions {len(reps)}  "
          f"set-up-only repetitions {len(setups)}  "
          f"cells {attempted}  failed {len(failed)}")
    for key, reason in failed.items():
        print(f"  FAILED {key}: {reason}")
    if args.trace:
        catalogue, values, samples = LAYER_METRICS, reps[0]["layers"], {}
    else:
        catalogue = END_TO_END
        values, samples = end_to_end(reps, failed, setups)
        raw, _samples = end_to_end(reps, failed, setups, lambda *_: 1.0)
        print("  host slowness per repetition (median over its "
              "measurements): " + ", ".join(
                  f"{rep_slowness(rep):.4f}" for rep in reps)
              + "; unscaled: " + ", ".join(
                  f"{name} {raw[name]:.4f}" for name, _u, _b in END_TO_END))
    print(f"  {'metric':44s} {'value':>12s}  {'unit':9s} {'better':6s}"
          f"  median / q1 / q3 / p90 (n)")
    for name, unit, better in catalogue:
        line = f"  {name:44s} {values[name]:12.4f}  {unit:9s} {better:6s}"
        if name in samples:
            s = summary(samples[name])
            line += (f"  {s['median']:.4g} / {s['q1']:.4g} / {s['q3']:.4g}"
                     f" / {s['p90']:.4g} ({s['n']})")
        print(line)
    print(json.dumps({
        "correct": not failed, "attempted": attempted, "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, _better in catalogue}}))
    return 0


def profile(args, workdir) -> int:
    request = {"workload": args.profile, "seed": args.seed,
               "mode": "profile"}
    rows = spawn(request, workdir)["rows"]
    print(f"{args.profile}: top {len(rows)} functions by self time")
    print(f"  {'self_s':>8s} {'calls':>10s}  {'metric':40s} function")
    for row in rows:
        print(f"  {row['self_s']:8.3f} {row['calls']:10d}  "
              f"{row['metric']:40s} {row['function']}")
    return 0


def regen(workdir) -> int:
    """Pin every default-budget seed-0 cell's digest under the engine."""
    pins, engine = {}, None
    for name in WORKLOADS:
        rep = spawn({"workload": name, "seed": 0, "mode": "time",
                     "replays": 1}, workdir)
        engine = rep["engine"]
        errors = {k: c["error"] for k, c in rep["cells"].items()
                  if c.get("error")}
        if errors:
            print(f"error: {name} has failing cells: {errors}",
                  file=sys.stderr)
            return 1
        pins[name] = {k: c["digest"] for k, c in sorted(rep["cells"].items())}
    with open(EXPECTED, "w", encoding="utf-8") as handle:
        json.dump({engine: pins}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"pinned {sum(map(len, pins.values()))} cells under engine "
          f"{engine} in {EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
