"""Run-to-run spread of the benchmark, and the checked-in baseline.

Runs the command in ``BENCHMARK.json`` the way an acceptance check
does: ``--runs`` timed runs per workload, each with its own seed,
interleaved workload by workload so host drift hits all of them alike;
then the same again for every further set, on fresh seeds.  Each set
also runs every workload once with ``--trace 1`` at seed 0, whose exact
counts must repeat across sets.  For every (workload, end-to-end
metric) it reports the median, quartiles, n and the spread, the
quartile distance as a share of the median, and the set-to-set change
of the median in the metric's worse direction.  It also times every
run, and estimates from those times how long the runs of an acceptance
check take::

    python3 benchmarks/perf/spread.py --sets 2 --runs 10 \\
        --output benchmarks/perf/baseline.json

A spread wider than the metric's bound is reported as *unresolved*:
this host cannot tell a change of that size from noise on that
workload.  It exits non-zero when a set-to-set change is worse than the
metric's bound, the traced counts differ between sets, or a run is
incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))

#: Layer metrics that are timings, not exact counts or statistics.
TIMED = ("run_s", "us_per_step", "ns_per_call", "self_frac", "warm_s",
         "build_s", "kips", "compose_s", "us_per_call", "ms_per_record",
         "bytes_per_record", "compute_frac", "overhead_pct")


def run(command, workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    start = perf_counter()
    proc = subprocess.run(argv, cwd=REPO, capture_output=True, text=True,
                          check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"incorrect run: {' '.join(argv)}\n{proc.stdout}")
    result["host"] = next((line.strip() for line in lines
                           if line.strip().startswith("host ")), "")
    result["wall_s"] = perf_counter() - start
    return result


def describe(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "n": len(values), "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--output", default=None,
                        help="write the baseline JSON here")
    args = parser.parse_args(argv)
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    command = [sys.executable if part == "python3" else part
               for part in bench["command"]]
    workloads = [w["name"] for w in bench["workloads"]]
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    sets = []
    for index in range(args.sets):
        seeds = [1 + index * args.runs + i for i in range(args.runs)]
        values = {w: {m: [] for m in e2e} for w in workloads}
        walls = {w: [] for w in workloads}
        for seed in seeds:
            for workload in workloads:
                result = run(command, workload, seed, bench["run_seconds"], 0)
                for name, metric in result["metrics"].items():
                    values[workload][name].append(metric["value"])
                walls[workload].append(result["wall_s"])
                print(f"set {index + 1} seed {seed} {workload}: " + ", ".join(
                    f"{n} {m['value']:.4g}"
                    for n, m in result["metrics"].items())
                    + f" ({result['wall_s']:.1f} s; {result['host']})",
                    flush=True)
        traced = {w: run(command, w, 0, bench["run_seconds"], 1)
                  for w in workloads}
        sets.append({"seeds": seeds,
                     "metrics": {w: {m: describe(v) for m, v in ms.items()}
                                 for w, ms in values.items()},
                     "wall_s": walls,
                     "trace_wall_s": {w: r["wall_s"]
                                      for w, r in traced.items()},
                     "trace": {w: {n: m["value"]
                                   for n, m in r["metrics"].items()}
                               for w, r in traced.items()}})
    verdict = check(sets, e2e)
    # An acceptance check makes 4 + 22 x (workloads) runs.
    budget = (22 * sum(statistics.median(x for one in sets
                                         for x in one["wall_s"][w])
                       for w in workloads)
              + 4 * max(x for one in sets
                        for x in one["trace_wall_s"].values()))
    report = {
        "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version()},
        "run_seconds": bench["run_seconds"],
        "acceptance_run_s": budget,
        "sets": sets,
        **verdict,
    }
    print(f"an acceptance check's runs would take about {budget:.0f} s")
    for line in verdict["unresolved"]:
        print("UNRESOLVED:", line)
    for line in verdict["problems"]:
        print("PROBLEM:", line)
    for name, row in verdict["bounds"].items():
        print(f"{name}: bound {row['bound']}, worst spread "
              f"{row['max_spread']:.4f}, worst set-to-set change "
              f"{row['max_change']:.4f}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")
    return 1 if verdict["problems"] else 0


def check(sets: list[dict], e2e: dict) -> dict:
    """Spreads and set-to-set changes against each metric's bound."""
    problems, unresolved = [], []
    changes = {}
    bounds = {name: {"bound": m["bound"], "max_spread": 0.0,
                     "max_change": 0.0} for name, m in e2e.items()}
    for workload, metrics in sets[0]["metrics"].items():
        for name, first in metrics.items():
            bound = bounds[name]
            for one in sets:
                spread = one["metrics"][workload][name]["spread"]
                bound["max_spread"] = max(bound["max_spread"], spread)
                if name != "setup_s" and spread > bound["bound"]:
                    unresolved.append(f"{workload} {name}: spread "
                                      f"{spread:.4f} > bound {bound['bound']}")
            last = sets[-1]["metrics"][workload][name]["median"]
            change = (last - first["median"]) / first["median"]
            worse = -change if e2e[name]["better"] == "higher" else change
            changes.setdefault(workload, {})[name] = change
            bound["max_change"] = max(bound["max_change"], abs(change))
            if worse > bound["bound"]:
                problems.append(f"{workload} {name}: set-to-set change "
                                f"{change:+.4f} worse than bound "
                                f"{bound['bound']}")
    counts_repeat = all(
        value == sets[0]["trace"][workload][name]
        for one in sets[1:] for workload, metrics in one["trace"].items()
        for name, value in metrics.items()
        if not name.endswith(TIMED))
    if not counts_repeat:
        problems.append("traced exact counts differ between sets")
    return {"set_to_set_change": changes, "bounds": bounds,
            "trace_counts_repeat": counts_repeat, "unresolved": unresolved,
            "problems": problems}


if __name__ == "__main__":
    sys.exit(main())
