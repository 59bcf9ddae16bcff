"""Command-line interface: ``python -m repro <command>``.

Every experiment in the paper's evaluation is reachable from the shell,
so results can be regenerated without writing Python:

.. code-block:: sh

    python -m repro characterize            # Table 2 left columns
    python -m repro figure5 -n 20000        # the headline comparison
    python -m repro figure6 -w equake_like  # latency sensitivity
    python -m repro figure7                 # SLTP -> iCFP feature build
    python -m repro figure8                 # store-buffer disciplines
    python -m repro table2                  # miss rates + MLP + rallies
    python -m repro scenarios               # Figure 1 micro-timelines
    python -m repro area                    # Section 5.3 overheads
    python -m repro run mcf_like icfp       # one kernel on one model
    python -m repro cache stats             # disk result-store health
    python -m repro wgen generate -N 8 --seed 7 -o suite.json
    python -m repro wgen characterize -w gen:8:7
    python -m repro phases -w gen:8:7       # per-phase attribution
    python -m repro figure5 --trace         # record obs spans + metrics
    python -m repro obs export --chrome     # -> Perfetto timeline JSON

Campaigns are incremental by default: results persist in the on-disk
store (``REPRO_CACHE_DIR``, default ``.repro-cache/``), so re-running a
figure in a fresh process simulates only cells it has never seen.
``--no-store`` (or ``REPRO_STORE=0``) opts a run out; ``repro cache``
inspects and maintains the store (``repro cache quarantine`` lists the
corrupt records the store has isolated).

Campaigns are also fault-tolerant: jobs lost with a dead worker re-run
on a fresh pool, a failed job fails alone (its siblings finish and
flush, so rerunning the command recomputes only it), a per-job timeout
(``--timeout``) fails a slow cell, and ``--faults`` turns on the
deterministic chaos harness (e.g. ``--faults seed=7,worker_death=0.1``)
to prove it.  Any incident — a re-run, a pool resurrection, a
quarantined record, a failed job — is summarised on stderr after the
campaign.  The ``REPRO_*`` variables these options set last only as
long as the command: :func:`main` restores them on return.

Workload references (``-w``) accept, in any mix: named-suite kernels
(``mcf_like``), generated-suite spec files written by ``repro wgen
generate`` (``@suite.json``), and inline seeded generated suites
(``gen:N`` or ``gen:N:SEED``) — every campaign command runs generated
workloads interchangeably with the named suite.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import signal
import sys

from ..obs import trace as obs_trace
from ..workloads import ALL_KERNELS
from .experiment import (
    MODELS,
    ExperimentConfig,
    default_instructions,
    run_workload,
)
from .figures import (
    figure5,
    figure6,
    figure7,
    figure8,
    format_figure5,
    format_figure6,
    format_figure7,
    format_figure8,
)
from .phases import format_phase_table
from .scenarios import run_all_scenarios
from .sweep import chain_table_sweep, format_sweep, poison_bits_sweep
from .tables import format_area_table, format_table2, table2


def _at_least(low, convert=int, strict=False):
    """argparse type: ``convert(text)``, refused below ``low``, or at it
    when ``strict`` (a zero budget, latency or worker count, a timeout
    that is not positive, or a negative gc age that would put the
    cut-off in the future and expire every record)."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {text!r}") from None
        if not (value > low if strict else value >= low):  # refuses nan
            raise argparse.ArgumentTypeError(
                f"must be {'>' if strict else '>='} {low}, got {text}")
        return value
    return parse


def _add_workload_args(parser: argparse.ArgumentParser,
                       machine: bool = True, budget: bool = True) -> None:
    if budget:
        parser.add_argument("-n", "--instructions", type=_at_least(1),
                            default=None,
                            help="dynamic instructions per kernel")
    parser.add_argument("-w", "--workloads", type=str, default=None,
                        help="comma-separated workload references: kernel "
                             "names, @specfile.json, gen:N[:SEED]")
    if machine:
        parser.add_argument("--l2-latency", type=_at_least(1), default=20,
                            help="L2 hit latency in cycles (Table 1: 20)")
        parser.add_argument("--cold", action="store_true",
                            help="skip the cache warm-up phase")


def _add_campaign_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-j", "--jobs", type=_at_least(1), default=None,
                        help="simulation worker processes (default: "
                             "REPRO_JOBS, then all CPUs; 1 = sequential)")
    parser.add_argument("--store", action=argparse.BooleanOptionalAction,
                        default=None,
                        help="use the on-disk result store under "
                             "REPRO_CACHE_DIR (default: REPRO_STORE, on)")
    parser.add_argument("--timeout", type=_at_least(0, float, strict=True),
                        default=None, metavar="SEC",
                        help="per-job wall-clock timeout in pooled runs; "
                             "an overdue job fails "
                             "(default: REPRO_JOB_TIMEOUT, off)")
    parser.add_argument("--faults", type=str, default=None, metavar="SPEC",
                        help="chaos harness: inject deterministic faults, "
                             "e.g. 'seed=7,worker_death=0.1' "
                             "(default: REPRO_FAULTS, off)")
    parser.add_argument("--trace", action="store_true",
                        help="record structured span traces + metrics to "
                             "<store>/obs/ (default: REPRO_TRACE, off; "
                             "export with `repro obs export --chrome`)")
    parser.add_argument("--report", action="store_true",
                        help="always print the campaign report on stderr, "
                             "even with zero incidents (default: "
                             "REPRO_REPORT, off)")


def _apply_jobs(args) -> None:
    # Threads the worker count, store toggle, and fault-tolerance knobs
    # through every campaign this command runs — the engine reads
    # REPRO_JOBS / REPRO_STORE / REPRO_JOB_TIMEOUT / REPRO_FAULTS
    # wherever the corresponding argument isn't passed explicitly.
    # main() restores them when the command returns.
    if getattr(args, "jobs", None) is not None:
        os.environ["REPRO_JOBS"] = str(args.jobs)
    if getattr(args, "store", None) is not None:
        os.environ["REPRO_STORE"] = "1" if args.store else "0"
    if getattr(args, "timeout", None) is not None:
        os.environ["REPRO_JOB_TIMEOUT"] = str(args.timeout)
    if getattr(args, "faults", None) is not None:
        from ..exec import FaultPlan

        try:
            FaultPlan.parse(args.faults)
        except ValueError as exc:
            raise SystemExit(f"--faults: {exc}") from None
        os.environ["REPRO_FAULTS"] = args.faults
    if getattr(args, "trace", False):
        os.environ["REPRO_TRACE"] = "1"
    if getattr(args, "report", False):
        os.environ["REPRO_REPORT"] = "1"


#: Reports for campaigns still in flight: an interrupt (SIGINT/SIGTERM)
#: or a failed cell prints these before exiting, so a cut-off run still
#: says what it finished, flushed and failed, not just a bare traceback.
_PENDING_REPORTS: list = []


def _report():
    from ..exec import CampaignReport

    report = CampaignReport()
    _PENDING_REPORTS.append(report)
    return report


def _report_requested() -> bool:
    value = os.environ.get("REPRO_REPORT", "")
    return value.strip().lower() not in ("", "0", "false", "no", "off")


def _print_report(report) -> None:
    # Campaign health goes to stderr, so stdout stays parseable.
    print(report.summary(), file=sys.stderr)
    for failure in report.failures:
        print(f"  failed: {failure}", file=sys.stderr)


def _emit_report(report) -> None:
    # A boring campaign with zero incidents prints nothing unless
    # --report / REPRO_REPORT asks for the tallies regardless.
    if report in _PENDING_REPORTS:
        _PENDING_REPORTS.remove(report)
    if report.incidents() or _report_requested():
        _print_report(report)


def _print_pending_reports() -> None:
    for report in _PENDING_REPORTS:
        _print_report(report)


def _config(args) -> ExperimentConfig:
    _apply_jobs(args)
    config = ExperimentConfig(l2_hit_latency=args.l2_latency,
                              warm=not args.cold)
    if args.instructions is not None:
        config = dataclasses.replace(config, instructions=args.instructions)
    return config


def _workloads(args):
    if args.workloads is None:
        return None
    from ..wgen import resolve_workloads

    refs = [n.strip() for n in args.workloads.split(",") if n.strip()]
    try:
        return resolve_workloads(refs)
    except (KeyError, ValueError, OSError) as exc:
        raise SystemExit(f"bad workload reference: {exc}") from None


def cmd_characterize(args) -> None:
    from ..baselines import InOrderCore
    from ..exec.cache import TRACE_CACHE
    from ..wgen import workload_name

    config = _config(args)
    workloads = _workloads(args) or list(ALL_KERNELS)
    print(f"{'kernel':16s} {'IPC':>6s} {'D$/KI':>7s} {'L2/KI':>7s} "
          f"{'brMPKI':>7s}")
    for workload in workloads:
        trace = TRACE_CACHE.get(workload, config.instructions)
        result = InOrderCore(trace, config=config.machine_config()).run()
        d, l2 = result.stats.misses_per_ki()
        br = result.stats.branch_mispredicts * 1000 / max(1, len(trace))
        print(f"{workload_name(workload):16s} {result.ipc:6.3f} "
              f"{d:7.1f} {l2:7.1f} {br:7.1f}")


def cmd_figure5(args) -> None:
    report = _report()
    print(format_figure5(figure5(_config(args), workloads=_workloads(args),
                                 report=report)))
    _emit_report(report)


def cmd_figure6(args) -> None:
    workloads = _workloads(args) or ["equake_like"]
    report = _report()
    print(format_figure6(figure6(workloads=workloads, config=_config(args),
                                 report=report)))
    _emit_report(report)


def cmd_figure7(args) -> None:
    kwargs = {}
    workloads = _workloads(args)
    if workloads:
        kwargs["workloads"] = tuple(workloads)
    report = _report()
    print(format_figure7(figure7(_config(args), report=report, **kwargs)))
    _emit_report(report)


def cmd_figure8(args) -> None:
    kwargs = {}
    workloads = _workloads(args)
    if workloads:
        kwargs["workloads"] = tuple(workloads)
    report = _report()
    print(format_figure8(figure8(_config(args), report=report, **kwargs)))
    _emit_report(report)


def cmd_table2(args) -> None:
    report = _report()
    print(format_table2(table2(_config(args), workloads=_workloads(args),
                               report=report)))
    _emit_report(report)


def cmd_scenarios(_args) -> None:
    results = run_all_scenarios()
    print(f"{'scenario':10s} " + " ".join(f"{m:>10s}" for m in MODELS))
    for key, cycles in results.items():
        print(f"figure-1{key:2s} "
              + " ".join(f"{cycles[m]:10d}" for m in MODELS))


def cmd_area(_args) -> None:
    print(format_area_table())


def _human_bytes(n) -> str:
    """1536 -> '1.5 KiB': byte counts at the size humans read."""
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024.0 or unit == "GiB":
            return (f"{value:.0f} {unit}" if unit == "B"
                    else f"{value:.1f} {unit}")
        value /= 1024.0


def cmd_cache(args) -> None:
    from ..exec.store import ResultStore, cache_dir

    # Maintenance operates on whatever REPRO_CACHE_DIR points at, even
    # when the store is disabled for campaigns.
    store = ResultStore(cache_dir())
    if args.action == "stats":
        info = store.stats()
        print(f"Result store: {info['root']} "
              f"(schema v{info['schema']}, engine {info['engine']})")
        print(f"  total {info['entries']:6d} results  "
              f"{_human_bytes(info['bytes']):>10s}")
        stale = info["stale"]
        if stale["entries"]:
            print(f"  stale versions: {stale['entries']} entries, "
                  f"{_human_bytes(stale['bytes'])}  "
                  "(`repro cache gc --older-than N` removes these)")
        quarantine = info["quarantine"]
        if quarantine["entries"]:
            print(f"  quarantine: {quarantine['entries']} corrupt records, "
                  f"{_human_bytes(quarantine['bytes'])}  "
                  "(`repro cache quarantine` inspects these)")
    elif args.action == "quarantine":
        if args.clear:
            removed = store.clear_quarantine()
            print(f"cleared {removed} quarantined records from "
                  f"{store.quarantine_dir()}")
            return
        entries = store.quarantine_entries()
        if not entries:
            print(f"quarantine empty ({store.quarantine_dir()})")
            return
        print(f"Quarantined corrupt records in {store.quarantine_dir()} "
              "(newest first; `--clear` deletes them):")
        for entry in entries:
            print(f"  {entry['name']}  {entry['bytes']} bytes")
    elif args.action == "verify":
        # Offline integrity audit: read every current-version record
        # through the campaign decode path, quarantining anything torn
        # or malformed now instead of mid-campaign — run it before
        # pointing several campaigns at a shared store.
        info = store.verify()
        print(f"Verified store: {info['root']} "
              f"(schema v{info['schema']}, engine {info['engine']})")
        print(f"  results {info['ok']:6d} ok  "
              f"{info['quarantined']:4d} quarantined")
        if info["quarantined"]:
            print("  (`repro cache quarantine` inspects the damaged "
                  "records; campaigns recompute them on demand)")
    elif args.action == "clear":
        removed = store.clear()
        print(f"cleared {removed} entries from {os.path.abspath(store.root)}")
    else:  # gc
        if args.older_than is None:
            raise SystemExit("cache gc requires --older-than DAYS")
        removed = store.gc(args.older_than)
        print(f"gc: removed {removed['expired']} expired and "
              f"{removed['stale']} stale-version entries from "
              f"{os.path.abspath(store.root)}")


def cmd_obs(args) -> None:
    from ..obs import export as obs_export

    obs_dir = args.obs_dir or obs_trace.default_obs_dir()
    records = obs_export.merge_logs(obs_dir)
    if not records:
        raise SystemExit(
            f"no obs logs under {obs_dir} (record some with --trace "
            "or REPRO_TRACE=1)")
    if args.action == "export":
        # --chrome is the only format today; the flag keeps the command
        # line honest about what the file is for (chrome://tracing,
        # Perfetto).
        output = args.output or os.path.join(obs_dir, "trace.chrome.json")
        info = obs_export.export_chrome(obs_dir, output)
        print(f"wrote {info['events']} events on {info['tracks']} track(s) "
              f"to {info['output']}")
        print("  open it in Perfetto (https://ui.perfetto.dev) or "
              "chrome://tracing")
    else:  # summary
        summary = obs_export.summarize(records)
        print(f"obs logs under {obs_dir}: {len(records)} records")
        spans = summary.get("spans", {})
        if spans:
            print(f"  {'span':16s} {'count':>7s} {'total':>10s}")
            for name in sorted(spans):
                row = spans[name]
                print(f"  {name:16s} {row['count']:7d} "
                      f"{row['total_us'] / 1e6:9.3f}s")
        metrics = summary.get("metrics", {})
        counters = metrics.get("counters", {})
        if counters:
            print("  counters:")
            for name in sorted(counters):
                print(f"    {name:28s} {counters[name]}")


def cmd_wgen(args) -> None:
    import json as _json

    from .. import wgen

    if args.action == "generate":
        try:
            specs = wgen.generate_suite(args.count, args.seed,
                                        max_phases=args.max_phases)
        except ValueError as exc:
            raise SystemExit(f"wgen generate: {exc}") from None
        payload = wgen.suite_to_payload(specs, generator={
            "count": args.count, "seed": args.seed,
            "max_phases": args.max_phases,
        })
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                _json.dump(payload, handle, indent=1, sort_keys=True)
                handle.write("\n")
            print(f"wrote {len(specs)} workload specs to {args.output}")
        else:
            print(_json.dumps(payload, indent=1, sort_keys=True))
    elif args.action == "characterize":
        workloads = _workloads(args)
        if workloads is None:
            raise SystemExit(
                "wgen characterize needs -w (e.g. -w gen:8:7, "
                "-w @suite.json, or kernel names)"
            )
        instructions = (default_instructions() if args.instructions is None
                        else args.instructions)
        rows = wgen.characterize_suite(workloads, instructions)
        print(wgen.format_characterizations(rows))
    else:  # list
        from ..workloads import ARCHETYPES

        if args.workloads:
            for spec in _workloads(args):
                if isinstance(spec, str):
                    print(f"{spec:16s} (named suite)")
                else:
                    print(f"{spec.name:16s} {spec.short_id}  "
                          f"{len(spec.phases)} phase(s)  "
                          f"{spec.archetype_mix}")
        else:
            print("archetypes:")
            for name, builder in ARCHETYPES.items():
                summary = (builder.__doc__ or "").strip().splitlines()[0]
                print(f"  {name:16s} {summary}")
            specs = wgen.registered()
            if specs:
                print("registered generated workloads:")
                for name, spec in sorted(specs.items()):
                    print(f"  {name:16s} {spec.short_id}  "
                          f"{spec.archetype_mix}")


def cmd_phases(args) -> None:
    from .experiment import run_suite

    config = _config(args)
    workloads = _workloads(args)
    if workloads is None:
        raise SystemExit(
            "phases needs -w (multi-phase generated workloads show the "
            "breakdown, e.g. -w gen:8:7 or -w @suite.json; named kernels "
            "report one whole-program bucket)"
        )
    models = MODELS if args.model == "all" else (args.model,)
    report = _report()
    results = run_suite(models, workloads, config, report=report)
    print(format_phase_table(results))
    _emit_report(report)


def cmd_sweep(args) -> None:
    workloads = _workloads(args)
    report = _report()
    if args.parameter == "chain-table":
        result = chain_table_sweep(workloads=workloads, config=_config(args),
                                   report=report)
        print(format_sweep(result, reference=512))
    else:
        result = poison_bits_sweep(workloads=workloads, config=_config(args),
                                   report=report)
        print(format_sweep(result, reference=1))
    _emit_report(report)


def cmd_run(args) -> None:
    from ..wgen import resolve_workloads

    config = _config(args)
    models = (args.model,) if args.model != "all" else MODELS
    # `-w` here preloads references (e.g. -w @suite.json registers that
    # file's specs), so the positional can name a generated workload in
    # a fresh process: repro run -w @suite.json gen7_03 icfp
    _workloads(args)
    try:
        resolved = resolve_workloads([args.kernel])
    except (KeyError, ValueError, OSError) as exc:
        raise SystemExit(f"bad workload reference: {exc}") from None
    if len(resolved) != 1:
        raise SystemExit(
            f"`repro run` takes exactly one workload; {args.kernel!r} "
            f"resolved to {len(resolved)}"
        )
    store = None
    if args.no_leap:
        # Reference mode: every core steps cycle-by-cycle.  The results
        # are identical by the leap contract, but the run exists to
        # *check* that contract, so it must neither read memoised
        # leap-mode records nor write slow-path ones back.
        os.environ["REPRO_NO_LEAP"] = "1"
        store = False
    report = _report()
    runs = run_workload(resolved[0], models=models, config=config,
                        store=store, report=report)
    _emit_report(report)
    baseline = runs.get("in-order")
    for model, result in runs.items():
        line = (f"{model:12s} {result.cycles:>10d} cycles  "
                f"IPC {result.ipc:.3f}")
        if baseline is not None and model != "in-order":
            line += f"  ({result.percent_speedup_over(baseline):+.1f}%)"
        stats = result.stats
        line += (f"  [adv {stats.advance_instructions}, "
                 f"rally {stats.rally_instructions}, "
                 f"squash {stats.squashes}, "
                 f"fallback {stats.simple_runahead_entries}]")
        print(line)
        phases = result.phase_stats or []
        if len(phases) > 1:
            for p in phases:
                print(f"  {p.name:22s} {p.cycles:>8d} cycles  "
                      f"{p.instructions:>6d} insts  "
                      f"[D$ {p.l1d_misses}, L2 {p.l2_misses}, "
                      f"adv {p.advance_instructions}, "
                      f"rally {p.rally_instructions}]")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="iCFP (HPCA 2009) reproduction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Runs InOrderCore in-process, never through run_jobs: the campaign
    # flags would change nothing it prints.
    p = sub.add_parser("characterize", help="in-order kernel characterisation")
    _add_workload_args(p)
    p.set_defaults(fn=cmd_characterize)

    for name, fn, doc in (
        ("figure5", cmd_figure5, "speedup over in-order (headline)"),
        ("figure6", cmd_figure6, "L2 hit-latency sensitivity"),
        ("figure7", cmd_figure7, "SLTP -> iCFP feature build"),
        ("figure8", cmd_figure8, "store-buffer disciplines"),
        ("table2", cmd_table2, "miss rates, MLP, rally overhead"),
    ):
        p = sub.add_parser(name, help=doc)
        _add_workload_args(p)
        _add_campaign_args(p)
        p.set_defaults(fn=fn)

    # Fixed tables: no budget, workload, machine or campaign knob
    # changes what they print, so they accept none.
    for name, fn, doc in (
        ("scenarios", cmd_scenarios, "Figure 1 micro-scenarios"),
        ("area", cmd_area, "Section 5.3 area overheads"),
    ):
        sub.add_parser(name, help=doc).set_defaults(fn=fn)

    p = sub.add_parser("phases", help="per-phase attribution breakdown")
    _add_workload_args(p)
    _add_campaign_args(p)
    p.add_argument("-m", "--model", choices=MODELS + ("all",), default="all",
                   help="restrict to one machine model (default: all)")
    p.set_defaults(fn=cmd_phases)

    p = sub.add_parser("sweep", help="chain-table / poison-bit sweeps")
    _add_workload_args(p)
    _add_campaign_args(p)
    p.add_argument("parameter", choices=("chain-table", "poison-bits"))
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("run", help="run one workload on one model")
    _add_workload_args(p)
    _add_campaign_args(p)
    p.add_argument("kernel", metavar="workload",
                   help="suite kernel name or a generated workload name "
                        "(preload its spec file with -w @file.json)")
    p.add_argument("model", choices=MODELS + ("all",))
    p.add_argument("--no-leap", action="store_true", dest="no_leap",
                   help="cycle-by-cycle reference mode: disable the "
                        "event-horizon leap (sets REPRO_NO_LEAP=1 and "
                        "bypasses the result store for this run)")
    p.set_defaults(fn=cmd_run)

    # Functional only: no machine or campaign knob reaches wgen, and
    # each action accepts just the options it reads.
    p = sub.add_parser("wgen", help="generate / characterize workloads")
    p.set_defaults(fn=cmd_wgen)
    actions = p.add_subparsers(dest="action", required=True)
    a = actions.add_parser("generate", help="sample a seeded suite")
    a.add_argument("-N", "--count", type=int, default=8,
                   help="number of workloads (default 8)")
    a.add_argument("--seed", type=int, default=0,
                   help="generator seed (default 0)")
    a.add_argument("--max-phases", type=int, default=3,
                   help="phases per workload ceiling (default 3)")
    a.add_argument("-o", "--output", type=str, default=None,
                   help="write the spec file here (default: stdout)")
    a = actions.add_parser("characterize",
                           help="functional proxies per workload and phase")
    _add_workload_args(a, machine=False)
    a = actions.add_parser("list", help="the archetype catalogue, or the "
                                        "workloads -w names")
    _add_workload_args(a, machine=False, budget=False)

    p = sub.add_parser("cache", help="inspect / maintain the disk store")
    p.add_argument("action",
                   choices=("stats", "clear", "gc", "quarantine", "verify"))
    p.add_argument("--older-than", type=_at_least(0, float), default=None,
                   metavar="DAYS",
                   help="gc: delete records older than DAYS days "
                        "(stale-version records always go)")
    p.add_argument("--clear", action="store_true",
                   help="quarantine: delete the quarantined records")
    p.set_defaults(fn=cmd_cache)

    p = sub.add_parser("obs", help="export / summarise recorded obs logs")
    p.add_argument("action", choices=("export", "summary"))
    p.add_argument("--chrome", action="store_true",
                   help="export: write Chrome trace-event JSON (the only "
                        "format; the flag names the artefact)")
    p.add_argument("-o", "--output", type=str, default=None,
                   help="export: output path (default "
                        "<obs-dir>/trace.chrome.json)")
    p.add_argument("--obs-dir", type=str, default=None,
                   help="obs log directory (default: REPRO_OBS_DIR, then "
                        "<store root>/obs)")
    p.set_defaults(fn=cmd_obs)
    return parser


def _sigterm_to_interrupt(_signum, _frame) -> None:
    raise KeyboardInterrupt


def _restore_repro_env(saved: dict) -> None:
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        if name not in saved:
            del os.environ[name]
    os.environ.update(saved)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Options reach the engine as REPRO_* variables; an in-process
    # caller gets its environment (and tracer state) back unchanged.
    saved_env = {name: value for name, value in os.environ.items()
                 if name.startswith("REPRO_")}
    try:
        # SIGTERM drains like ^C: completed cells are already flushed
        # incrementally, so all an interrupt should cost is the cells
        # still in flight — and the user gets the report, not a
        # traceback.
        previous = signal.signal(signal.SIGTERM, _sigterm_to_interrupt)
    except ValueError:  # pragma: no cover - non-main thread
        previous = None
    try:
        args.fn(args)
        return 0
    except KeyboardInterrupt:
        print("campaign: interrupted — completed cells are flushed; "
              "rerun the same command to resume", file=sys.stderr)
        _print_pending_reports()
        return 130
    except Exception:
        # A failed cell: its siblings ran and flushed first, so say
        # which cells finished and which failed before the traceback.
        _print_pending_reports()
        raise
    finally:
        _PENDING_REPORTS.clear()
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)
        _restore_repro_env(saved_env)
        obs_trace.refresh()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
