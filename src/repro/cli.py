"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``schemes``
    List registered load-balancing schemes.
``workloads``
    List workload scenario kinds (spec grammar) and aliases.
``run``
    Run one scenario and print its metrics (optionally export CSV/JSON,
    stream a JSONL trace with ``--trace``, profile with ``--telemetry``).
``sweep``
    Load sweep across schemes (``--progress`` prints a heartbeat + ETA).
    ``sweep`` and ``fleet run`` take the same grid flags, build the same
    cells and — with ``fleet resume``, which has only the journal — end
    in the same report, so tables, CSV and manifest agree by
    construction; a cell that failed or never finished renders ``-``.
``figure``
    Regenerate one paper figure's table (reduced scale).
``model``
    Evaluate the Eq. 9 threshold for given parameters (no simulation).
``trace summarize``
    Aggregate a JSONL trace file into per-kind (and per-node) tables
    (``--flow`` / ``--kind`` restrict to one flow or trace kind).
``explain``
    Read a span file (``repro run --spans``) and name where each tail
    flow's completion time went, hop by hop.
``report``
    Render a flight recording (``repro run --record``) as a
    self-contained HTML dashboard; ``--spans`` appends the tail-
    forensics section.
``diff``
    Compare two metric exports (JSON/CSV/recording) metric-by-metric;
    exits non-zero on regressions beyond tolerance.
``cache``
    Result-cache maintenance: ``stats`` (``--json`` for machines),
    ``clear``, ``gc --max-size``.
``fleet run`` / ``resume``
    Crash-resilient distributed sweeps: cells are journaled into a fleet
    directory, claimed by lease-holding worker processes, and written to
    the shared result cache — a SIGKILLed worker's lease is reclaimed by
    the watchdog and rerunning (or ``fleet resume``) recomputes nothing
    already finished.
``fleet status`` / ``fleet top`` / ``fleet report``
    Mission control over a live or crashed fleet directory, without
    touching it.  All three (and ``--progress``) render one view:
    ``status`` prints one frame of ``top`` (``--json`` for machines);
    ``top`` refreshes it (per-worker liveness, stragglers, drain-rate
    ETA, reclaim churn); ``report DIR --html`` renders it as a
    self-contained dashboard (worker swimlanes, cell-latency histogram,
    cache-hit share over time).

``run``, ``sweep``, and fleet runs additionally drop a
``metrics.prom`` / ``metrics.json`` pair beside any ``--csv`` /
``--json`` export (and in the fleet directory): Prometheus-style
textfile exposition plus a deterministic canonical-JSON dump whose
non-volatile instruments are byte-identical across seeded reruns.

``run``, ``sweep``, and ``figure`` all accept ``--cache`` /
``--no-cache`` / ``--cache-dir DIR``: with caching on, any scenario
whose config and code fingerprint match a stored entry is served from
disk instead of re-simulated, and fresh results are written back.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro._version import __version__
from repro.errors import ConfigError

__all__ = ["main", "build_parser"]

FIGURES = {
    "fig3": ("repro.experiments.motivation", "main", ()),
    "fig4": ("repro.experiments.motivation", "main", ()),
    "fig7": ("repro.experiments.model_verification", "main", ()),
    "fig8": ("repro.experiments.basic", "main", ()),
    "fig9": ("repro.experiments.basic", "main", ()),
    "fig10": ("repro.experiments.largescale", "main", ("web_search",)),
    "fig11": ("repro.experiments.largescale", "main", ("data_mining",)),
    "fig12": ("repro.experiments.deadline_agnostic", "main", ()),
    "fig13": ("repro.experiments.testbed", "main", ("n_short",)),
    "fig14": ("repro.experiments.testbed", "main", ("n_long",)),
    "fig15": ("repro.experiments.overhead", "main", ()),
    "fig16": ("repro.experiments.asymmetry", "main", ("delay",)),
    "fig17": ("repro.experiments.asymmetry", "main", ("bandwidth",)),
    # beyond the paper: §7 asymmetry under dynamic mid-run failure
    "faults": ("repro.experiments.faults", "main", ()),
    # beyond the paper: scheme × workload-scenario grid (repro.workload
    # .scenarios specs; see `repro workloads` for the grammar)
    "workloads": ("repro.experiments.workloads", "main", ()),
}


def _add_cache_args(parser: argparse.ArgumentParser) -> None:
    """The shared result-cache flags (``run``/``sweep``/``figure``)."""
    parser.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=False,
        help="serve unchanged scenarios from the result cache and write"
        " fresh results back (default: off)")
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="cache directory (implies --cache; default $REPRO_CACHE_DIR"
        " or ~/.cache/repro)")


def _cache_from_args(args: argparse.Namespace):
    """A ResultCache when caching was requested, else None."""
    if not (getattr(args, "cache", False) or getattr(args, "cache_dir", None)):
        return None
    from repro.cache import ResultCache

    return ResultCache(args.cache_dir)


def _add_grid_args(parser: argparse.ArgumentParser, *, progress_help: str,
                   retries_help: str) -> None:
    """The (scheme × load) grid flags of ``sweep`` and ``fleet run``
    (see :func:`_grid_configs`)."""
    parser.add_argument("--schemes", nargs="+", default=["ecmp", "rps", "tlb"])
    parser.add_argument("--loads", nargs="+", type=float,
                        default=[0.2, 0.5, 0.8])
    parser.add_argument("--sizes", choices=("web_search", "data_mining"),
                        default="web_search")
    parser.add_argument("--workload", default=None, metavar="SPEC",
                        help="workload scenario spec for every cell (default:"
                        " poisson; see `repro workloads`)")
    parser.add_argument("--flows", type=int, default=100)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--faults", metavar="SPEC", default="",
                        help="inject this fault schedule into every run")
    parser.add_argument("--csv", help="write one row per (scheme, load)")
    parser.add_argument("--retries", type=int, default=1, help=retries_help)
    parser.add_argument("--progress", action="store_true", help=progress_help)


def _grid_configs(args: argparse.Namespace) -> list:
    """The cells the grid flags describe, in grid order."""
    from repro.experiments.largescale import default_config, load_grid
    from repro.workload.scenarios import parse_scenario

    config = default_config(args.sizes, n_flows=args.flows, seed=args.seed)
    if args.workload:
        # Scenario grids need a multi-leaf fabric for cross-leaf skew.
        config = config.with_(workload=args.workload, n_leaves=4,
                              hosts_per_leaf=16)
        # a spec with its own load=, static, incast:, diurnal: ignore it
        if (len(set(args.loads)) > 1
                and not parse_scenario(args.workload).reads_load_axis()):
            raise ConfigError(
                f"--loads {' '.join(f'{l:g}' for l in args.loads)}: workload"
                f" {args.workload!r} does not read the load axis, so every"
                " load would be a differently-labelled copy of one run;"
                " drop load= from the spec, or pass one --loads value")
    if args.faults:
        config = config.with_(faults=args.faults)
    return load_grid(config, args.schemes, args.loads)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="TLB (ICPP 2019) reproduction toolkit",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("schemes", help="list load-balancing schemes")
    sub.add_parser("workloads",
                   help="list workload scenario kinds and aliases")

    run = sub.add_parser("run", help="run one scenario")
    run.add_argument("--scheme", default="tlb")
    run.add_argument("--workload", default="static", metavar="SPEC",
                     help="a scenario spec: 'static' (the §4.2"
                     " microbenchmark, sized by --short-flows/--long-flows),"
                     " 'poisson', 'trace:file=PATH', 'zipf:s=1.2', ..."
                     " (see `repro workloads`)")
    # poisson-only knobs default to None so we can tell "explicitly
    # passed" from "defaulted" and warn under --workload static.
    run.add_argument("--sizes", choices=("web_search", "data_mining"),
                     default=None, help="flow-size distribution (poisson only;"
                     " default web_search)")
    run.add_argument("--load", type=float, default=None,
                     help="offered load (poisson only; default 0.4)")
    run.add_argument("--flows", type=int, default=None,
                     help="number of flows (poisson only; default 150)")
    run.add_argument("--short-flows", type=int, default=100)
    run.add_argument("--long-flows", type=int, default=3)
    run.add_argument("--paths", type=int, default=15)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--csv", help="write metrics to this CSV file")
    run.add_argument("--json", help="write metrics to this JSON file")
    run.add_argument("--trace", metavar="FILE",
                     help="stream a JSONL trace of the run to FILE")
    run.add_argument("--spans", metavar="FILE",
                     help="collect per-flow spans and write the span file"
                     " here (.spans.json or .spans.json.gz; see"
                     " `repro explain`)")
    run.add_argument("--telemetry", action="store_true",
                     help="profile the run (wall time, events/sec, peak RSS)")
    run.add_argument("--record", metavar="FILE",
                     help="flight-record the run to FILE (.npz; see"
                     " `repro report` / `repro diff`)")
    run.add_argument("--faults", metavar="SPEC", default="",
                     help="dynamic fault schedule, e.g."
                     " '0.1:link_down:leaf0-spine1;0.3:link_up:leaf0-spine1'")
    run.add_argument("--fault-detection-delay", type=float, default=0.0,
                     metavar="S", help="seconds before balancers learn of a"
                     " link transition (default 0: oracle control plane)")
    _add_cache_args(run)

    fig = sub.add_parser("figure", help="regenerate one paper figure")
    fig.add_argument("name", choices=sorted(FIGURES))
    fig.add_argument("--workload", action="append", metavar="SPEC",
                     dest="workloads", default=None,
                     help="scenario spec column for `figure workloads`"
                     " (repeatable; default: built-in grid)")
    fig.add_argument("--csv", default=None,
                     help="CSV export for figures that support it"
                     " (`figure workloads`)")
    _add_cache_args(fig)

    sw = sub.add_parser("sweep", help="load sweep across schemes, CSV out")
    _add_grid_args(
        sw, progress_help="print per-task completion and ETA to stderr",
        retries_help="retry budget per crashed run (default 1)")
    sw.add_argument("--processes", type=int, default=None)
    _add_cache_args(sw)

    fleet = sub.add_parser(
        "fleet", help="crash-resilient distributed sweep (resumable)")
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)

    frun = fleet_sub.add_parser(
        "run", help="run (or resume) a sweep through the fleet fabric")
    frun.add_argument("--dir", required=True, metavar="DIR",
                      help="fleet directory holding the journal, leases,"
                      " and worker heartbeats; rerunning with the same"
                      " directory resumes with zero recomputation")
    _add_grid_args(
        frun, progress_help="print a fleet heartbeat to stderr",
        retries_help="error-retry budget per cell (default 1);"
        " worker crashes are budgeted separately")
    frun.add_argument("--workers", type=int, default=None,
                      help="worker subprocesses (0 = one inline worker,"
                      " no subprocess; default: auto)")
    frun.add_argument("--lease-ttl", type=float, default=30.0, metavar="SEC",
                      help="heartbeat TTL before a dead worker's lease is"
                      " reclaimed (default 30)")
    frun.add_argument("--cache-dir", metavar="DIR", default=None,
                      help="shared result cache (default $REPRO_CACHE_DIR"
                      " or ~/.cache/repro); the fleet always caches")

    fresume = fleet_sub.add_parser(
        "resume", help="resume a fleet purely from its journal (no grid"
        " flags needed)")
    fresume.add_argument("--dir", required=True, metavar="DIR")
    fresume.add_argument("--csv", help="write one row per (scheme, load)")
    fresume.add_argument("--workers", type=int, default=None)
    fresume.add_argument("--progress", action="store_true")
    fresume.add_argument("--cache-dir", metavar="DIR", default=None)

    fstatus = fleet_sub.add_parser(
        "status", help="cell counts, worker liveness, stale leases")
    fstatus.add_argument("--dir", required=True, metavar="DIR")
    fstatus.add_argument("--json", action="store_true",
                         help="machine-readable status on stdout")

    ftop = fleet_sub.add_parser(
        "top", help="live mission-control view of a fleet directory")
    ftop.add_argument("--dir", required=True, metavar="DIR")
    ftop.add_argument("--interval", type=float, default=2.0, metavar="SEC",
                      help="refresh period (default 2)")
    ftop.add_argument("--iterations", type=int, default=0, metavar="N",
                      help="stop after N refreshes (default 0: run until"
                      " the fleet drains or Ctrl-C)")
    ftop.add_argument("--no-clear", action="store_true",
                      help="append refreshes instead of clearing the"
                      " screen (log-friendly)")

    frep = fleet_sub.add_parser(
        "report", help="render a fleet's mission-control dashboard as HTML")
    frep.add_argument("dir", metavar="DIR",
                      help="fleet directory (live or finished)")
    frep.add_argument("--html", metavar="FILE", default=None,
                      help="write the dashboard here (default:"
                      " DIR/report.html)")

    # internal: the subprocess entry point `run_fleet` spawns
    fworker = fleet_sub.add_parser("worker")
    fworker.add_argument("--dir", required=True, metavar="DIR")
    fworker.add_argument("--cache-dir", metavar="DIR", default=None)
    fworker.add_argument("--worker-id", metavar="NAME", default=None)
    fworker.add_argument("--poll", type=float, default=0.2)

    cache = sub.add_parser("cache", help="result-cache maintenance")
    cache.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="cache directory (default $REPRO_CACHE_DIR"
                       " or ~/.cache/repro)")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_sub.add_parser(
        "stats", help="entry count, size, session counters, per-scheme"
        " breakdown, quarantined corrupt entries, index staleness")
    cache_stats.add_argument("--json", action="store_true",
                             help="machine-readable stats on stdout")
    cache_sub.add_parser("clear", help="delete every cached result")
    cache_gc = cache_sub.add_parser(
        "gc", help="evict least-recently-used entries down to a size cap,"
        " purge quarantined corrupt entries, and compact a stale index")
    cache_gc.add_argument("--max-size", required=True, metavar="SIZE",
                          help="target total size, e.g. 500M, 2G, or bytes")

    trace = sub.add_parser("trace", help="trace-file utilities")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    summ = trace_sub.add_parser(
        "summarize", help="aggregate a JSONL trace into per-kind tables")
    summ.add_argument("path", help="trace file written by `repro run --trace`")
    summ.add_argument("--per-node", action="store_true",
                      help="also print the per-(kind, node) breakdown")
    summ.add_argument("--top", type=int, default=None, metavar="N",
                      help="limit the per-node table to each kind's N busiest nodes")
    summ.add_argument("--flow", type=int, default=None, metavar="ID",
                      help="only count records tagged with this flow id")
    summ.add_argument("--kind", default=None, metavar="KIND",
                      help="only count records of this trace kind"
                      " (e.g. drop, reroute)")

    explain = sub.add_parser(
        "explain", help="attribute tail-flow completion time from a span file")
    explain.add_argument("path", help="span file written by `repro run --spans`")
    explain.add_argument("--flow", type=int, default=None, metavar="ID",
                         help="explain this one flow instead of the tail")
    explain.add_argument("--tail", type=int, default=5, metavar="N",
                         help="number of slowest flows to explain (default 5)")
    explain.add_argument("--hops", type=int, default=12, metavar="N",
                         help="per-flow hop-timeline rows to print (default 12)")
    explain.add_argument("--format", choices=("text", "json"), default="text",
                         help="output format (default text)")

    rep = sub.add_parser("report", help="render a flight recording as HTML")
    rep.add_argument("path", help="recording written by `repro run --record`")
    rep.add_argument("--html", metavar="FILE",
                     help="write the dashboard here (default: print the"
                     " recording's summary row)")
    rep.add_argument("--spans", metavar="FILE",
                     help="span file for the same run; adds the"
                     " tail-forensics section to the HTML")

    diff = sub.add_parser(
        "diff", help="compare two metric exports; non-zero exit on regression")
    diff.add_argument("a", help="baseline export (.json, .csv, or .npz)")
    diff.add_argument("b", help="candidate export (.json, .csv, or .npz)")
    diff.add_argument("--tolerance", type=float, default=5.0, metavar="PCT",
                      help="allowed relative change in the bad direction,"
                      " percent (default 5)")
    diff.add_argument("--all", action="store_true", dest="show_all",
                      help="show unchanged metrics too")

    model = sub.add_parser("model", help="evaluate Eq. 9 (no simulation)")
    model.add_argument("--short-flows", type=int, default=100)
    model.add_argument("--long-flows", type=int, default=3)
    model.add_argument("--paths", type=int, default=15)
    model.add_argument("--deadline", type=float, default=0.010)
    model.add_argument("--rate", type=float, default=1e9)
    model.add_argument("--short-size", type=float, default=70_000)
    return p


def _cmd_schemes() -> int:
    from repro.lb import available_schemes

    for name in available_schemes():
        print(name)
    return 0


def _cmd_workloads() -> int:
    from repro.workload.scenarios import (
        EXAMPLE_SPECS, SCENARIO_ALIASES, SCENARIO_KINDS)

    print("scenario kinds (spec grammar: kind:key=value,key=value;"
          " a bare name is read from the config, cdf's and trace's file"
          " is required):")
    # the two kinds without key=value parameters say what they read instead
    bare = {"mix": "NAME@WEIGHT+NAME@WEIGHT...",
            "static": "(no parameters; sized by the config's n_short,"
                      " n_long, ...)"}
    for kind, cls in sorted(SCENARIO_KINDS.items()):
        params = " ".join(
            name if default is None else f"{name}={default:g}"
            for name, (_, default, _) in cls.PARAMS.items()
        ) or bare.get(kind, "")
        example = EXAMPLE_SPECS.get(kind)
        suffix = f"  e.g. {example}" if example else ""
        print(f"  {kind:<8} {params}{suffix}")
    print("times take us/ms/s suffixes, sizes B/KB/MB; defaults are in"
          " seconds and bytes")
    print("aliases:")
    for alias, expansion in sorted(SCENARIO_ALIASES.items()):
        print(f"  {alias} = {expansion}")
    return 0


#: poisson-only `run` flags and their effective defaults (kept as None in
#: argparse so passing one under --workload static can be diagnosed).
_POISSON_ONLY = {"load": 0.4, "sizes": "web_search", "flows": 150}


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments import ScenarioConfig, run_scenario
    from repro.metrics.export import write_metrics_csv, write_metrics_json

    if args.workload == "static":
        ignored = [f"--{name}" for name in _POISSON_ONLY
                   if getattr(args, name) is not None]
        if ignored:
            verb = "apply" if len(ignored) > 1 else "applies"
            print(
                f"warning: {', '.join(ignored)} {verb} only to"
                " --workload poisson; ignored", file=sys.stderr)
        config = ScenarioConfig(
            scheme=args.scheme, seed=args.seed, n_paths=args.paths,
            n_short=args.short_flows, n_long=args.long_flows,
            hosts_per_leaf=args.short_flows + args.long_flows,
            short_window=0.02, distinct_hosts=True,
            telemetry=args.telemetry, faults=args.faults,
            fault_detection_delay=args.fault_detection_delay)
    else:
        filled = {name: default if getattr(args, name) is None
                  else getattr(args, name)
                  for name, default in _POISSON_ONLY.items()}
        # Scenario specs (zipf:…, incast:…, mix:…) get a wider fabric so
        # skew/fan-in shapes have room; plain poisson keeps its historic
        # 2-leaf default (existing cache keys stay valid).
        n_leaves = 2 if args.workload == "poisson" else 4
        config = ScenarioConfig(
            scheme=args.scheme, seed=args.seed, workload=args.workload,
            sizes=filled["sizes"], load=filled["load"],
            n_flows=filled["flows"],
            n_paths=4, n_leaves=n_leaves, hosts_per_leaf=16,
            truncate_tail=3_000_000,
            horizon=5.0, telemetry=args.telemetry, faults=args.faults,
            fault_detection_delay=args.fault_detection_delay)

    if args.spans:
        config = config.with_(spans=True)
    # Run aggregates (events, flows, wall) for the metrics files; the
    # flag is cache-neutral (NON_SEMANTIC_FIELDS), so hits still hit.
    config = config.with_(metrics=True)

    cache = _cache_from_args(args)
    if cache is not None and (args.trace or args.record or args.spans
                              or args.telemetry):
        # A cached result has no packet stream to trace or sample and no
        # event loop to time.
        print("warning: --cache ignored with --trace/--record/--spans/"
              "--telemetry (they need a live run)", file=sys.stderr)
        cache = None

    tracer = None
    if args.trace:
        from repro.obs import JsonlTracer

        tracer = JsonlTracer(args.trace)
    recorder = None
    if args.record:
        from repro.obs import FlightRecorder

        recorder = FlightRecorder()
    metrics = cache.get(config) if cache is not None else None
    if metrics is not None:
        print("result cache: hit", file=sys.stderr)
    else:
        try:
            result = run_scenario(config, tracer=tracer, recorder=recorder)
        finally:
            if tracer is not None:
                tracer.close()
        metrics = result.metrics
        if cache is not None:
            cache.put(config, metrics)
    print(metrics.summary())
    if tracer is not None:
        print(f"wrote {args.trace} ({tracer.records_written} trace records)")
    if recorder is not None:
        saved = recorder.save(args.record)
        print(f"wrote {saved} ({recorder.n_samples} samples, "
              f"final cadence {recorder.cadence_now * 1e6:.0f} µs)")
    if args.spans and result.spans is not None:
        saved = result.spans.save(args.spans)
        totals = result.spans.data["totals"]
        retained = sum((totals.get("retained") or {}).values())
        print(f"wrote {saved} ({totals['flows']} flows, "
              f"{retained} with full hop detail; see `repro explain`)")
    manifest = None
    if args.csv or args.json:
        from repro.obs import build_manifest

        extra = ({"cache": cache.session_summary()}
                 if cache is not None else None)
        manifest = build_manifest(config, metrics, counters=tracer,
                                  extra=extra)
    if args.csv:
        print("wrote", write_metrics_csv(
            args.csv, [metrics], manifest=manifest))
    if args.json:
        print("wrote", write_metrics_json(
            args.json, [metrics], manifest=manifest))
    if args.csv or args.json:
        _write_metrics_beside(args.csv, args.json)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_many

    configs = _grid_configs(args)
    cache = _cache_from_args(args)
    results = run_many(configs, processes=args.processes,
                       progress=args.progress, label="sweep",
                       on_error="record", retries=args.retries,
                       cache=cache)
    code, wrote = _emit_grid(
        "sweep", configs, results, args.csv,
        cached=cache.hits if cache is not None else 0,
        extra={"cache": cache.session_summary()} if cache is not None else {})
    if wrote:
        _write_metrics_beside(args.csv)
    return code


def _emit_grid(label: str, configs: list, results: list, csv: Optional[str],
               *, cached: int, extra: dict) -> tuple[int, bool]:
    """The one report of a (scheme × load) grid — ``sweep``, ``fleet
    run`` and ``fleet resume`` all end here, so their artefacts are
    identical by construction: panels, summary line, one ``FAILED`` line
    per failed cell, and (``csv``) the finished cells' CSV + manifest.
    Every label comes from the cell's config; a ``None`` result is a
    cell that never finished (it renders ``-``).  ``cached`` of the
    finished cells were not computed by this invocation.  Returns the
    exit code and whether the CSV was written."""
    from repro.experiments.largescale import sweep_row, tabulate
    from repro.experiments.runner import TaskFailure

    cells = list(zip(configs, results))
    ok = [(c, m) for c, m in cells
          if m is not None and not isinstance(m, TaskFailure)]
    failed = [(c, m) for c, m in cells if isinstance(m, TaskFailure)]
    print(tabulate([sweep_row(c.scheme, c.load, m) for c, m in ok],
                   configs[0].sizes if configs else "web_search"))
    print(f"{label}: {len(cells)} row(s) — {len(ok) - cached} computed,"
          f" {cached} cached, {len(failed)} failed", file=sys.stderr)
    for c, f in failed:
        print(f"FAILED scheme={c.scheme} load={c.load:g} after"
              f" {f.attempts} attempt(s): {f.error}", file=sys.stderr)
    if csv and ok:
        from repro.metrics.export import write_metrics_csv
        from repro.obs import build_manifest

        sweep = {"schemes": list(dict.fromkeys(c.scheme for c in configs)),
                 "loads": list(dict.fromkeys(c.load for c in configs)),
                 "failed": [{"scheme": c.scheme, "load": c.load,
                             "error": f.error} for c, f in failed]}
        manifest = build_manifest(configs[0], counters=None,
                                  extra={"sweep": sweep, **extra})
        print("wrote", write_metrics_csv(
            csv, [m for _, m in ok],
            extra_columns=[{"load": c.load, "swept_scheme": c.scheme}
                           for c, _ in ok],
            manifest=manifest))
    return (1 if failed and not ok else 0), bool(csv and ok)


def _json_safe(obj):
    """Replace non-finite floats (lease/heartbeat ages can be inf)."""
    import math

    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _write_metrics_beside(*export_paths: Optional[str]) -> None:
    """Drop metrics.prom + metrics.json next to each export (and its
    manifest) — Prometheus textfiles plus the deterministic dump."""
    from pathlib import Path

    from repro.obs.metrics import get_registry

    seen = set()
    for export in export_paths:
        if not export:
            continue
        directory = Path(export).resolve().parent
        if directory in seen:
            continue
        seen.add(directory)
        for path in get_registry().write_files(directory):
            print("wrote", path)


def _cmd_fleet_view(args: argparse.Namespace) -> int:
    """``fleet status`` (one frame, or ``--json``) and ``fleet top``."""
    import time

    from repro.fleet.observer import FleetObserver, format_top

    observer = FleetObserver(args.dir)
    once = args.fleet_command == "status"
    refreshes = 0
    try:
        while True:
            view = observer.refresh()
            if not view.header:
                print(f"no fleet journal in {args.dir}", file=sys.stderr)
                return 1
            if once and args.json:
                import json

                print(json.dumps(_json_safe(view.to_dict()), indent=2,
                                 sort_keys=True))
                return 0
            if not (once or args.no_clear):
                print("\x1b[2J\x1b[H", end="")
            print(format_top(view), flush=True)
            if once:
                return 0
            refreshes += 1
            drained = (view.counts.get("total", 0) > 0
                       and view.counts.get("pending", 0) == 0)
            if args.iterations and refreshes >= args.iterations:
                break
            if drained and not args.iterations:
                print("fleet drained", flush=True)
                break
            time.sleep(args.interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    return 0


def _cmd_fleet_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.fleet.observer import (
        FleetObserver, fleet_metrics, format_summary, render_fleet_report)

    observer = FleetObserver(args.dir)
    view = observer.refresh()
    if not view.header:
        print(f"no fleet journal in {args.dir}", file=sys.stderr)
        return 1
    print(format_summary(view))
    out = Path(args.html or observer.paths.root / "report.html")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(render_fleet_report(view))
    print("wrote", out)
    for path in fleet_metrics(observer.records).write_files(
            observer.paths.root):
        print("wrote", path)
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    if args.fleet_command == "worker":
        from repro.fleet.worker import main as fleet_worker_main

        return fleet_worker_main(args.dir, worker_name=args.worker_id,
                                 cache_dir=args.cache_dir, poll=args.poll)
    if args.fleet_command in ("status", "top"):
        return _cmd_fleet_view(args)
    if args.fleet_command == "report":
        return _cmd_fleet_report(args)
    return _cmd_fleet_run(args, resume=args.fleet_command == "resume")


def _cmd_fleet_run(args: argparse.Namespace, *, resume: bool) -> int:
    from repro.cache import ResultCache
    from repro.fleet import format_summary, run_fleet

    if resume:
        configs = None
        kwargs = {}
    else:
        configs = _grid_configs(args)
        kwargs = dict(max_attempts=1 + args.retries,
                      lease_ttl=args.lease_ttl)
    try:
        result = run_fleet(
            configs, fleet_dir=args.dir, cache=ResultCache(args.cache_dir),
            workers=args.workers, on_status=(
                (lambda view: print(format_summary(view), file=sys.stderr,
                                    flush=True)) if args.progress else None),
            **kwargs)
    except KeyboardInterrupt:
        # Workers were drained gracefully (each finished and cached its
        # current cell); exit 0 so `repro fleet run … && repro fleet
        # run …` chains straight into the resume.
        print(f"fleet: interrupted — workers drained; resume with"
              f" `repro fleet resume --dir {args.dir}`", file=sys.stderr)
        return 0
    # The journal is the plan: the same report as `repro sweep`, from
    # nothing but the configs it recorded.
    state = result.state
    code, wrote = _emit_grid(
        "fleet", [state.config_for(cell) for cell in state.ordered()],
        result.results, args.csv, cached=result.cached,
        extra={"fleet": {"dir": str(args.dir), "computed": result.computed,
                         "cached": result.cached}})
    if not result.complete:
        print(f"fleet: incomplete — resume with"
              f" `repro fleet resume --dir {args.dir}`", file=sys.stderr)
    if wrote:
        # Fleet metrics fold the journal (not this process's registry),
        # so subprocess workers' activity is fully accounted.
        from pathlib import Path

        for mpath in result.metrics.write_files(
                Path(args.csv).resolve().parent):
            print("wrote", mpath)
    return code


def _cmd_trace_summarize(args: argparse.Namespace) -> int:
    from repro.obs import format_trace_summary, summarize_trace

    summary = summarize_trace(args.path, flow=args.flow, kind=args.kind)
    print(format_trace_summary(
        summary, per_node=args.per_node, top=args.top))
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.obs.spans import explain_payload, format_explain, load_spans

    data = load_spans(args.path)
    if args.format == "json":
        import json

        payload = explain_payload(data, flow=args.flow, tail=args.tail)
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(format_explain(data, flow=args.flow, tail=args.tail,
                         hops=args.hops), end="")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs import RecordedRun, write_html_report

    run = RecordedRun.load(args.path)
    spans = None
    if args.spans:
        from repro.obs.spans import load_spans

        spans = load_spans(args.spans)
    if args.html:
        path = write_html_report(run, args.html, source=args.path, spans=spans)
        print(f"wrote {path}")
        return 0
    if args.spans:
        print("warning: --spans only affects --html output", file=sys.stderr)
    for key, value in run.summary_row().items():
        print(f"{key:>24}: {value}")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.obs import diff_paths, format_diff

    deltas, n_regressions = diff_paths(
        args.a, args.b, tolerance=args.tolerance / 100.0)
    print(format_diff(deltas, show_all=args.show_all))
    return 1 if n_regressions else 0


def _cmd_figure(args: argparse.Namespace) -> int:
    import importlib
    import inspect

    module_name, fn_name, fn_args = FIGURES[args.name]
    module = importlib.import_module(module_name)
    fn = getattr(module, fn_name)
    cache = _cache_from_args(args)
    kwargs = {}
    params = inspect.signature(fn).parameters
    for flag, attr, param in (("--workload", "workloads", "workloads"),
                              ("--csv", "csv", "csv")):
        value = getattr(args, attr, None)
        if value is None:
            continue
        if param not in params:
            print(f"warning: {flag} applies only to figures that accept"
                  f" it (e.g. `figure workloads`); ignored",
                  file=sys.stderr)
            continue
        kwargs[param] = value
    if cache is not None:
        if "cache" in inspect.signature(fn).parameters:
            kwargs["cache"] = cache
        else:
            # e.g. fig3/4/8/9/15 need live run internals (tracer series)
            print(f"note: figure {args.name} cannot use the result cache"
                  " (it needs full run internals, not just metrics)",
                  file=sys.stderr)
            cache = None
    print(fn(*fn_args, **kwargs))
    if cache is not None:
        print(f"cache: {cache.hits} hit(s), {cache.misses} miss(es)"
              f" in {cache.root}", file=sys.stderr)
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.cache import ResultCache, parse_size

    cache = ResultCache(args.cache_dir)
    if args.cache_command == "stats":
        stats = cache.stats()
        if args.json:
            import json

            print(json.dumps(_json_safe(stats.to_dict()),
                             indent=2, sort_keys=True))
        else:
            print(stats.summary())
        return 0
    if args.cache_command == "clear":
        removed = cache.clear()
        noun = "entry" if removed == 1 else "entries"
        print(f"removed {removed} {noun} from {cache.root}")
        return 0
    if args.cache_command == "gc":
        removed, freed = cache.gc(parse_size(args.max_size))
        noun = "entry" if removed == 1 else "entries"
        print(f"evicted {removed} {noun}, freed {freed / 1e6:.2f} MB"
              f" from {cache.root}")
        return 0
    raise AssertionError(f"unhandled cache command {args.cache_command!r}")


def _cmd_model(args: argparse.Namespace) -> int:
    from repro.experiments.model_verification import numeric_qth

    q = numeric_qth(
        m_short=args.short_flows, m_long=args.long_flows,
        n_paths=args.paths, deadline=args.deadline,
        mean_short_bytes=args.short_size, link_rate=args.rate)
    print(f"q_th = {q:.1f} packets "
          f"(m_S={args.short_flows}, m_L={args.long_flows}, "
          f"n={args.paths}, D={args.deadline * 1e3:g} ms)")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command; a bad configuration or spec (any
    :class:`~repro.errors.ConfigError`) is one usage-error line, exit 2."""
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "schemes":
        return _cmd_schemes()
    if args.command == "workloads":
        return _cmd_workloads()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "figure":
        return _cmd_figure(args)
    if args.command == "fleet":
        return _cmd_fleet(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "model":
        return _cmd_model(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "explain":
        return _cmd_explain(args)
    if args.command == "diff":
        return _cmd_diff(args)
    if args.command == "trace":
        if args.trace_command == "summarize":
            return _cmd_trace_summarize(args)
        raise AssertionError(f"unhandled trace command {args.trace_command!r}")
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
