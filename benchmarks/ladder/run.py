"""The benchmark ladder's command line.

One workload, as the benchmark driver runs it::

    python3 benchmarks/ladder/run.py --workload websearch_fabric \\
        --seed 1 --seconds 20 --trace 0

prints every end-to-end metric (``--trace 1``: every per-layer metric)
by name with its unit, checks the outputs, and ends with one JSON
object on the last line of standard output.  The whole ladder::

    python -m benchmarks.ladder.run --seed 1 --out results.json

runs each workload untraced and traced in its own fresh interpreter,
the isolated rungs at full size in another, and writes one file.
Either form exits non-zero when a check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import subprocess
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # run as a script: make the package importable
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

#: setup_s is the median over this many fresh interpreters
SETUP_PROBES = 3
#: rung sizing for a single ``--trace 1`` run (the full ladder uses 1.0 x 5)
TRACE_RUNG_SCALE = 1 / 4
TRACE_RUNG_REPS = 3

_MANIFEST = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


class _SetupDone(BaseException):
    """Stops a set-up probe at the first ``Simulator.run``; not an
    ``Exception`` so ``run_many`` does not record it as a task failure."""


def _child_env() -> dict:
    """Children get a fixed string-hash seed: dict layout, and with it
    run time, otherwise differs from one interpreter to the next."""
    return {**os.environ, "PYTHONHASHSEED": "0"}


def _spawn(args: list[str], **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(Path(__file__).resolve()), *args],
                          env=_child_env(), **kwargs)


# -- set-up probe ---------------------------------------------------------------

def probe(configs_file: str, t0: float) -> int:
    """Child side: run the cold phase up to the first ``Simulator.run``
    and print the seconds since the parent spawned this interpreter."""
    from benchmarks.ladder.workloads import cold_phase, work_dir
    from repro.sim.engine import Simulator

    def stop(self, *args, **kwargs):
        raise _SetupDone

    Simulator.run = stop
    configs = pickle.loads(Path(configs_file).read_bytes())  # the parent's own bytes
    with work_dir() as tmp:
        try:
            cold_phase(configs, tmp / "cache")
        except _SetupDone:
            print(json.dumps({"setup_s": time.monotonic() - t0}))
            return 0
    print("set-up probe: the cold phase never reached Simulator.run",
          file=sys.stderr)
    return 1


def probe_setup(configs: list, smoke: bool) -> list[float]:
    """Parent side: ``SETUP_PROBES`` fresh interpreters, one at a time
    (a single one under ``--smoke``), each handed the generated grid."""
    from benchmarks.ladder.workloads import work_dir

    samples = []
    with work_dir() as tmp:
        grid = tmp / "configs.pkl"
        grid.write_bytes(pickle.dumps(configs))
        for _ in range(1 if smoke else SETUP_PROBES):
            done = _spawn(["--probe", str(grid), "--t0", repr(time.monotonic())],
                          stdout=subprocess.PIPE, text=True, check=True)
            samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


# -- printing -----------------------------------------------------------------------

def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "execution": "single process per workload (run_many processes=1,"
                     " inline fleet worker); rungs runner.pool/chunked use 2",
        "load_generator": "closed run of a fixed, seeded open-loop arrival"
                          " schedule in simulated time",
        "generator_lateness": "n/a: arrivals are events in simulated time,"
                              " so the generator cannot run late",
    }


def print_header(env: dict) -> None:
    print("# benchmark ladder")
    for key, value in env.items():
        print(f"#   {key}: {value}")


def _fmt(value: float) -> str:
    return f"{value:,.6g}" if isinstance(value, float) else f"{value:,}"


def print_end_to_end(result: dict) -> None:
    from benchmarks.ladder.metrics import END_TO_END

    out = result["outcome"]
    print(f"== {result['workload']}  seed={result['seed']}"
          f"  cells={result['cells']}  end to end (observers off)")
    for name, unit, better, bound in END_TO_END:
        m = result["end_to_end"][name]
        print(f"  {name:<20} {_fmt(m['value']):>14} {unit:<6} n={m['n']}"
              f"  q1={_fmt(m['q1'])} q3={_fmt(m['q3'])}"
              f"  ({better} is better, bound {bound:.0%})")
    fail_ratio = result["failed"] / result["attempted"]
    print(f"  {'fail_ratio':<20} {fail_ratio:>14.6g} {'ratio':<6}"
          f" {result['failed']} of {result['attempted']} (flows not completed"
          " + cells failing a check)")
    print(f"  outcome_digest       {out['outcome_digest']}")
    print(f"  exact counts         events={out['events']:,}"
          f" pkt_hops={out['pkt_hops']:,} flows={out['flows']:,}"
          f" drops={out['drops']:,} sim_s={out['sim_s']:.6g}")
    print(f"  offered load         achieved / requested ="
          f" {out['load_ratio']:.4f} (mean over cells)")
    _print_problems(result)


def print_layers(traced: dict, layers: dict) -> None:
    from benchmarks.ladder.metrics import PER_LAYER

    print(f"== {traced['workload']}  seed={traced['seed']}  per layer"
          " (traced pass, exact counts, isolated rungs)")
    for name, unit, _, layer, source, moves in PER_LAYER:
        if name in layers:
            print(f"  {name:<38} {_fmt(layers[name]):>14} {unit:<6}"
                  f" [{source}] -> {moves}")
    a = traced["attribution"]
    print(f"  traced {a['traced_wall_s']:.3f} s vs untraced"
          f" {a['reference_wall_s']:.3f} s; sim.run {a['sim_run_s']:.3f} s,"
          f" {a['handler_share_of_sim_run']:.1%} of it inside handlers, the"
          " rest in the kernel loop and the profiler")
    print(f"  profiler report covers {a['profile_coverage']:.1%} of handler"
          " time with named handlers; shares of that time beside the"
          " re-anchor profile's:")
    for handler, share in a["shares"].items():
        print(f"    {handler:<28} {share:6.1%}   (re-anchor"
              f" {a['reanchor_shares'][handler]:.0%})")
    print(f"  set-up + finalize are"
          f" {a['setup_plus_finalize_share_of_cells']:.2%} of cell time")
    print("  spans by phase and name (total / self seconds):")
    for row in traced["span_table"][:16]:
        print(f"    {row['phase'] + '/' + row['name']:<36} spans={row['spans']:<6}"
              f" calls={row['calls']:<8} total={row['total_s']:.4f}"
              f" self={row['self_s']:.4f}")
    _print_problems(traced)


def _print_problems(result: dict) -> None:
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")
    if not result["problems"]:
        print("  checks: ok")


# -- one workload, one interpreter -------------------------------------------------------

def run_single(args) -> int:
    from benchmarks.ladder import layers as rungs
    from benchmarks.ladder.metrics import E2E_UNITS, LAYER_UNITS
    from benchmarks.ladder.trace import traced_pass, write_spans
    from benchmarks.ladder.workloads import (
        SMOKE_SCALE, WORKLOADS, measure, summarize, tally,
    )

    workload = WORKLOADS[args.workload]
    scale = SMOKE_SCALE if args.smoke else 1.0
    if not args.quiet:
        print_header(environment())
    configs = workload.configs(args.seed, scale)
    if args.trace == 0:
        setup = probe_setup(configs, args.smoke)
        result = measure(workload, args.seed, configs, args.seconds, scale)
        result["end_to_end"]["setup_s"] = summarize(setup)
        print_end_to_end(result)
        values, units = {k: m["value"] for k, m in
                         result["end_to_end"].items()}, E2E_UNITS
        attempted, failed = result["attempted"], result["failed"]
    else:
        result = traced_pass(workload, args.seed, configs, scale)
        values = dict(result["layers"])
        if not args.skip_rungs:
            try:
                values.update(rungs.run_all(
                    args.seed,
                    scale if args.smoke else TRACE_RUNG_SCALE,
                    1 if args.smoke else TRACE_RUNG_REPS))
            except rungs.RungError as exc:
                result["problems"].append(str(exc))
                result["correct"] = False
        print_layers(result, values)
        if args.spans:
            write_spans(Path(args.spans), result["spans"])
        del result["spans"]
        result["layers"] = values
        units = LAYER_UNITS
        attempted, failed = tally(result["outcome"], result["problems"])
    if args.detail:
        Path(args.detail).write_text(json.dumps(result))
    print(json.dumps({
        "correct": result["correct"], "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }))
    return 0 if result["correct"] else 1


def run_rungs(args) -> int:
    from benchmarks.ladder import layers as rungs
    from benchmarks.ladder.workloads import SMOKE_SCALE

    try:
        values = rungs.run_all(args.seed, SMOKE_SCALE if args.smoke else 1.0,
                               1 if args.smoke else 5)
    except rungs.RungError as exc:
        print(f"CHECK FAILED: {exc}")
        return 1
    Path(args.detail).write_text(json.dumps(values))
    return 0


# -- the whole ladder ------------------------------------------------------------------------

def run_ladder(args) -> int:
    from benchmarks.ladder.metrics import LAYER_UNITS
    from benchmarks.ladder.workloads import WORKLOADS, work_dir

    env = environment()
    print_header(env)
    common = ["--seed", str(args.seed), "--seconds", str(args.seconds),
              "--quiet"] + (["--smoke"] if args.smoke else [])
    doc = {"schema": "ladder-v1", "environment": env, "seed": args.seed,
           "seconds": args.seconds, "smoke": args.smoke, "workloads": {}}
    ok = True
    with work_dir() as tmp:
        rung_file = tmp / "rungs.json"
        ok &= _spawn(["--rungs-only", "--detail", str(rung_file), *common],
                     ).returncode == 0
        rung_values = json.loads(rung_file.read_text()) \
            if rung_file.exists() else {}
        for name in WORKLOADS:
            entry = {}
            for trace in (0, 1):
                detail = tmp / f"{name}.{trace}.json"
                extra = ["--skip-rungs"] if trace else []
                if trace and args.spans:
                    Path(args.spans).mkdir(parents=True, exist_ok=True)
                    extra += ["--spans", str(Path(args.spans) / f"{name}.json")]
                # the child's own report goes straight to our stdout,
                # minus its machine-readable last line
                done = _spawn(["--workload", name, "--trace", str(trace),
                               "--detail", str(detail), *extra, *common],
                              stdout=subprocess.PIPE, text=True)
                print("\n".join(done.stdout.splitlines()[:-1]), flush=True)
                ok &= done.returncode == 0
                if detail.exists():
                    entry["traced" if trace else "untraced"] = json.loads(
                        detail.read_text())
            if "traced" in entry:
                entry["traced"]["layers"].update(rung_values)
            doc["workloads"][name] = entry
    doc["rungs"] = rung_values
    doc["correct"] = bool(ok)
    print("== isolated rungs (full size, median of 5)")
    for name, value in rung_values.items():
        print(f"  {name:<38} {_fmt(value):>14} {LAYER_UNITS[name]}")
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    print("ladder: every check passed" if ok else "ladder: CHECKS FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (driver form)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload"
                             " (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the whole ladder's results here")
    parser.add_argument("--spans", help="keep the raw spans: a file with"
                        " --workload, a directory for the whole ladder")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload and rung at ~1/20 size")
    for internal in ("--probe", "--t0", "--detail"):
        parser.add_argument(internal, help=argparse.SUPPRESS)
    for internal in ("--rungs-only", "--skip-rungs", "--quiet"):
        parser.add_argument(internal, action="store_true",
                            help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if (argv is None and os.environ.get("PYTHONHASHSEED") != "0"
            and (args.workload or args.probe)):
        # measure under the same fixed hash seed the ladder's children get
        os.execve(sys.executable, [sys.executable, *sys.orig_argv[1:]],
                  _child_env())
    if args.seconds is None and not args.probe:
        args.seconds = 1.0 if args.smoke else float(
            json.loads(_MANIFEST.read_text())["run_seconds"])
    try:
        import benchmarks.ladder.workloads  # noqa: F401
    except ImportError as exc:
        print(f"benchmark ladder: cannot import the simulator ({exc});"
              " run it from a checkout that has src/", file=sys.stderr)
        return 2
    if args.probe:
        return probe(args.probe, float(args.t0))
    if args.rungs_only:
        return run_rungs(args)
    if args.workload:
        return run_single(args)
    return run_ladder(args)


if __name__ == "__main__":
    sys.exit(main())
