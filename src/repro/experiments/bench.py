"""Benchmark smoke suite: one small recorded run per scheme.

``repro bench`` exists for CI: it runs a reduced-scale scenario per
scheme with telemetry on, emits one flat JSON row per scheme
(``BENCH_pr3.json`` in the workflow), and — for the TLB run — saves a
flight recording and renders its HTML report as a build artefact.

The JSON rows are :func:`~repro.metrics.export.metrics_to_dict` records
plus the telemetry extras (wall time, events/sec, peak RSS), so two
bench files from different commits diff directly with ``repro diff``.

``repro bench --cache-bench`` (:func:`run_cache_bench`) instead times a
representative figure sweep twice through the result cache — cold
(empty cache, everything simulated) then warm (everything served from
disk) — verifies the warm pass is 100 % hits with results identical to
the cold ones, and records both wall times.
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path
from typing import Optional, Sequence

from repro.experiments.common import ScenarioConfig, run_scenario
from repro.metrics.export import metrics_to_dict
from repro.obs.recorder import FlightRecorder, RecordedRun
from repro.obs.report import write_html_report

__all__ = ["bench_config", "run_bench", "write_bench_json",
           "run_cache_bench", "format_cache_bench",
           "run_spans_smoke", "format_spans_smoke"]

DEFAULT_SCHEMES = ("ecmp", "rps", "tlb")


def bench_config(scheme: str, *, seed: int = 1) -> ScenarioConfig:
    """The reduced-scale smoke scenario (~seconds of wall time)."""
    return ScenarioConfig(
        scheme=scheme, seed=seed, n_short=40, n_long=2,
        n_paths=8, hosts_per_leaf=8, horizon=0.5, telemetry=True)


def run_bench(
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    *,
    seed: int = 1,
    record_scheme: str = "tlb",
    record_path: Optional[str | Path] = None,
    html_path: Optional[str | Path] = None,
) -> list[dict]:
    """Run the smoke suite; returns one flat row per scheme.

    When ``record_scheme`` is among ``schemes``, its run carries a
    :class:`FlightRecorder`; the recording lands at ``record_path`` and,
    if ``html_path`` is given, its dashboard is rendered there.
    """
    rows: list[dict] = []
    for scheme in schemes:
        recorder = None
        if scheme == record_scheme and (record_path or html_path):
            recorder = FlightRecorder()
        result = run_scenario(bench_config(scheme, seed=seed), recorder=recorder)
        row = metrics_to_dict(result.metrics)
        row["seed"] = seed
        rows.append(row)
        if recorder is not None:
            target = Path(record_path) if record_path else None
            if target is None:
                # report-only: keep the recording beside the HTML
                target = Path(html_path).with_suffix(".npz")
            saved = recorder.save(target)
            if html_path:
                write_html_report(RecordedRun.load(saved), html_path,
                                  source=str(saved))
    return rows


def write_bench_json(path: str | Path, rows: list[dict]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(rows, indent=2))
    return path


#: the cache-bench grid: small enough for CI minutes, large enough that
#: per-task pool IPC and pickle cost are visible in the warm pass
CACHE_BENCH_SCHEMES = ("ecmp", "rps", "tlb")
CACHE_BENCH_LOADS = (0.3, 0.6)


def run_cache_bench(
    *,
    seed: int = 1,
    cache_dir: Optional[str | Path] = None,
    schemes: Sequence[str] = CACHE_BENCH_SCHEMES,
    loads: Sequence[float] = CACHE_BENCH_LOADS,
    n_flows: int = 80,
    processes: Optional[int] = None,
) -> dict:
    """Cold-vs-warm wall time of one representative figure sweep.

    Runs the §6.2-style (scheme × load) grid twice against the same
    cache directory (a throwaway temp dir unless ``cache_dir`` is
    given): first with an empty cache, then again so every row resolves
    from disk.  Returns one flat, ``repro diff``-able row recording both
    wall times, the speedup, the warm pass's hit/miss counts, and
    whether the warm results are byte-identical to the cold ones
    (compared via their canonical JSON export form).
    """
    from repro.cache import ResultCache
    from repro.experiments.largescale import default_config, load_grid
    from repro.experiments.runner import run_many

    configs = load_grid(
        default_config("web_search", n_flows=n_flows, seed=seed),
        schemes, loads)
    root = Path(cache_dir) if cache_dir is not None else Path(
        tempfile.mkdtemp(prefix="repro-cache-bench-"))

    cold_cache = ResultCache(root)
    t0 = time.perf_counter()
    cold = run_many(configs, processes=processes, cache=cold_cache)
    cold_s = time.perf_counter() - t0

    warm_cache = ResultCache(root)
    t0 = time.perf_counter()
    warm = run_many(configs, processes=processes, cache=warm_cache)
    warm_s = time.perf_counter() - t0

    identical = all(
        json.dumps(metrics_to_dict(a), sort_keys=True)
        == json.dumps(metrics_to_dict(b), sort_keys=True)
        for a, b in zip(cold, warm)
    )
    return {
        "bench": "cache_sweep",
        "seed": seed,
        "tasks": len(configs),
        "n_flows": n_flows,
        "cold_wall_s": round(cold_s, 3),
        "warm_wall_s": round(warm_s, 3),
        "speedup": round(cold_s / warm_s, 1) if warm_s > 0 else float("inf"),
        "cold_hits": cold_cache.hits,
        "cold_misses": cold_cache.misses,
        "warm_hits": warm_cache.hits,
        "warm_misses": warm_cache.misses,
        "byte_identical": identical,
    }


def run_spans_smoke(
    *,
    seed: int = 1,
    repeats: int = 3,
    scheme: str = "tlb",
) -> dict:
    """Span-tracing overhead check (``repro bench --spans-smoke``).

    Runs the smoke scenario with spans off and on (best-of-``repeats``
    wall time each), and returns one flat row recording:

    * ``outcome_identical`` / ``events_identical`` — the spans-off and
      spans-on runs must simulate the *same* thing: identical metric
      exports and identical kernel event counts.  Span collection is a
      passive observer; any divergence is a correctness bug and the CI
      gate hard-fails on it.
    * ``overhead_pct`` — relative events/sec cost of collecting spans,
      gated softly in CI (machine-dependent, warn past a threshold).
    """
    base = bench_config(scheme, seed=seed)
    with_spans = base.with_(spans=True)

    def best_of(config: ScenarioConfig) -> dict:
        best = None
        for _ in range(max(1, repeats)):
            result = run_scenario(config)
            wall = result.metrics.extras["wall_time_s"]
            if best is None or wall < best["wall_s"]:
                best = {
                    "wall_s": wall,
                    "events": result.metrics.extras["events"],
                    "row": metrics_to_dict(result.metrics),
                }
        return best

    off = best_of(base)
    on = best_of(with_spans)

    def outcome(row: dict) -> dict:
        # drop machine-dependent telemetry columns before comparing
        return {k: v for k, v in row.items()
                if not any(tag in k for tag in
                           ("wall", "rss", "per_s", "per_sec", "ratio"))}

    eps_off = off["events"] / off["wall_s"] if off["wall_s"] > 0 else 0.0
    eps_on = on["events"] / on["wall_s"] if on["wall_s"] > 0 else 0.0
    # events/sec regression: how much throughput collecting spans costs
    overhead = (1.0 - eps_on / eps_off) * 100 if eps_off > 0 else 0.0
    return {
        "bench": "spans_smoke",
        "scheme": scheme,
        "seed": seed,
        "repeats": repeats,
        "events_off": off["events"],
        "events_on": on["events"],
        "events_identical": off["events"] == on["events"],
        "outcome_identical": outcome(off["row"]) == outcome(on["row"]),
        "events_per_s_off": round(eps_off),
        "events_per_s_on": round(eps_on),
        "overhead_pct": round(max(0.0, overhead), 1),
    }


def format_spans_smoke(row: dict) -> str:
    return (
        f"spans smoke ({row['scheme']}, seed={row['seed']}):\n"
        f"  spans off: {row['events_per_s_off']:>12,} ev/s"
        f" ({row['events_off']:,} events)\n"
        f"  spans on:  {row['events_per_s_on']:>12,} ev/s"
        f" ({row['events_on']:,} events)\n"
        f"  overhead: {row['overhead_pct']:.1f}%,"
        f" events identical: {row['events_identical']},"
        f" outcome identical: {row['outcome_identical']}"
    )


def format_cache_bench(row: dict) -> str:
    return (
        f"cache bench: {row['tasks']} task(s)\n"
        f"  cold: {row['cold_wall_s']:.2f} s"
        f" ({row['cold_misses']} computed)\n"
        f"  warm: {row['warm_wall_s']:.2f} s"
        f" ({row['warm_hits']} hit(s), {row['warm_misses']} miss(es))\n"
        f"  speedup: {row['speedup']:g}x, results identical:"
        f" {row['byte_identical']}"
    )
