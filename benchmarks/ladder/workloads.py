"""The four workloads, the observing per-cell runner, the phases and the checks.

Every workload is a seeded grid of :class:`ScenarioConfig` cells pushed
through the same three phases, always from outside, through public entry
points:

* **cold** — ``run_many(processes=1)`` over an empty :class:`ResultCache`
  (simulate + ``put``); metrics 2–6 share this one timer;
* **warm** — ``warm_passes`` passes, each a fresh ``ResultCache`` on the
  cold directory (``get`` only);
* **fleet** — ``run_many(processes=0, fleet_dir=…)`` on a second empty
  cache (inline worker: claim + lease + journal fsyncs), then a resume.

All arrivals are a fixed, seeded open-loop schedule in *simulated* time:
host time never feeds back into the offered load, so simulated statistics
repeat exactly and only host-time metrics carry noise.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import resource
import shutil
import statistics
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from benchmarks.ladder import REPO_ROOT

from repro.cache import ResultCache
from repro.experiments.common import ScenarioConfig, run_scenario
from repro.experiments.runner import TaskFailure, run_many
from repro.fleet import FleetPaths
from repro.metrics.export import metrics_to_dict
from repro.net.topology import build_leaf_spine
from repro.transport.flow import FlowRegistry
from repro.units import MB
from repro.workload.generator import PoissonWorkload
from repro.workload.scenarios import parse_scenario

__all__ = ["WORKLOADS", "Workload", "measure", "observe_cell", "summarize",
           "tally"]

#: the paper's §6.2 fabric: 8 leaves x 8 spines x 256 hosts, 1 Gbps, DCTCP
FABRIC = dict(n_leaves=8, n_paths=8, hosts_per_leaf=32)
#: every observer off for end-to-end passes
OBSERVERS_OFF = dict(telemetry=False, spans=False, profile=False,
                     metrics=False, timeseries=False)
GRID_SCHEMES = ("ecmp", "rps", "presto", "letflow", "tlb")
#: the warm-up runs every phase once at this share of the workload's size
WARMUP_SCALE = 0.1
#: ``--smoke`` sizing for the self-test
SMOKE_SCALE = 0.05
#: heavy-tailed workloads accept a cell seed only if its flows offer the
#: distribution's expected bytes over the expected arrival span this closely
BYTES_TOLERANCE = 0.02
SPAN_TOLERANCE = 0.03
#: the warm phase is timed in this many groups of passes
WARM_GROUPS = 5

WORK_ROOT = REPO_ROOT / ".ladder_work"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: (seed, scale) -> the grid; scale 1.0 is the measured size
    configs: Callable[[int, float], list]
    #: warm passes per tail, sized so a tail reads 6000-10000 entries (~1 s)
    warm_passes: int


def scaled(full: int, scale: float, floor: int = 1) -> int:
    """``full`` at ``scale``, but at least ``floor``."""
    return max(floor, round(full * scale))


def fabric_bps(config: ScenarioConfig) -> float:
    """Aggregate leaf-to-spine capacity: what a load is a share of."""
    return config.n_leaves * config.n_paths * config.link_rate


def calibrated_seed(seed: int, template: ScenarioConfig) -> int:
    """The first of ``seed``'s candidate seeds whose Poisson workload
    offers the expected bytes over the expected arrival span.

    A few hundred heavy-tailed flows differ by tens of percent in total
    bytes from one seed to the next, and every wall-time metric with
    them.  Holding the offered load to its expectation makes runs at
    different seeds comparable, as runs of a longer benchmark would be.
    Only the workload is generated here; nothing is simulated.
    """
    sizes = template.size_distribution()
    want_bytes = template.n_flows * sizes.mean()
    want_span = 8.0 * want_bytes / (template.load * fabric_bps(template))

    def offer(config: ScenarioConfig) -> tuple[int, float]:
        installed = PoissonWorkload(
            build_leaf_spine(config.fabric_config()), FlowRegistry(),
            sizes=sizes, load=config.load, n_flows=config.n_flows).install()
        return installed.total_bytes, installed.last_arrival

    for k in itertools.count():
        candidate = template.with_(seed=seed * 100_000 + k)
        # Sizes and arrival times come from their own named RNG streams,
        # so one host per leaf draws the same ones 30x cheaper ...
        n_bytes, span = offer(candidate.with_(hosts_per_leaf=1))
        if (abs(n_bytes / want_bytes - 1.0) <= BYTES_TOLERANCE
                and abs(span / want_span - 1.0) <= SPAN_TOLERANCE):
            # ... which the accepted candidate then has to confirm.
            if offer(candidate) != (n_bytes, span):
                raise RuntimeError("flow sizes or arrivals depend on the host"
                                   " count; calibrate on the full fabric")
            return candidate.seed


def _poisson_cell(seed: int, scale: float, **fields) -> ScenarioConfig:
    """One heavy-tailed cell on the paper fabric.  Reduced sizes (warm-up,
    ``--smoke``) are never compared across seeds and skip calibration."""
    cell = ScenarioConfig(workload="poisson", load=0.6, seed=seed, **fields,
                          **FABRIC, **OBSERVERS_OFF)
    return cell if scale < 1.0 else cell.with_(seed=calibrated_seed(seed, cell))


def _websearch(seed: int, scale: float) -> list:
    return [_poisson_cell(seed, scale, sizes="web_search", scheme="tlb",
                          n_flows=scaled(300, scale, 8), truncate_tail=MB(3),
                          horizon=3.0)]


def _incast(seed: int, scale: float) -> list:
    return [ScenarioConfig(
        workload="incast:fanin=48,period=2ms,size=32KB",
        n_flows=48 * scaled(100, scale, 2), scheme="tlb",
        seed=seed, **FABRIC, **OBSERVERS_OFF)]


def _datamining(seed: int, scale: float) -> list:
    # One seed per scheme: five independent draws of a very heavy tail
    # average out where five copies of one draw would not.
    return [_poisson_cell(len(GRID_SCHEMES) * seed + k, scale,
                          sizes="data_mining", scheme=scheme,
                          n_flows=scaled(80, scale, 8), truncate_tail=MB(10))
            for k, scheme in enumerate(GRID_SCHEMES)]


def _tiny_grid(seed: int, scale: float) -> list:
    return [ScenarioConfig(
        scheme=scheme, n_short=4, n_long=0, n_paths=4, hosts_per_leaf=4,
        horizon=0.5, seed=seed + k, **OBSERVERS_OFF)
        for scheme in GRID_SCHEMES for k in range(scaled(40, scale, 2))]


WORKLOADS = {w.name: w for w in (
    Workload(
        "websearch_fabric",
        "Fig. 10 cell on the paper fabric: steady ACK-clocked per-packet path"
        " (port, switch+pick, host), set-up under 1 % of the pass",
        _websearch, warm_passes=6000),
    Workload(
        "incast_churn",
        "4800 32 KB flows in 48-way fan-ins: handshake, flow-table churn,"
        " RTO and loss recovery dominate; per-flow cost shows here",
        _incast, warm_passes=6000),
    Workload(
        "datamining_schemes",
        "one Fig. 11 load over ecmp/rps/presto/letflow/tlb: long flows,"
        " reordering; four of five cells never run TLB code",
        _datamining, warm_passes=1200),
    Workload(
        "tiny_grid",
        "200 cells of 7 ms each: cache key/store, run_many dispatch, fleet"
        " journal and fabric build do the work, the packet path almost none",
        _tiny_grid, warm_passes=50),
)}


# -- the per-cell runner ---------------------------------------------------

def requested_load(config: ScenarioConfig) -> float:
    """The share of fabric capacity the cell's workload asks for."""
    if config.workload == "poisson":
        return config.load
    if config.workload == "static":
        mean_short = (config.short_size_lo + config.short_size_hi) / 2.0
        return 8.0 * config.n_short * mean_short \
            / config.short_window / fabric_bps(config)
    incast = parse_scenario(config.workload)
    return 8.0 * incast.fanin * incast.size / incast.period \
        / fabric_bps(config)


def observe(result) -> dict:
    """Counts, conservation checks and the outcome digest of one cell.

    Reads public state only and uses no host-time input, so every value
    repeats exactly for a given config and code.  Returned flat so the
    entries ride in ``RunMetrics.extras`` through cache and fleet and
    are covered by the ``metrics_to_dict`` equality checks.
    """
    config, net = result.config, result.net
    stats = result.registry.all_stats()
    digest = hashlib.sha256()
    completed = short_delivery = 0
    retransmits = timeouts = recoveries = out_of_order = acks = 0
    for s in stats:
        digest.update(repr((s.flow.id, s.flow.size, s.fct, s.retransmits,
                            s.timeouts)).encode())
        if s.completed is not None:
            completed += 1
            if s.bytes_delivered != s.flow.size:
                short_delivery += 1
        retransmits += s.retransmits
        timeouts += s.timeouts
        recoveries += s.fast_recoveries
        out_of_order += s.out_of_order
        acks += s.acks_sent
    hops = enqueued = drops = marks = leaks = 0
    for port in net.ports.values():
        p = port.stats
        digest.update(repr((p.enqueued, p.transmitted, p.dropped,
                            p.ecn_marked, p.bytes_transmitted)).encode())
        hops += p.transmitted
        enqueued += p.enqueued
        drops += p.dropped
        marks += p.ecn_marked
        # No workload injects faults, so every drop is a refused enqueue
        # and an accepted packet is either sent or still in the port.
        if p.enqueued != p.transmitted + port.queue_length + port.busy:
            leaks += 1
    digest.update(repr(round(net.sim.now * 1e9)).encode())
    flows = result.workload.flows
    span = max(f.start_time for f in flows)
    offered = 8.0 * sum(f.size for f in flows) / span / fabric_bps(config)
    balancers = result.balancers.values()
    return {
        "ladder_digest": digest.hexdigest(),
        "ladder_flows": len(stats),
        "ladder_completed": completed,
        "ladder_short_delivery": short_delivery,
        "ladder_port_leaks": leaks,
        "ladder_pkt_hops": hops,
        "ladder_enqueued": enqueued,
        "ladder_drops": drops,
        "ladder_ecn_marks": marks,
        "ladder_forwarded": sum(
            sw.packets_forwarded for sw in net.switches.values()),
        "ladder_decisions": sum(lb.counters.decisions for lb in balancers),
        "ladder_table_peak": max(
            (lb.counters.peak_entries for lb in balancers), default=0),
        "ladder_retransmits": retransmits,
        "ladder_timeouts": timeouts,
        "ladder_fast_recoveries": recoveries,
        "ladder_out_of_order": out_of_order,
        "ladder_acks_sent": acks,
        "ladder_span": span,
        "ladder_load_ratio": offered / requested_load(config),
    }


def observe_cell(config: ScenarioConfig):
    """The ``runner=`` of every phase: simulate, then attach :func:`observe`."""
    result = run_scenario(config)
    result.metrics.extras.update(observe(result))
    return result.metrics


# -- phases ------------------------------------------------------------------

def cold_phase(configs: list, cache_dir: Path) -> tuple[float, list]:
    cache = ResultCache(cache_dir)
    t0 = time.perf_counter()
    results = run_many(configs, processes=1, runner=observe_cell,
                       cache=cache, on_error="record")
    return time.perf_counter() - t0, results


def warm_phase(configs: list, cache_dir: Path,
               passes: int) -> tuple[list[float], list, int, int]:
    """``passes`` get-only passes; returns seconds per pass, one sample
    for each of :data:`WARM_GROUPS` groups of passes."""
    hits = misses = 0
    results: list = []
    per_pass = []
    group = max(1, passes // WARM_GROUPS)
    for start in range(0, passes, group):
        n = min(group, passes - start)
        t0 = time.perf_counter()
        for _ in range(n):
            cache = ResultCache(cache_dir)
            results = run_many(configs, processes=1, runner=observe_cell,
                               cache=cache, on_error="record")
            hits += cache.hits
            misses += cache.misses
        per_pass.append((time.perf_counter() - t0) / n)
    return per_pass, results, hits, misses


def fleet_phase(configs: list, cache_dir: Path,
                fleet_dir: Path) -> tuple[float, list]:
    """One inline-worker fleet run; called again on the same
    directories it is a resume."""
    cache = ResultCache(cache_dir)
    t0 = time.perf_counter()
    results = run_many(configs, processes=0, runner=observe_cell,
                       cache=cache, fleet_dir=fleet_dir, on_error="record")
    return time.perf_counter() - t0, results


@contextmanager
def work_dir():
    """A scratch directory inside the checkout, removed on exit."""
    WORK_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is still using it


# -- outcomes and checks -------------------------------------------------------

_SUMMED = ("flows", "completed", "short_delivery", "port_leaks", "pkt_hops",
           "enqueued", "drops", "ecn_marks", "forwarded", "decisions",
           "retransmits", "timeouts", "fast_recoveries", "out_of_order",
           "acks_sent")


def canonical(results: list) -> str:
    """Digest of the canonical JSON of a phase's results, in grid order."""
    rows = [{"failure": r.error} if isinstance(r, TaskFailure)
            else metrics_to_dict(r) for r in results]
    blob = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def outcome(results: list) -> dict:
    """Exact counts of one pass, summed over its cells."""
    ok = [r for r in results if not isinstance(r, TaskFailure)]
    out = {key: sum(r.extras[f"ladder_{key}"] for r in ok) for key in _SUMMED}
    digest = hashlib.sha256()
    for r in ok:
        digest.update(r.extras["ladder_digest"].encode())
    out["outcome_digest"] = digest.hexdigest()
    out["cells"] = len(results)
    out["cells_failed"] = len(results) - len(ok)
    out["events"] = sum(r.extras["events"] for r in ok)
    # The arrival span, not the final clock: how long the drain after
    # the last arrival takes is set by whichever flow happens to be last.
    out["sim_s"] = sum(r.extras["ladder_span"] for r in ok)
    out["long_reroutes"] = sum(r.extras["long_reroutes"] for r in ok)
    out["table_peak"] = max((r.extras["ladder_table_peak"] for r in ok),
                            default=0)
    out["load_ratio"] = statistics.fmean(
        r.extras["ladder_load_ratio"] for r in ok) if ok else 0.0
    out["canonical"] = canonical(results)
    return out


def check_outcome(out: dict, reference: Optional[dict] = None) -> list[str]:
    """The problems with one pass's outcome (empty when it is correct)."""
    problems = []
    if out["cells_failed"]:
        problems.append(f"{out['cells_failed']} cell(s) raised")
    if out["completed"] != out["flows"]:
        problems.append(
            f"{out['flows'] - out['completed']} flow(s) did not complete")
    if out["short_delivery"]:
        problems.append(f"{out['short_delivery']} completed flow(s) with"
                        " bytes_delivered != size")
    if out["port_leaks"]:
        problems.append(f"{out['port_leaks']} port(s) break enqueued =="
                        " transmitted + resident")
    if reference is not None:
        for key in ("outcome_digest", "canonical"):
            if out[key] != reference[key]:
                problems.append(f"{key} differs from the first pass")
    return problems


def tally(out: dict, problems: list) -> tuple[int, int]:
    """``(attempted, failed)``: flows installed plus cells, against flows
    that did not complete plus cells that raised.  When another check
    failed the whole grid is suspect, so every cell counts as failed."""
    failed = (out["flows"] - out["completed"]) + out["cells_failed"]
    if problems and not failed:
        failed = out["cells"]
    return out["flows"] + out["cells"], failed


def summarize(samples: list[float]) -> dict:
    """Median, sample count and quartiles of one metric's samples."""
    if len(samples) >= 2:
        # inclusive: with a handful of samples, stay inside their range
        q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    else:
        q1 = q3 = samples[0]
    return {"value": statistics.median(samples), "n": len(samples),
            "q1": q1, "q3": q3, "samples": samples}


# -- the untraced measurement ----------------------------------------------------

def run_tail(workload: Workload, configs: list, cold_cache: Path,
             scratch: Path, reference: dict, problems: list) -> dict:
    """Warm passes on the cold cache, then fleet + resume on an empty one."""
    cells = len(configs)
    warm_per_pass, warm_results, hits, misses = warm_phase(
        configs, cold_cache, workload.warm_passes)
    if canonical(warm_results) != reference["canonical"]:
        problems.append("warm results differ from the cold ones")
    if misses or hits != workload.warm_passes * cells:
        problems.append(f"warm phase: {hits} hit(s), {misses} miss(es)")
    del warm_results
    gc.collect()
    fleet_cache, fleet_dir = scratch / "cache", scratch / "fleet"
    fleet_wall, fleet_results = fleet_phase(configs, fleet_cache, fleet_dir)
    if canonical(fleet_results) != reference["canonical"]:
        problems.append("fleet results differ from the cold ones")
    resume_wall, fleet_results = fleet_phase(configs, fleet_cache, fleet_dir)
    if canonical(fleet_results) != reference["canonical"]:
        problems.append("fleet resume results differ from the cold ones")
    del fleet_results
    gc.collect()
    journal = FleetPaths(fleet_dir).journal
    return {
        "warm_s": statistics.fmean(warm_per_pass) * workload.warm_passes,
        "warm_pass_s": warm_per_pass,
        "fleet_s": fleet_wall, "resume_s": resume_wall,
        "hits": hits, "misses": misses,
        "journal_records": sum(1 for _ in journal.open()),
        "journal_bytes": journal.stat().st_size,
    }


def measure(workload: Workload, seed: int, configs: list, seconds: float,
            scale: float = 1.0) -> dict:
    """Warm up, then cold passes and tails until ``seconds`` are used.

    At least two cold passes and one tail always run; a further cold
    pass and tail are added while both are expected to fit.
    """
    cells = len(configs)
    problems: list[str] = []
    colds: list[float] = []
    tails: list[dict] = []
    reference: Optional[dict] = None
    with work_dir() as tmp:
        warmup = workload.configs(seed, scale * WARMUP_SCALE)
        _, results = cold_phase(warmup, tmp / "warmup-cold")
        run_tail(workload, warmup, tmp / "warmup-cold", tmp / "warmup-tail",
                 outcome(results), [])
        del results

        def cold() -> Path:
            nonlocal reference
            gc.collect()
            cache_dir = tmp / f"cold{len(colds)}"
            wall, results = cold_phase(configs, cache_dir)
            out = outcome(results)
            del results
            problems.extend(check_outcome(out, reference))
            if reference is None:
                reference = out
            colds.append(wall)
            return cache_dir

        def tail(cache_dir: Path) -> None:
            gc.collect()
            tails.append(run_tail(workload, configs, cache_dir,
                                  tmp / f"tail{len(tails)}", reference,
                                  problems))

        t0 = time.perf_counter()
        cold()
        tail(cold())
        while (time.perf_counter() - t0 + colds[-1] + tails[-1]["warm_s"]
               + tails[-1]["fleet_s"] + tails[-1]["resume_s"]) <= seconds:
            tail(cold())

    ref = reference
    attempted, failed = tally(ref, problems)
    return {
        "workload": workload.name,
        "seed": seed,
        "cell_seeds": [c.seed for c in configs],
        "cells": cells,
        "correct": not problems,
        "problems": sorted(set(problems)),
        "attempted": attempted,
        "failed": failed,
        "outcome": ref,
        "end_to_end": {
            "wall_s": summarize(colds),
            "pkt_hops_per_s": summarize([ref["pkt_hops"] / w for w in colds]),
            "sim_s_per_wall_s": summarize([ref["sim_s"] / w for w in colds]),
            "flows_per_s": summarize([ref["completed"] / w for w in colds]),
            "cells_per_s_cold": summarize([cells / w for w in colds]),
            "cells_per_s_warm": summarize(
                [cells / w for t in tails for w in t["warm_pass_s"]]),
            "cells_per_s_fleet": summarize(
                [cells / t["fleet_s"] for t in tails]),
            "peak_rss_mb": summarize([resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0]),
        },
        "tails": tails,
    }
