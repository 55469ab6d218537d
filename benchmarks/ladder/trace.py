"""Span tracing from outside the program, and the traced pass.

The harness wraps the calls *into* each layer — ``build_leaf_spine``,
the workload install, ``attach_scheme``, every ``Simulator.run`` slice,
``MetricsCollector.finalize``, ``cache_key``, ``ResultCache.get``/``put``,
the per-cell runner and the fleet journal append — and keeps the spans in
memory until the pass ends.  Nothing inside ``src/`` is edited;
in-program spans are a later change.

A span is ``{id, name, parent, wid, start, end, busy_s, calls}``.
High-frequency calls (``sim.run`` slices, cache and journal calls) are
*accumulated*: one record per (parent, name) whose ``busy_s`` sums the
calls, so a 200-cell grid stays a few thousand spans.  The
:class:`~repro.obs.profiler.EngineProfiler` report of a cell is *folded*
under that cell's ``sim.run`` span as one child per handler (``busy_s``
is the profiler's estimated seconds, ``calls`` its event count).  A
span's self time is its busy time minus its children's.
"""

from __future__ import annotations

import functools
import gc
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

from benchmarks.ladder import workloads
from benchmarks.ladder.workloads import (
    Workload, canonical, check_outcome, cold_phase, fleet_phase, outcome,
    warm_phase, work_dir,
)

import repro.cache.store as cache_store
import repro.experiments.common as common
import repro.fleet.journal as journal
from repro.cache import ResultCache
from repro.fleet import FleetPaths, plan_fleet
from repro.metrics.collector import MetricsCollector
from repro.sim.engine import Simulator
from repro.workload.generator import PoissonWorkload, StaticWorkload
from repro.workload.scenarios import Scenario

__all__ = ["Tracer", "installed", "layer_table", "traced_pass"]

#: the re-anchor profile the traced shares are printed beside (ROADMAP 1)
REANCHOR_SHARES = {"Port._transmission_done": 0.25, "Switch.receive": 0.37,
                   "Host.receive": 0.37}


class Tracer:
    """An in-memory span list with a current-parent stack."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.wid = ""
        self._stack: list[int] = []
        self._accumulators: dict[tuple[Optional[int], str], dict] = {}

    def _new(self, name: str, start: Optional[float]) -> dict:
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "wid": self.wid, "start": start, "end": start,
               "busy_s": 0.0, "calls": 0}
        self.spans.append(rec)
        return rec

    @contextmanager
    def span(self, name: str):
        """One record per call."""
        rec = self._new(name, time.perf_counter())
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()
            rec["busy_s"] = rec["end"] - rec["start"]
            rec["calls"] = 1

    @contextmanager
    def accumulate(self, name: str):
        """One record per (parent, name); calls add to its busy time."""
        parent = self._stack[-1] if self._stack else None
        t0 = time.perf_counter()
        rec = self._accumulators.get((parent, name))
        if rec is None:
            rec = self._accumulators[(parent, name)] = self._new(name, t0)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()
            rec["busy_s"] += rec["end"] - t0
            rec["calls"] += 1

    def fold(self, parent: int, name: str, seconds: float, calls: int) -> None:
        """An aggregate child with no interval of its own."""
        rec = self._new(name, None)
        rec.update(parent=parent, busy_s=seconds, calls=calls)

    def child(self, parent: int, name: str) -> Optional[dict]:
        return self._accumulators.get((parent, name))


def _wrapping(tracer: Tracer, fn, name: str, accumulate: bool = False):
    enter = tracer.accumulate if accumulate else tracer.span

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with enter(name):
            return fn(*args, **kwargs)

    return wrapper


def _cell_runner(tracer: Tracer, fn):
    """The per-cell runner under a ``cell`` span, folding its profile."""

    @functools.wraps(fn)
    def wrapper(config):
        with tracer.span("cell") as cell:
            metrics = fn(config)
        sim_run = tracer.child(cell["id"], "sim.run")
        profile = metrics.extras.get("profile")
        if sim_run is not None and profile is not None:
            # the report keeps the top handlers only: note what it covers
            sim_run["coverage"] = sum(
                row["time_share"] for row in profile["components"])
            for row in profile["components"]:
                tracer.fold(sim_run["id"], row["component"], row["est_s"],
                            row["events"])
        return metrics

    return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Wrap the layer boundaries for the duration of the block."""
    targets = [
        (common, "build_leaf_spine", "net.topology.build", False),
        (PoissonWorkload, "install", "workload.install", False),
        (StaticWorkload, "install", "workload.install", False),
        (Scenario, "install", "workload.install", False),
        (common, "attach_scheme", "lb.attach", False),
        (Simulator, "run", "sim.run", True),
        (MetricsCollector, "finalize", "metrics.finalize", False),
        (cache_store, "cache_key", "cache.key", True),
        (ResultCache, "get", "cache.get", True),
        (ResultCache, "put", "cache.put", True),
        (journal, "append_record", "fleet.journal.append", True),
        (workloads, "observe", "ladder.observe", False),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in targets]
    saved.append((workloads, "observe_cell", workloads.observe_cell))
    try:
        for owner, attr, name, acc in targets:
            setattr(owner, attr, _wrapping(tracer, getattr(owner, attr),
                                           name, acc))
        workloads.observe_cell = _cell_runner(tracer, workloads.observe_cell)
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


# -- folding spans into the per-layer table ---------------------------------------

def _phase(span: dict) -> str:
    return span["wid"].rpartition("/")[2]


def layer_table(spans: list[dict]) -> list[dict]:
    """Per phase and span name: records, calls, busy time and self time."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["busy_s"]
    rows: dict[tuple[str, str], dict] = {}
    for s in spans:
        row = rows.setdefault((_phase(s), s["name"]), {
            "phase": _phase(s), "name": s["name"], "spans": 0, "calls": 0,
            "total_s": 0.0, "self_s": 0.0})
        row["spans"] += 1
        row["calls"] += s["calls"]
        row["total_s"] += s["busy_s"]
        row["self_s"] += max(0.0, s["busy_s"] - child_time[s["id"]])
    return sorted(rows.values(), key=lambda r: -r["total_s"])


def _handler_totals(spans: list[dict]) -> tuple[dict[str, float], dict[str, int], float]:
    """Seconds and events per folded handler, and total ``sim.run`` time."""
    sim_ids = {s["id"] for s in spans if s["name"] == "sim.run"}
    seconds: dict[str, float] = defaultdict(float)
    events: dict[str, int] = defaultdict(int)
    for s in spans:
        if s["start"] is None and s["parent"] in sim_ids:
            seconds[s["name"]] += s["busy_s"]
            events[s["name"]] += s["calls"]
    sim_total = sum(s["busy_s"] for s in spans
                    if s["name"] == "sim.run" and _phase(s) == "cold")
    return seconds, events, sim_total


def traced_pass(workload: Workload, seed: int, configs: list,
                scale: float = 1.0) -> dict:
    """One untraced reference pass, then the same pass traced and profiled.

    Returns the per-layer values that come from tracing and from exact
    counts, the span table, and the checks: the traced pass must give
    the reference's ``outcome_digest``.
    """
    cells = len(configs)
    problems: list[str] = []
    tracer = Tracer()
    with work_dir() as tmp:
        warmup = workload.configs(seed, scale * workloads.WARMUP_SCALE)
        cold_phase(warmup, tmp / "warmup")
        gc.collect()
        ref_wall, results = cold_phase(configs, tmp / "ref")
        reference = outcome(results)
        problems.extend(check_outcome(reference))
        del results
        gc.collect()

        profiled = [c.with_(profile=True) for c in configs]
        warm_passes = max(1, workload.warm_passes // 10)
        with installed(tracer):
            tracer.wid = f"{workload.name}/cold"
            with tracer.span("phase.cold"):
                cold_wall, results = cold_phase(profiled, tmp / "cold")
            traced = outcome(results)
            del results
            problems.extend(check_outcome(traced, reference))
            tracer.wid = f"{workload.name}/warm"
            with tracer.span("phase.warm"):
                _, results, hits, misses = warm_phase(
                    configs, tmp / "cold", warm_passes)
            if canonical(results) != reference["canonical"]:
                problems.append("traced warm results differ from the cold ones")
            tracer.wid = f"{workload.name}/fleet"
            fleet_cache, fleet_dir = tmp / "fleet-cache", tmp / "fleet"
            with tracer.span("phase.fleet"):
                fleet_wall, results = fleet_phase(configs, fleet_cache, fleet_dir)
            if canonical(results) != reference["canonical"]:
                problems.append("traced fleet results differ from the cold ones")
            tracer.wid = f"{workload.name}/resume"
            with tracer.span("phase.resume"):
                resume_wall, results = fleet_phase(configs, fleet_cache, fleet_dir)
            del results
        journal_path = FleetPaths(fleet_dir).journal
        journal_records = sum(1 for _ in journal_path.open())
        journal_bytes = journal_path.stat().st_size
        t0 = time.perf_counter()
        plan_fleet(tmp / "plan", configs, cache=ResultCache(tmp / "plan-cache"),
                   runner=workloads.observe_cell)
        plan_s = time.perf_counter() - t0

    spans = tracer.spans
    table = layer_table(spans)
    cold = {row["name"]: row for row in table if row["phase"] == "cold"}
    seconds, events, sim_total = _handler_totals(spans)
    named = sum(seconds.values())
    if misses or hits != warm_passes * cells:
        problems.append(f"traced warm phase: {hits} hit(s), {misses} miss(es)")
    if any(s["name"] == "sim.run" and _phase(s) == "warm" for s in spans):
        problems.append("the warm phase ran a simulation")

    def share(handler: str) -> float:
        return seconds.get(handler, 0.0) / named if named else 0.0

    fires = events.get("PeriodicTimer._fire", 0)
    finalize = cold["metrics.finalize"]
    pkt_hops = traced["pkt_hops"]
    layers = {
        "sim.events": traced["events"],
        "sim.events_per_pkt_hop": traced["events"] / pkt_hops,
        "net.port.time_share": share("Port._transmission_done"),
        "net.port.enqueued": traced["enqueued"],
        "net.port.drops": traced["drops"],
        "net.port.ecn_marks": traced["ecn_marks"],
        "net.switch.time_share": share("Switch.receive"),
        "net.switch.pkts_forwarded": traced["forwarded"],
        "lb.decisions": traced["decisions"],
        "lb.long_reroutes": traced["long_reroutes"],
        "core.tlb.update_us":
            1e6 * seconds.get("PeriodicTimer._fire", 0.0) / fires if fires else 0.0,
        "core.tlb.flow_table_peak": traced["table_peak"],
        "net.host.time_share": share("Host.receive"),
        "transport.retransmits": traced["retransmits"],
        "transport.timeouts": traced["timeouts"],
        "transport.fast_recoveries": traced["fast_recoveries"],
        "transport.out_of_order": traced["out_of_order"],
        "transport.acks_sent": traced["acks_sent"],
        "workload.offered_load_ratio": traced["load_ratio"],
        "metrics.finalize_ms":
            1e3 * finalize["total_s"] / finalize["calls"],
        "cache.hits": hits,
        "cache.misses": misses,
        "fleet.plan_ms": 1e3 * plan_s,
        "fleet.overhead_ms_per_cell": 1e3 * (fleet_wall - ref_wall) / cells,
        "fleet.resume_ms": 1e3 * resume_wall,
        "fleet.journal_records": journal_records,
        "fleet.journal_bytes": journal_bytes,
        "obs.profile_overhead_pct": 100.0 * (cold_wall / ref_wall - 1.0),
    }
    edges_s = sum(cold[name]["total_s"] for name in (
        "net.topology.build", "workload.install", "lb.attach",
        "metrics.finalize"))
    return {
        "workload": workload.name,
        "seed": seed,
        "correct": not problems,
        "problems": sorted(set(problems)),
        "outcome": traced,
        "layers": layers,
        "span_table": table,
        "spans": spans,
        "attribution": {
            "reference_wall_s": ref_wall,
            "traced_wall_s": cold_wall,
            "sim_run_s": sim_total,
            # share of sim.run wall inside handler bodies; the rest is
            # the kernel's pop/dispatch loop plus the profiler itself
            "handler_share_of_sim_run": named / sim_total if sim_total else 0.0,
            # share of handler time on the three hot frames of ROADMAP 1
            "named_share": sum(share(h) for h in REANCHOR_SHARES),
            "shares": {h: share(h) for h in REANCHOR_SHARES},
            "reanchor_shares": REANCHOR_SHARES,
            "handlers": dict(sorted(seconds.items(), key=lambda kv: -kv[1])),
            "profile_coverage": min(
                (s["coverage"] for s in spans if "coverage" in s), default=0.0),
            "setup_plus_finalize_share_of_cells":
                edges_s / cold["cell"]["total_s"],
        },
    }


def write_spans(path: Path, spans: list[dict]) -> None:
    path.write_text(json.dumps(spans, separators=(",", ":")) + "\n")
