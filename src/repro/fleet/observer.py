"""Mission control: fold the journal + worker status into one live view.

The fleet fabric already journals everything that happens (claims,
completions, errors, reclaims) and every worker heartbeats a status
file.  :class:`FleetObserver` is the one reader of a fleet directory
for people: it folds the journal, the worker status files and the lease
files into a :class:`FleetView` (it holds a
:class:`~repro.fleet.journal.JournalFollower`, so a refresh parses only
what was journaled since the last one), and ``repro fleet status``,
``fleet top``, ``fleet report`` and the ``--progress`` heartbeat all
render that view:

* cell counts — a claimed cell is *running* until its lease is
  :func:`~repro.fleet.lease.stale`, the watchdog's own test,
* per-worker timelines (claim → done/error spans, the swimlanes of
  ``repro fleet report --html``),
* per-cell timelines with straggler/outlier detection (runtime vs. the
  same-grid median),
* reclaim churn per worker, the lease list and the backoff count,
* drain rate and an ETA for the open cells,
* cumulative cache-hit share over time.

Worker liveness is judged **skew-proof**: each status file carries an
``uptime`` value read from the *worker's own monotonic clock*, and the
observer tracks whether that value advances between its own refreshes
(timed on the *reader's* monotonic clock).  Wall-clock heartbeat age is
only the first-sight fallback: a one-shot reader cannot tell a skewed
clock from a dead worker, so it errs toward stale, and NFS mtime
granularity or cross-host clock skew cannot keep a dead worker live.

:func:`fleet_metrics` distils a journal into a
:class:`~repro.obs.metrics.MetricsRegistry`: deterministic counters
(cells by status, claims, completions, errors) plus volatile extras
(cell-runtime histogram, per-worker activity) — the source of the
``metrics.prom`` / ``metrics.json`` pair every fleet run writes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from repro.fleet import journal as jn
from repro.fleet import lease as ln
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "CellTimeline",
    "FleetObserver",
    "FleetView",
    "WorkerView",
    "fleet_metrics",
    "format_summary",
    "format_top",
    "render_fleet_report",
    "write_fleet_report",
]

#: colour slots for swimlane segments (repro.viz.VIZ_SERIES_COLORS order)
_SLOT_COMPUTED = 0   # blue
_SLOT_CACHED = 2     # aqua
_SLOT_RUNNING = 3    # yellow
_SLOT_ERROR = 7      # red

_SLOT_NAMES = {_SLOT_COMPUTED: "computed", _SLOT_CACHED: "cached",
               _SLOT_RUNNING: "running", _SLOT_ERROR: "error"}


@dataclass
class CellTimeline:
    """One cell's folded lifecycle, timed relative to the fleet start."""

    key: str
    index: int
    status: str
    worker: str = ""
    cached: bool = False
    scheme: str = ""
    #: compact human description from the config (scheme/load/seed)
    desc: str = ""
    #: (t_rel, worker) for every claim record
    claims: list = field(default_factory=list)
    #: relative completion time, when done
    done_t: Optional[float] = None
    #: worker-measured runtime of the computing attempt, when recorded
    elapsed: Optional[float] = None
    attempts: int = 0
    reclaims: int = 0
    errors: int = 0

    @property
    def running_since(self) -> Optional[float]:
        """Relative start of the still-open attempt, if any."""
        if self.status == jn.PENDING and self.claims:
            return self.claims[-1][0]
        return None


@dataclass
class WorkerView:
    """One worker: journal activity + latest status-file heartbeat."""

    name: str
    #: (t0_rel, t1_rel, color_slot, tooltip) swimlane segments
    spans: list = field(default_factory=list)
    claims: int = 0
    done: int = 0
    cached: int = 0
    errors: int = 0
    #: terminal errors journaled by this worker
    failed: int = 0
    #: leases reclaimed *from* this worker (crash churn)
    reclaimed: int = 0
    # status-file fields (None when the worker never wrote one)
    state: str = ""
    pid: Optional[int] = None
    host: str = ""
    cell: str = ""
    uptime: Optional[float] = None
    beats: int = 0
    wall_age: Optional[float] = None
    #: skew-proof liveness verdict (see FleetObserver docstring)
    live: bool = False


@dataclass
class FleetView:
    """Everything ``fleet status`` / ``top`` / ``report`` and the
    heartbeat render."""

    dir: str
    header: dict
    #: wall time of the earliest journal event (the swimlane origin)
    t0: float
    #: reader wall time of this refresh
    now: float
    cells: list = field(default_factory=list)
    workers: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    #: (cell, runtime, ratio-vs-median) for runtime outliers
    stragglers: list = field(default_factory=list)
    median_elapsed: Optional[float] = None
    reclaim_total: int = 0
    #: cumulative (t_rel, cached_share) over completions
    cache_hit_series: list = field(default_factory=list)
    #: completions per second over the observed drain
    drain_rate: Optional[float] = None
    eta_seconds: Optional[float] = None
    #: one ``{cell, worker, age, stale}`` dict per lease file
    leases: list = field(default_factory=list)
    #: open cells waiting out a retry backoff
    backoff: int = 0

    @property
    def elapsed(self) -> float:
        return max(0.0, self.now - self.t0)

    @property
    def live(self) -> int:
        """Workers judged live at this refresh."""
        return sum(1 for w in self.workers.values() if w.live)

    def to_dict(self) -> dict:
        """The ``fleet status --json`` document (non-finite floats are
        the caller's to sanitise)."""
        return {
            "dir": self.dir,
            "header": dict(self.header),
            "cells": {**self.counts, "backoff": self.backoff},
            "elapsed": self.elapsed,
            "median_elapsed": self.median_elapsed,
            "drain_rate": self.drain_rate,
            "eta_seconds": self.eta_seconds,
            "reclaims": self.reclaim_total,
            "stragglers": [
                {"cell": c.key, "desc": c.desc, "runtime": runtime,
                 "ratio": ratio, "worker": c.worker}
                for c, runtime, ratio in self.stragglers],
            "workers": [
                {"worker": w.name, "pid": w.pid, "host": w.host,
                 "state": w.state, "live": w.live, "age": w.wall_age,
                 "uptime": w.uptime, "beats": w.beats, "claims": w.claims,
                 "done": w.done, "cached": w.cached, "errors": w.errors,
                 "failed": w.failed, "reclaimed": w.reclaimed,
                 "cell": w.cell}
                for w in sorted(self.workers.values(),
                                key=lambda w: w.name)],
            "leases": [dict(lease) for lease in self.leases],
        }


def _cell_desc(config: dict) -> str:
    parts = []
    for name in ("scheme", "workload", "load", "seed"):
        value = config.get(name)
        if value is not None and value != "":
            parts.append(f"{name}={value}")
    return " ".join(parts)


class FleetObserver:
    """Repeated-refresh view over one fleet directory.

    Parameters
    ----------
    fleet_dir:
        The fleet directory (journal + leases + workers).
    clock / mono:
        Wall and monotonic clocks, injectable for tests.
    straggler_factor / straggler_min:
        A cell is an outlier when its runtime exceeds both
        ``factor × median`` and ``median + min`` over the computed
        cells of the same grid (the additive floor keeps sub-second
        grids from flagging noise).
    """

    def __init__(self, fleet_dir: str | Path, *,
                 clock: Callable[[], float] = time.time,
                 mono: Callable[[], float] = time.monotonic,
                 straggler_factor: float = 3.0,
                 straggler_min: float = 0.5):
        self.paths = jn.FleetPaths(Path(fleet_dir))
        self._journal = jn.JournalFollower(self.paths.journal,
                                           keep_records=True)
        self.clock = clock
        self.mono = mono
        self.straggler_factor = straggler_factor
        self.straggler_min = straggler_min
        #: worker → (last seen uptime, reader-monotonic time it advanced)
        self._uptime_seen: dict[str, tuple[float, float]] = {}

    @property
    def records(self) -> list[dict]:
        """Every journal record folded so far (``fleet_metrics`` input)."""
        return self._journal.records

    # -- liveness ----------------------------------------------------------

    def _judge_live(self, w: WorkerView, ttl: float, now_mono: float) -> bool:
        """The one liveness rule: has the worker's monotonic uptime
        advanced within one TTL of *our* monotonic clock?  On first
        sight the last advance is dated by the wall heartbeat's age."""
        if w.state in ("drained", "done"):
            return False
        age = float("inf") if w.wall_age is None else w.wall_age
        if w.uptime is None:
            return age <= ttl  # pre-uptime status file: wall age is all
        seen = self._uptime_seen.get(w.name)
        if seen is None:
            seen = (w.uptime, now_mono - age)
        elif w.uptime != seen[0]:
            seen = (w.uptime, now_mono)
        self._uptime_seen[w.name] = seen
        return now_mono - seen[1] <= ttl

    # -- the fold ----------------------------------------------------------

    def refresh(self) -> FleetView:
        """Read the journal's new tail + status files; rebuild the view."""
        state = self._journal.refresh()
        records = self._journal.records
        now_wall = self.clock()
        now_mono = self.mono()
        ttl = float(state.header.get("lease_ttl", 30.0)) \
            if state.header else 30.0
        created = state.header.get("created")
        if isinstance(created, (int, float)):
            t0 = float(created)
        else:
            times = [float(r["t"]) for r in records
                     if isinstance(r.get("t"), (int, float))]
            t0 = min(times) if times else now_wall
        view = FleetView(dir=str(self.paths.root), header=dict(state.header),
                         t0=t0, now=now_wall)

        cells: dict[str, CellTimeline] = {}
        for cell in state.ordered():
            cells[cell.key] = CellTimeline(
                key=cell.key, index=cell.index, status=cell.status,
                worker=cell.worker, cached=cell.cached,
                scheme=str(cell.config.get("scheme", "")),
                desc=_cell_desc(cell.config),
                attempts=cell.attempts, reclaims=cell.reclaims)

        def worker(name: str) -> WorkerView:
            return view.workers.setdefault(name, WorkerView(name=name))

        open_claims: dict[tuple[str, str], float] = {}
        completions: list[tuple[float, bool]] = []
        for r in records:
            kind = r.get("kind")
            name = str(r.get("worker", ""))
            t = float(r.get("t", t0)) - t0
            key = r.get("cell", "")
            cell = cells.get(key)
            if kind == "claim" and cell is not None:
                cell.claims.append((t, name))
                w = worker(name)
                w.claims += 1
                open_claims[(name, key)] = t
            elif kind == "done" and cell is not None:
                cell.done_t = t
                cached = bool(r.get("from_cache")) or cell.cached
                if "elapsed" in r:
                    cell.elapsed = float(r["elapsed"])
                w = worker(name)
                w.done += 1
                w.cached += 1 if cached else 0
                start = open_claims.pop((name, key), max(0.0, t - (
                    cell.elapsed or 0.0)))
                slot = _SLOT_CACHED if cached else _SLOT_COMPUTED
                w.spans.append((start, t, slot, (
                    f"{cell.desc or key[:12]} — "
                    f"{_SLOT_NAMES[slot]} in {t - start:.2f}s")))
                completions.append((t, cached))
            elif kind == "error" and cell is not None:
                cell.errors += 1
                w = worker(name)
                w.errors += 1
                w.failed += 1 if r.get("terminal") else 0
                start = open_claims.pop((name, key), t)
                w.spans.append((start, t, _SLOT_ERROR, (
                    f"{cell.desc or key[:12]} — error: "
                    f"{r.get('error', '?')}")))
            elif kind == "reclaim":
                view.reclaim_total += 1
                worker(name).reclaimed += 1
                open_claims.pop((name, key), None)

        # Claims never closed by a done/error are still running.
        for (name, key), start in open_claims.items():
            cell = cells.get(key)
            if cell is None or cell.status != jn.PENDING:
                continue
            end = max(now_wall - t0, start)
            view.workers[name].spans.append((start, end, _SLOT_RUNNING, (
                f"{cell.desc or key[:12]} — running "
                f"for {end - start:.2f}s")))

        for path in self.paths.lease_files():
            info = ln.read_lease(path) or {}
            heartbeat = float(info.get("heartbeat") or 0.0)
            view.leases.append({
                "cell": info.get("cell", path.stem),
                "worker": info.get("worker", "?"),
                "age": now_wall - heartbeat if heartbeat else float("inf"),
                "stale": ln.stale(info, ttl, now_wall),
            })
        # Running: claimed or leased, and the lease is not one the
        # watchdog may reclaim (a crashed worker's claim stops counting).
        stale = {lease["cell"] for lease in view.leases if lease["stale"]}
        held = {k for _, k in open_claims}
        held.update(lease["cell"] for lease in view.leases)
        view.cells = sorted(cells.values(), key=lambda c: c.index)
        counts = state.counts() if state.cells else \
            {jn.DONE: 0, jn.FAILED: 0, jn.PENDING: 0}
        view.counts = {
            "total": len(cells),
            "done": counts[jn.DONE],
            "failed": counts[jn.FAILED],
            "pending": counts[jn.PENDING],
            "running": sum(1 for k in held - stale
                           if k in cells and cells[k].status == jn.PENDING),
        }
        view.backoff = sum(1 for c in state.open_cells()
                           if c.not_before > now_wall)

        # Worker status files: merge heartbeat facts + liveness verdicts.
        for path in self.paths.worker_files():
            info = ln.read_lease(path)
            if info is None:
                continue
            w = worker(str(info.get("worker", "?")))
            w.state = str(info.get("state", ""))
            w.pid = info.get("pid")
            w.host = str(info.get("host", ""))
            w.cell = str(info.get("cell", ""))
            uptime = info.get("uptime")
            w.uptime = float(uptime) if uptime is not None else None
            w.beats = int(info.get("beats") or 0)
            heartbeat = float(info.get("heartbeat") or 0.0)
            w.wall_age = max(0.0, now_wall - heartbeat) if heartbeat else None
            w.live = self._judge_live(w, ttl, now_mono)

        self._fold_rates(view, completions, now_wall - t0)
        self._fold_stragglers(view, now_wall - t0)
        return view

    def _fold_rates(self, view: FleetView,
                    completions: list, now_rel: float) -> None:
        completions.sort()
        cached_so_far = 0
        for i, (t, cached) in enumerate(completions, start=1):
            cached_so_far += 1 if cached else 0
            view.cache_hit_series.append((t, cached_so_far / i))
        if len(completions) >= 2:
            span = completions[-1][0] - completions[0][0]
            if span > 0:
                view.drain_rate = (len(completions) - 1) / span
        elif completions and completions[0][0] > 0:
            view.drain_rate = 1.0 / completions[0][0]
        open_count = view.counts.get("pending", 0)
        if view.drain_rate and open_count:
            view.eta_seconds = open_count / view.drain_rate

    def _fold_stragglers(self, view: FleetView, now_rel: float) -> None:
        elapsed = sorted(c.elapsed for c in view.cells
                         if c.elapsed is not None)
        if not elapsed:
            return
        mid = len(elapsed) // 2
        median = elapsed[mid] if len(elapsed) % 2 else \
            (elapsed[mid - 1] + elapsed[mid]) / 2.0
        view.median_elapsed = median
        floor = max(self.straggler_factor * median,
                    median + self.straggler_min)
        for cell in view.cells:
            runtime = cell.elapsed
            if runtime is None:
                since = cell.running_since
                if since is None:
                    continue
                runtime = max(0.0, now_rel - since)
            if runtime > floor:
                ratio = runtime / median if median > 0 else float("inf")
                view.stragglers.append((cell, runtime, ratio))
        view.stragglers.sort(key=lambda s: -s[1])


# -- deterministic fleet metrics -------------------------------------------

def fleet_metrics(records: list[dict],
                  registry: Optional[MetricsRegistry] = None
                  ) -> MetricsRegistry:
    """Distil a journal into a metrics registry.

    Non-volatile instruments are pure functions of the folded journal
    (cell counts, claims, completions, errors), so two seeded runs over
    fresh state dump byte-identical ``metrics.json``.  Per-worker
    attribution, timings, drains and reclaims depend on scheduling races
    and are registered volatile — present in ``metrics.prom`` only.
    """
    reg = registry if registry is not None else MetricsRegistry()
    state = jn.fold(records)
    cells = reg.gauge("repro_fleet_cells",
                      "Planned cells by folded status.")
    counts = state.counts() if state.cells else \
        {jn.DONE: 0, jn.FAILED: 0, jn.PENDING: 0}
    for status, n in sorted(counts.items()):
        cells.set(n, status=status)
    reg.gauge("repro_fleet_cells_cached",
              "Cells whose result came from the cache."
              ).set(sum(1 for c in state.cells.values() if c.cached))
    claims = reg.counter("repro_fleet_claims_total",
                         "Cell claims journaled.")
    done = reg.counter("repro_fleet_done_total",
                       "Cell completions journaled, by source.")
    errors = reg.counter("repro_fleet_errors_total",
                         "Cell errors journaled, by finality.")
    reclaims = reg.counter("repro_fleet_reclaims_total",
                           "Stale-lease reclaims journaled.", volatile=True)
    drains = reg.counter("repro_fleet_drains_total",
                         "Graceful worker drains journaled.", volatile=True)
    runtime = reg.histogram("repro_fleet_cell_seconds",
                            "Worker-measured cell runtimes.", volatile=True)
    per_worker = reg.counter("repro_fleet_worker_done_total",
                             "Completions per worker.", volatile=True)
    workers = set()
    for r in records:
        kind = r.get("kind")
        if r.get("worker"):
            workers.add(str(r["worker"]))
        if kind == "claim":
            claims.inc()
        elif kind == "done":
            done.inc(from_cache="true" if r.get("from_cache") else "false")
            per_worker.inc(worker=str(r.get("worker", "?")))
            if "elapsed" in r:
                runtime.observe(float(r["elapsed"]))
        elif kind == "error":
            errors.inc(terminal="true" if r.get("terminal") else "false")
        elif kind == "reclaim":
            reclaims.inc()
        elif kind == "drain":
            drains.inc()
    reg.gauge("repro_fleet_workers", "Distinct workers seen in the journal.",
              volatile=True).set(len(workers))
    return reg


# -- terminal rendering (repro fleet status / top, the heartbeat) -----------

def _fmt_eta(seconds: Optional[float]) -> str:
    if seconds is None:
        return "—"
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.0f}s"


def format_summary(view: FleetView, *, label: str = "fleet") -> str:
    """The one summary line: the ``--progress`` heartbeat, and the head
    of every ``fleet status`` / ``fleet top`` frame."""
    c = view.counts
    line = f"[{label}] {c.get('done', 0)}/{c.get('total', 0)} done"
    extras = [f"{n} {what}" for n, what in (
        (c.get("failed", 0), "failed"), (c.get("running", 0), "running"),
        (view.backoff, "backing off")) if n]
    if extras:
        line += f" [{', '.join(extras)}]"
    line += f" — {view.live}/{len(view.workers)} worker(s) live"
    if view.drain_rate:
        line += f" | drain {view.drain_rate:.2f}/s"
    if view.eta_seconds is not None:
        line += f" | eta {_fmt_eta(view.eta_seconds)}"
    return line


def format_top(view: FleetView) -> str:
    """One ``repro fleet top`` frame (``fleet status`` prints one)."""
    c = view.counts
    lines = [
        f"fleet {view.dir}",
        format_summary(view),
        f"cells: {c.get('done', 0)}/{c.get('total', 0)} done, "
        f"{c.get('failed', 0)} failed, {c.get('pending', 0)} pending "
        f"({c.get('running', 0)} running) | elapsed {view.elapsed:.1f}s",
    ]
    if view.workers:
        lines.append("workers:")
        for w in sorted(view.workers.values(), key=lambda w: w.name):
            mark = "live" if w.live else "stale"
            up = f" up {w.uptime:.1f}s" if w.uptime is not None else ""
            beat = (f" beat {w.wall_age:.1f}s ago"
                    if w.wall_age is not None else "")
            cell = f" cell {w.cell[:12]}…" if w.cell else ""
            extra = f" reclaimed×{w.reclaimed}" if w.reclaimed else ""
            lines.append(
                f"  {w.name:<24} {w.state or '?':<9} [{mark}]{up}{beat}"
                f" done={w.done} cached={w.cached} err={w.errors}"
                f"{extra}{cell}")
    stale = sum(1 for lease in view.leases if lease["stale"])
    if stale:
        lines.append(f"{stale} stale lease(s) awaiting reclaim")
    if view.median_elapsed is not None:
        lines.append(f"median cell runtime: {view.median_elapsed:.2f}s")
    if view.stragglers:
        lines.append("stragglers:")
        for cell, runtime, ratio in view.stragglers[:8]:
            state = "still running" if cell.elapsed is None else "took"
            lines.append(
                f"  cell {cell.index} ({cell.desc or cell.key[:12]}) "
                f"{state} {runtime:.2f}s — {ratio:.1f}x median"
                f"{' on ' + cell.worker if cell.worker else ''}")
    if view.reclaim_total:
        churn = ", ".join(
            f"{w.name}: {w.reclaimed}"
            for w in sorted(view.workers.values(), key=lambda w: w.name)
            if w.reclaimed)
        lines.append(f"reclaims: {view.reclaim_total} ({churn})")
    if view.cache_hit_series:
        share = view.cache_hit_series[-1][1]
        lines.append(f"cache-hit share: {share:.0%}")
    return "\n".join(lines)


# -- HTML dashboard (repro fleet report --html) ----------------------------

def _latency_histogram(view: FleetView, bins: int = 12) -> list[tuple[str, float]]:
    elapsed = [c.elapsed for c in view.cells if c.elapsed is not None]
    if not elapsed:
        return []
    lo, hi = min(elapsed), max(elapsed)
    if hi <= lo:
        return [(f"{lo:.2f}s", float(len(elapsed)))]
    width = (hi - lo) / bins
    counts = [0] * bins
    for v in elapsed:
        counts[min(bins - 1, int((v - lo) / width))] += 1
    return [(f"{lo + i * width:.2f}", float(n))
            for i, n in enumerate(counts)]


def render_fleet_report(view: FleetView, *, title: str = "") -> str:
    """A self-contained HTML dashboard for one fleet directory."""
    from repro.obs.report import _CSS, _table
    from repro.viz import svg_bar_chart, svg_line_chart, svg_swimlane

    title = title or f"fleet {view.dir}"
    c = view.counts
    sections = []

    overview_rows = [
        ["cells", c.get("total", 0)],
        ["done", c.get("done", 0)],
        ["failed", c.get("failed", 0)],
        ["pending", c.get("pending", 0)],
        ["running", c.get("running", 0)],
        ["backing off", view.backoff],
        ["workers live", f"{view.live}/{len(view.workers)}"],
        ["reclaims", view.reclaim_total],
        ["elapsed (s)", round(view.elapsed, 2)],
        ["median cell runtime (s)",
         None if view.median_elapsed is None
         else round(view.median_elapsed, 3)],
        ["drain rate (cells/s)",
         None if view.drain_rate is None else round(view.drain_rate, 3)],
        ["eta (s)", None if view.eta_seconds is None
         else round(view.eta_seconds, 1)],
    ]
    sections.append(
        '<section id="panel-overview"><h2>Fleet overview</h2>'
        + _table(["fact", "value"], overview_rows) + "</section>")

    lanes = [(w.name, sorted(w.spans))
             for w in sorted(view.workers.values(), key=lambda w: w.name)
             if w.spans]
    if lanes:
        svg = svg_swimlane(lanes, title="Worker swimlanes",
                           x_label="time since fleet start (s)")
        note = ("<p class='note'>blue = computed, aqua = cache hit, "
                "yellow = still running, red = error.</p>")
    else:
        svg, note = "", "<p class='note'>No worker activity journaled yet.</p>"
    sections.append('<section id="panel-swimlanes"><h2>Worker swimlanes</h2>'
                    + svg + note + "</section>")

    hist = _latency_histogram(view)
    if hist:
        svg = svg_bar_chart(hist, title="Cell latency distribution",
                            y_label="cells", x_label="runtime (s)")
    else:
        svg = "<p class='note'>No computed cells yet.</p>"
    sections.append('<section id="panel-latency"><h2>Cell latency</h2>'
                    + svg + "</section>")

    if len(view.cache_hit_series) >= 2:
        xs = [t for t, _ in view.cache_hit_series]
        ys = [s for _, s in view.cache_hit_series]
        svg = svg_line_chart([("cache-hit share", xs, ys)],
                             title="Cache-hit share over time",
                             y_label="share of completions",
                             x_label="time since fleet start (s)")
        sections.append('<section id="panel-cache"><h2>Cache effectiveness'
                        "</h2>" + svg + "</section>")

    if view.stragglers:
        rows = [[cell.index, cell.desc or cell.key[:16],
                 round(runtime, 3), round(ratio, 2),
                 "running" if cell.elapsed is None else "done",
                 cell.worker or "—"]
                for cell, runtime, ratio in view.stragglers[:20]]
        sections.append(
            '<section id="panel-stragglers"><h2>Straggler cells</h2>'
            + _table(["index", "cell", "runtime (s)", "× median",
                      "state", "worker"], rows)
            + "</section>")

    if view.workers:
        rows = [[w.name, w.state or "?", "yes" if w.live else "no",
                 None if w.uptime is None else round(w.uptime, 1),
                 w.beats, w.done, w.cached, w.errors, w.reclaimed]
                for w in sorted(view.workers.values(), key=lambda w: w.name)]
        sections.append(
            '<section id="panel-workers"><h2>Workers</h2>'
            + _table(["worker", "state", "live", "uptime (s)", "beats",
                      "done", "cached", "errors", "reclaimed"], rows)
            + "</section>")

    return ("<!DOCTYPE html><html><head><meta charset='utf-8'>"
            f"<title>{title}</title><style>{_CSS}</style></head>"
            f"<body><main><h1>{title}</h1>"
            + "".join(sections) + "</main></body></html>")


def write_fleet_report(fleet_dir: str | Path, out_path: str | Path, *,
                       observer: Optional[FleetObserver] = None) -> Path:
    """Render ``fleet_dir`` into a standalone HTML file at ``out_path``."""
    view = (observer or FleetObserver(fleet_dir)).refresh()
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(render_fleet_report(view))
    return out
