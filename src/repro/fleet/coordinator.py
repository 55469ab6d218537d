"""The fleet coordinator: plan, spawn, monitor, collect.

``plan_fleet`` turns a config grid into the journal: every cell gets a
content-addressed key (the result-cache key, so "already computed" and
"cache hit" are the same fact), cells whose results are already stored
are planned as ``cached`` and never re-enter the queue, and the whole
plan is written atomically.  The key is derived once, here: workers and
the collector look results up by the journaled key.  Planning an
existing fleet directory is a *resume*: the journal survives as-is after
a consistency check, so ``repro fleet run … && repro fleet run …``
recomputes nothing.

``run_fleet`` then drives the sweep: spawn N worker subprocesses (or an
inline worker for ``workers=0`` — sandboxes without subprocess, tests),
watch the journal and leases, reclaim stale leases via the watchdog,
and finally collect results from the cache in grid order.  A done cell
whose cache entry was evicted between run and collect is recomputed
inline rather than lost; a terminally failed cell yields exactly one
:class:`~repro.experiments.runner.TaskFailure` row.

Interruption: SIGINT on the coordinator forwards SIGTERM to every
worker (graceful drain — each finishes its current cell, flushes, and
exits 0), then raises so the caller can report how to resume.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.errors import ConfigError, FleetError
from repro.fleet import journal as jn
from repro.fleet.observer import FleetObserver, FleetView, fleet_metrics
from repro.fleet.watchdog import Watchdog
from repro.fleet.worker import FleetWorker
from repro.obs.metrics import MetricsRegistry

__all__ = ["FleetResult", "plan_fleet", "run_fleet"]

#: dotted spec of the default per-config runner (resolved lazily so this
#: module never imports the experiment stack at import time)
DEFAULT_RUNNER_SPEC = "repro.experiments.common:run_scenario_metrics"


@dataclass
class FleetResult:
    """One finished (or drained) fleet run."""

    #: per-cell results in grid order; failed cells hold their
    #: :class:`~repro.experiments.runner.TaskFailure`, unfinished ``None``
    results: list
    #: the failure rows, in grid order
    failures: list
    #: True when every cell reached a terminal state
    complete: bool
    #: cells served straight from the cache (at plan time or by claim)
    cached: int = 0
    #: cells computed by workers during this run
    computed: int = 0
    state: Optional[jn.FleetState] = None
    #: :func:`~repro.fleet.observer.fleet_metrics` of the closing read
    metrics: Optional[MetricsRegistry] = None


def _runner_spec(runner) -> str:
    if runner is None:
        return DEFAULT_RUNNER_SPEC
    if isinstance(runner, str):
        return runner
    return jn.callable_spec(runner)


def plan_fleet(
    fleet_dir: str | Path,
    configs: Optional[Sequence] = None,
    *,
    cache,
    runner=None,
    max_attempts: int = 3,
    max_reclaims: int = 5,
    backoff_base: float = 0.5,
    lease_ttl: float = 30.0,
    clock: Callable[[], float] = time.time,
) -> jn.FleetState:
    """Write (or verify) the journal for this grid; returns its fold.

    A fresh directory gets a new plan.  An existing journal is resumed:
    when ``configs`` is given, its cell-key set must match the journal's
    (same grid, same code fingerprint) — anything else is a different
    sweep and needs a different directory.
    """
    paths = jn.FleetPaths(Path(fleet_dir)).ensure()
    existing = jn.load_state(paths.journal)
    keyed = []
    if configs is not None:
        for config in configs:
            keyed.append((cache.key_for(config), config))
    if existing.header:
        if keyed:
            planned = [k for k, _ in keyed]
            journaled = [c.key for c in existing.ordered()]
            if planned != journaled:
                raise FleetError(
                    f"fleet dir {fleet_dir} already holds a different sweep"
                    f" ({len(journaled)} cell(s), this grid has"
                    f" {len(planned)}); resume it without a grid or use a"
                    " fresh --dir")
        return existing
    if configs is None:
        raise FleetError(
            f"no journal in {fleet_dir} and no grid to plan one from")
    if not keyed:
        raise FleetError("cannot plan an empty fleet")
    config_type = type(keyed[0][1])
    header = jn.new_header(
        runner_spec=_runner_spec(runner),
        config_type_spec=jn.type_spec(config_type),
        fingerprint=cache.fingerprint,
        cache_dir=str(Path(cache.root).resolve()),
        n_cells=len(keyed),
        max_attempts=max_attempts,
        max_reclaims=max_reclaims,
        backoff_base=backoff_base,
        lease_ttl=lease_ttl,
        clock=clock,
    )
    cells = [
        {
            "kind": "cell",
            "cell": key,
            "index": i,
            "cached": cache.contains_key(key),
            "config": jn.config_to_json(config),
        }
        for i, (key, config) in enumerate(keyed)
    ]
    jn.write_plan(paths.journal, header, cells)
    return jn.load_state(paths.journal)


def _spawn_worker(paths: jn.FleetPaths, cache, index: int) -> subprocess.Popen:
    """One ``repro fleet worker`` subprocess, inheriting our sys.path."""
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "fleet", "worker",
         "--dir", str(paths.root),
         "--cache-dir", str(cache.root),
         "--worker-id", f"w{index}-{os.getpid()}"],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _drain_workers(procs: list, timeout: float = 30.0) -> None:
    """SIGTERM every live worker and wait for the graceful drain."""
    for proc in procs:
        if proc.poll() is None:
            try:
                proc.send_signal(signal.SIGTERM)
            except OSError:
                pass
    deadline = time.monotonic() + timeout
    for proc in procs:
        budget = max(0.1, deadline - time.monotonic())
        try:
            proc.wait(timeout=budget)
        except subprocess.TimeoutExpired:
            proc.kill()


def run_fleet(
    configs: Optional[Sequence] = None,
    *,
    fleet_dir: str | Path,
    cache,
    workers: Optional[int] = None,
    runner=None,
    max_attempts: int = 3,
    max_reclaims: int = 5,
    backoff_base: float = 0.5,
    lease_ttl: float = 30.0,
    poll: float = 0.2,
    on_status: Optional[Callable[[FleetView], None]] = None,
    status_interval: float = 1.0,
    clock: Callable[[], float] = time.time,
) -> FleetResult:
    """Run (or resume) a sweep through the fleet fabric.

    Parameters
    ----------
    configs:
        The grid, in result order.  None resumes purely from the
        journal (``repro fleet resume``).
    workers:
        Worker subprocesses to spawn; ``0`` runs a single inline worker
        in this process (no subprocess — sandbox- and test-friendly);
        None picks ``min(cpu_count, 4, n_open_cells)``.
    on_status:
        Optional callback fed a :class:`~repro.fleet.observer.FleetView`
        roughly every ``status_interval`` seconds while workers run.
    """
    if cache is None:
        raise ConfigError("the fleet fabric requires a result cache")
    paths = jn.FleetPaths(Path(fleet_dir)).ensure()
    state = plan_fleet(fleet_dir, configs, cache=cache, runner=runner,
                       max_attempts=max_attempts, max_reclaims=max_reclaims,
                       backoff_base=backoff_base, lease_ttl=lease_ttl,
                       clock=clock)
    # On a resume the journal already fixed the policy; every scanner
    # (coordinator watchdog included) must agree with the workers, which
    # read these from the header.
    lease_ttl = float(state.header.get("lease_ttl", lease_ttl))
    max_attempts = int(state.header.get("max_attempts", max_attempts))
    max_reclaims = int(state.header.get("max_reclaims", max_reclaims))
    backoff_base = float(state.header.get("backoff_base", backoff_base))
    # Cells already terminal before any worker starts were done by a
    # previous invocation (or the plan found them cached): they count as
    # "cached" in this run's summary, proving resumes recompute nothing.
    pre_done = {c.key for c in state.ordered() if c.status == jn.DONE}
    open_cells = state.open_cells()
    inline_runner = runner if callable(runner) else None
    if open_cells:
        if workers is None:
            workers = min(os.cpu_count() or 1, 4, len(open_cells))
        if workers <= 0:
            worker = FleetWorker(fleet_dir, cache=cache, runner=inline_runner,
                                 poll=poll, clock=clock)
            worker.run()
        else:
            _run_subprocess_fleet(
                paths, cache, workers,
                lease_ttl=lease_ttl, max_attempts=max_attempts,
                max_reclaims=max_reclaims, backoff_base=backoff_base,
                poll=poll, clock=clock, on_status=on_status,
                status_interval=status_interval, inline_runner=inline_runner)
    journal = jn.JournalFollower(paths.journal, keep_records=True)
    result = _collect(journal.refresh(), cache, inline_runner,
                      pre_done=pre_done)
    # Mission control: metrics.prom + metrics.json beside the journal.
    # Folded from the journal, so the non-volatile document is a pure
    # function of what the fleet did — byte-identical across seeded
    # re-runs over fresh state.
    result.metrics = fleet_metrics(journal.records)
    try:
        result.metrics.write_files(paths.root)
    except OSError:
        pass  # metrics files are advisory; never fail a finished sweep
    return result


def _run_subprocess_fleet(paths, cache, n_workers, *, lease_ttl, max_attempts,
                          max_reclaims, backoff_base, poll, clock, on_status,
                          status_interval, inline_runner) -> None:
    """Spawn workers and babysit them until every cell is terminal."""
    watchdog = Watchdog(paths, lease_ttl=lease_ttl,
                        max_attempts=max_attempts,
                        max_reclaims=max_reclaims,
                        backoff_base=backoff_base, clock=clock)
    try:
        procs = [_spawn_worker(paths, cache, i) for i in range(n_workers)]
    except OSError:
        # No subprocesses on this platform: degrade to one inline worker,
        # mirroring run_many's pool fallback.
        FleetWorker(paths.root, cache=cache, runner=inline_runner,
                    poll=poll, clock=clock).run()
        return
    follower = jn.JournalFollower(paths.journal)
    observer = FleetObserver(paths.root, clock=clock) if on_status else None
    last_status = 0.0
    try:
        while True:
            if follower.finished():
                break
            watchdog.scan(follower.state, by="coordinator")
            if observer is not None:
                now = time.monotonic()
                if now - last_status >= status_interval:
                    last_status = now
                    on_status(observer.refresh())
            if all(proc.poll() is not None for proc in procs):
                # Every worker exited with cells still open (all crashed,
                # or all were externally drained): rescue inline so no
                # cell is ever lost.
                if not follower.finished():
                    FleetWorker(paths.root, cache=cache,
                                runner=inline_runner, poll=poll,
                                clock=clock).run()
                break
            time.sleep(poll)
    except (KeyboardInterrupt, SystemExit):
        _drain_workers(procs)
        raise
    finally:
        _drain_workers(procs, timeout=10.0)


def _collect(state: jn.FleetState, cache, inline_runner, *,
             pre_done: set) -> FleetResult:
    """Grid-ordered results from the cache + journal failure rows."""
    from repro.experiments.runner import TaskFailure

    runner = inline_runner
    results: list = [None] * len(state.cells)
    failures: list = []
    complete = True
    cached = computed = 0
    for cell in state.ordered():
        config = state.config_for(cell)
        if cell.status == jn.DONE:
            result = cache.get_key(cell.key)
            if result is None:
                # Evicted (or corrupted) between compute and collect:
                # recompute inline rather than losing the cell.
                if runner is None:
                    runner = jn.resolve_callable(
                        state.header.get("runner", DEFAULT_RUNNER_SPEC))
                result = runner(config)
                cache.put_key(cell.key, result, config)
            results[cell.index] = result
            if cell.cached or cell.key in pre_done:
                cached += 1
            else:
                computed += 1
        elif cell.status == jn.FAILED:
            failure = TaskFailure(
                index=cell.index, config=config,
                error=cell.error or "cell failed",
                traceback=cell.traceback,
                attempts=max(1, cell.attempts + cell.reclaims))
            results[cell.index] = failure
            failures.append(failure)
        else:
            complete = False
    return FleetResult(
        results=results, failures=failures, complete=complete,
        cached=cached, computed=computed, state=state)
