"""Parallel parameter sweeps, hardened against worker failure.

Figure reproductions are sweeps of independent simulations (scheme ×
load × seed ...), i.e. embarrassingly parallel.  Per the HPC guides,
parallelism lives at the *task* level: each worker process runs one
complete scenario (pure Python event loop, no shared state) and returns
only the small picklable :class:`~repro.metrics.collector.RunMetrics`.

``processes=0`` forces serial in-process execution — useful under pytest
and on machines where fork is restricted; the default uses up to
``os.cpu_count()`` workers but never more than the number of tasks.

Result cache
------------
Pass a :class:`~repro.cache.ResultCache` as ``cache=`` and the sweep
becomes cache-aware: every config is first resolved against the store
(hits fill their result slots instantly, before any worker process is
spawned), only the misses are submitted, and each freshly computed
result is written back the moment it completes — atomically, so
concurrent sweeps sharing a cache directory cannot corrupt each other.
Cache hits count as ``kind="cached"`` in the progress heartbeat.  The
cache keys on the config (plus the code fingerprint); callers supplying
a custom ``runner`` should only pass a cache if that runner is a
deterministic function of the config.

Chunking
--------
Once cache hits shrink the task list, per-task pool IPC (pickling a
config, waking a worker, pickling metrics back) starts to show for
sub-second scenarios.  ``chunksize`` batches several configs into one
worker round-trip; the default picks 1 for small batches (and always
when ``timeout`` is armed, which is per *submitted unit*) and grows the
chunk for large ones.  Inside a chunk each task is still isolated: one
raising task yields a per-item error record, not a lost chunk.

Resilience
----------
A multi-hour sweep must never die because one scenario crashed.  However
an attempt fails — the runner raised (in-process, in a worker, or inside
a chunk) or, in parallel mode, it outlived ``timeout`` — one rule
settles it, in this order:

* **Retry** while the task has budget (``retries=N`` allows ``1 + N``
  attempts) and the error is *retryable* — an OOM-killed worker, a flaky
  filesystem, a timeout.  A fatal error (a
  :class:`~repro.errors.ConfigError`, a type error — anything
  :func:`repro.fleet.taxonomy.is_fatal` classifies as a pure function
  of the config) never retries: the outcome is deterministic.
* else **raise** it (``on_error="raise"``, the default: fail-fast),
* or **record** it (``on_error="record"``): a :class:`TaskFailure` row
  takes the task's result slot and the sweep keeps going; every
  finished task's result is preserved.

**Pool fallback**: if worker processes cannot be created at all (no
``fork`` on the platform, sandboxed environments) or the pool breaks
mid-flight (a worker was killed), the remaining tasks run through the
same serial loop ``processes=0`` uses rather than failing.

``timeout=T`` bounds each parallel task's *running* wall time, clocked
from when its worker picked it up (its worker process cannot be
reclaimed, so prefer generous timeouts).  Serial execution cannot be
preempted and ignores ``timeout``.

The pool loop waits event-driven on futures — with no ``timeout`` armed
it blocks until a completion with zero scheduled wake-ups.  With a
timeout it sleeps until the earliest armed deadline, polling on a short
schedule only while tasks are still queued (a future's transition to
*running* has no event to wait on).
"""

from __future__ import annotations

import os
import sys
import time
import traceback as _traceback
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union

from repro.errors import ConfigError
from repro.experiments.common import ScenarioConfig, run_scenario_metrics
from repro.fleet.taxonomy import is_fatal
from repro.metrics.collector import RunMetrics
from repro.obs.metrics import get_registry
from repro.obs.progress import ProgressReporter

__all__ = ["TaskFailure", "TaskError", "run_many", "sweep", "partition_results"]

#: how often the pool loop wakes to detect queued→running transitions
#: while a per-task timeout is armed (there is no event for "started")
_POLL_INTERVAL = 0.05

#: auto-chunking bounds: never batch more than this many tasks into one
#: worker round-trip, and aim for this many waves of chunks per worker
#: so stragglers cannot idle the rest of the pool
_MAX_CHUNK = 16
_CHUNK_WAVES = 4


@dataclass
class TaskFailure:
    """One task that exhausted its attempts, recorded in the sweep output.

    Stored in the failed task's result slot when ``on_error="record"``,
    so the caller can report the row (scheme, load, seed, ...) alongside
    what went wrong instead of losing the whole sweep.
    """

    index: int
    config: object
    error: str
    traceback: str = ""
    attempts: int = 1
    timed_out: bool = False

    def __str__(self) -> str:  # pragma: no cover - formatting aid
        cause = "timed out" if self.timed_out else self.error
        return f"task {self.index} failed after {self.attempts} attempt(s): {cause}"


class TaskError(RuntimeError):
    """Raised under ``on_error="raise"`` when only the *formatted* error
    of a failed task survives (chunked execution captures per-item
    exceptions as strings inside the worker)."""


@dataclass
class _ChunkItemError:
    """Picklable stand-in for one task's exception inside a chunk."""

    error: str
    traceback: str
    #: classified worker-side while the live exception is still in hand
    fatal: bool = False


def _run_chunk(runner: Callable, configs: list) -> list:
    """Worker-side: run a batch of configs, isolating per-item errors."""
    out = []
    for config in configs:
        try:
            out.append(runner(config))
        except Exception as exc:
            out.append(_ChunkItemError(
                f"{type(exc).__name__}: {exc}",
                "".join(_traceback.format_exception(
                    type(exc), exc, exc.__traceback__)),
                fatal=is_fatal(exc)))
    return out


def partition_results(
    results: Sequence[Union[RunMetrics, TaskFailure]],
) -> tuple[list[RunMetrics], list[TaskFailure]]:
    """Split a ``run_many(on_error="record")`` result list.

    Returns ``(successes, failures)``; successes keep their relative
    order, and each failure still knows its original ``index``.
    """
    ok: list[RunMetrics] = []
    bad: list[TaskFailure] = []
    for r in results:
        (bad if isinstance(r, TaskFailure) else ok).append(r)
    return ok, bad


def _failure(index: int, config: object, exc: BaseException,
             attempts: int, *, timed_out: bool = False) -> TaskFailure:
    return TaskFailure(
        index=index,
        config=config,
        error=f"{type(exc).__name__}: {exc}",
        traceback="".join(
            _traceback.format_exception(type(exc), exc, exc.__traceback__)),
        attempts=attempts,
        timed_out=timed_out,
    )


def _run_serial_task(
    runner: Callable,
    config: object,
    index: int,
    retries: int,
    on_error: str,
) -> Union[RunMetrics, TaskFailure]:
    """One task in-process, with the retry budget applied.

    Fatal errors (deterministic functions of the config — see
    :func:`repro.fleet.taxonomy.is_fatal`) fail on the first attempt;
    only retryable ones consume the budget.
    """
    for attempt in range(1, retries + 2):
        try:
            return runner(config)
        except Exception as exc:
            if attempt <= retries and not is_fatal(exc):
                _retry_scheduled()
                continue
            if on_error == "raise":
                raise
            return _failure(index, config, exc, attempt)
    raise AssertionError("unreachable")  # pragma: no cover


def _retry_scheduled() -> None:
    get_registry().counter(
        "repro_runner_retries_total",
        "Task attempts re-submitted after a retryable failure.").inc()


class _Books:
    """One ``run_many`` call's book-keeping for finished tasks: the
    process registry counter (resolved once per call), the heartbeat,
    and the cache write-back under the key derived at lookup."""

    def __init__(self, reporter: Optional[ProgressReporter], cache,
                 n_tasks: int):
        self.reporter = reporter
        self.cache = cache
        #: per task, the cache key its lookup used (None: no cache, or
        #: an unkeyable config) — a miss is stored without re-deriving it
        self.keys: list[Optional[str]] = [None] * n_tasks
        self._tasks = None

    def done(self, kind: str) -> None:
        """Count one finished task: process metrics registry + heartbeat."""
        if self._tasks is None:
            self._tasks = get_registry().counter(
                "repro_runner_tasks_total", "Sweep tasks finished, by outcome.")
        self._tasks.inc(kind=kind)
        if self.reporter is not None:
            self.reporter.task_done(kind=kind)

    def record(self, index: int, config, result):
        """One finished task: write-back, then its kind."""
        failed = isinstance(result, TaskFailure)
        if self.cache is not None and not failed:
            self.cache.put_key(self.keys[index], result, config)
        self.done("failed" if failed else "computed")
        return result


def run_many(
    configs: Sequence[ScenarioConfig],
    *,
    processes: Optional[int] = None,
    runner: Callable[[ScenarioConfig], RunMetrics] = run_scenario_metrics,
    progress: Union[bool, ProgressReporter] = False,
    label: str = "run_many",
    on_error: str = "raise",
    retries: int = 0,
    timeout: Optional[float] = None,
    cache=None,
    chunksize: Optional[int] = None,
    fleet_dir=None,
) -> list:
    """Run scenarios, preserving input order.

    Parameters
    ----------
    processes:
        ``0`` or ``1`` → serial.  ``None`` → ``min(cpu_count, n_misses)``
        (cache hits never spawn workers).
    runner:
        The per-config function; replaceable for tests.
    progress:
        ``True`` prints a per-task heartbeat with ETA to stderr; pass a
        :class:`~repro.obs.ProgressReporter` to control the destination.
    label:
        Heartbeat prefix when ``progress`` is ``True``.
    on_error:
        ``"raise"`` (default): re-raise a task's error once its retries
        are exhausted.  ``"record"``: put a :class:`TaskFailure` in the
        failed task's result slot and keep going — no crash ever aborts
        the sweep (see :func:`partition_results`).
    retries:
        Extra attempts per task before it counts as failed (default 0).
    timeout:
        Per-task running-time bound in seconds (parallel mode only; see
        the module docstring for semantics and caveats).
    cache:
        Optional :class:`~repro.cache.ResultCache`; hits are resolved
        up front and misses written back on completion (see the module
        docstring).
    chunksize:
        Tasks per worker round-trip; ``None`` picks automatically
        (1 for small batches or when ``timeout`` is armed).
    fleet_dir:
        Route the sweep through the crash-resilient fleet fabric
        (:mod:`repro.fleet`) instead of an in-process pool: cells are
        journaled in this directory, claimed by lease-holding worker
        processes, and survive worker SIGKILL / machine loss — a
        rerun with the same directory resumes with zero recomputation.
        Requires ``cache``; ``processes`` becomes the worker count
        (``0`` → one inline worker), ``timeout``/``chunksize`` do not
        apply, and ``retries`` maps to the fleet's attempt budget.
    """
    if on_error not in ("raise", "record"):
        raise ConfigError(f"on_error must be 'raise' or 'record', got {on_error!r}")
    if retries < 0:
        raise ConfigError(f"retries must be >= 0, got {retries!r}")
    if timeout is not None and timeout <= 0:
        raise ConfigError(f"timeout must be positive, got {timeout!r}")
    if chunksize is not None and chunksize < 1:
        raise ConfigError(f"chunksize must be >= 1, got {chunksize!r}")
    configs = list(configs)
    if not configs:
        return []
    if fleet_dir is not None:
        return _run_fleet_backend(
            configs, fleet_dir=fleet_dir, cache=cache, runner=runner,
            processes=processes, retries=retries, on_error=on_error,
            progress=progress, label=label)
    reporter: Optional[ProgressReporter] = None
    if isinstance(progress, ProgressReporter):
        reporter = progress
    elif progress:
        reporter = ProgressReporter(len(configs), label=label)

    results: list = [None] * len(configs)
    books = _Books(reporter, cache, len(configs))
    # Resolve cache hits before sizing (or spawning) the pool: the
    # fastest task is one never submitted.
    if cache is not None:
        todo: list[int] = []
        keys = books.keys
        for i, config in enumerate(configs):
            key = keys[i] = cache.key_or_none(config)
            hit = cache.get_key(key)
            if hit is not None:
                results[i] = hit
                books.done("cached")
            else:
                todo.append(i)
    else:
        todo = list(range(len(configs)))
    if not todo:
        return results

    if processes is None:
        processes = min(os.cpu_count() or 1, len(todo))
    if processes > 1 and len(todo) > 1:
        todo = _run_pool(
            configs, todo, results, processes, runner, books,
            on_error=on_error, retries=retries, timeout=timeout,
            chunksize=chunksize,
        )
    # The in-process path: serial by request, or whatever the pool could
    # not run (no worker processes here, or the pool broke mid-flight).
    for i in todo:
        results[i] = books.record(
            i, configs[i],
            _run_serial_task(runner, configs[i], i, retries, on_error))
    return results


def _run_fleet_backend(
    configs: list,
    *,
    fleet_dir,
    cache,
    runner: Callable,
    processes: Optional[int],
    retries: int,
    on_error: str,
    progress,
    label: str,
) -> list:
    """Route the sweep through :mod:`repro.fleet` (``fleet_dir=...``)."""
    if cache is None:
        raise ConfigError(
            "fleet_dir requires a result cache (pass cache=...): the fleet"
            " fabric stores every result content-addressed so crashed and"
            " resumed runs never recompute")
    from repro.fleet import format_summary, run_fleet

    def heartbeat(view) -> None:
        print(format_summary(view, label=label), file=sys.stderr, flush=True)

    # The default runner is resolvable by dotted spec inside worker
    # subprocesses; only a custom runner needs to travel as an object.
    fleet_runner = None if runner is run_scenario_metrics else runner
    result = run_fleet(
        configs,
        fleet_dir=fleet_dir,
        cache=cache,
        workers=processes,
        runner=fleet_runner,
        max_attempts=1 + retries,
        on_status=heartbeat if progress else None,
    )
    if result.failures and on_error == "raise":
        first = result.failures[0]
        raise TaskError(f"{first.error}\n{first.traceback}")
    return result.results


def _auto_chunksize(n_tasks: int, processes: int,
                    timeout: Optional[float]) -> int:
    if timeout is not None:
        # timeout bounds one submitted unit; keep units = single tasks
        return 1
    return max(1, min(_MAX_CHUNK, n_tasks // (processes * _CHUNK_WAVES)))


def _run_pool(
    configs: list,
    todo: list[int],
    results: list,
    processes: int,
    runner: Callable,
    books: _Books,
    *,
    on_error: str,
    retries: int,
    timeout: Optional[float],
    chunksize: Optional[int],
) -> list[int]:
    """The parallel path: chunking, retries, timeouts.  Returns the
    tasks it could not run, for the caller's serial loop (pool fallback)."""
    try:
        pool = ProcessPoolExecutor(max_workers=processes)
    except (OSError, ImportError, NotImplementedError):
        # No worker processes on this platform/sandbox: degrade to serial.
        return todo
    if chunksize is None:
        chunksize = _auto_chunksize(len(todo), processes, timeout)
    attempts = {i: 1 for i in todo}
    started: dict[Future, Optional[float]] = {}
    pending: dict[Future, tuple[int, ...]] = {}
    any_timeout = False

    def submit(idxs: tuple[int, ...]) -> None:
        if len(idxs) == 1:
            # Direct submission preserves the original exception object
            # for on_error="raise"; retries always come back as singles.
            fut = pool.submit(runner, configs[idxs[0]])
        else:
            fut = pool.submit(_run_chunk, runner, [configs[i] for i in idxs])
        pending[fut] = idxs
        started[fut] = None

    def finish(idx: int, result) -> None:
        results[idx] = books.record(idx, configs[idx], result)

    def settle(failure: TaskFailure, exc: BaseException, fatal: bool) -> None:
        """The failed-attempt rule, for every way an attempt can fail
        (raised future, chunk item, timeout): retry while budget remains
        and the error is retryable — fatal errors are deterministic
        functions of the config and never retry — else raise ``exc`` or
        record ``failure``, as ``on_error`` says."""
        idx = failure.index
        if attempts[idx] <= retries and not fatal:
            attempts[idx] += 1
            _retry_scheduled()
            submit((idx,))
        elif on_error == "raise":
            raise exc
        else:
            finish(idx, failure)

    try:
        for pos in range(0, len(todo), chunksize):
            submit(tuple(todo[pos:pos + chunksize]))
        while pending:
            done, _ = wait(set(pending), timeout=_wait_budget(
                pending, started, timeout), return_when=FIRST_COMPLETED)
            now = time.monotonic()
            for fut in done:
                idxs = pending.pop(fut)
                started.pop(fut, None)
                try:
                    payload = fut.result()
                except BrokenProcessPool:
                    # The pool is dead (a worker was killed); rescue every
                    # unfinished task — this unit included — serially.
                    rest = list(idxs)
                    for other in pending.values():
                        rest.extend(other)
                    pending.clear()
                    return sorted(rest)
                except Exception as exc:
                    # A single task's exception, or a chunk that failed
                    # wholesale (e.g. its result would not pickle):
                    # settle every task it carried.
                    for idx in idxs:
                        settle(_failure(idx, configs[idx], exc,
                                        attempts[idx]), exc, is_fatal(exc))
                    continue
                if len(idxs) == 1:
                    finish(idxs[0], payload)
                    continue
                for idx, item in zip(idxs, payload):
                    if isinstance(item, _ChunkItemError):
                        settle(TaskFailure(
                            index=idx, config=configs[idx], error=item.error,
                            traceback=item.traceback, attempts=attempts[idx]),
                            TaskError(f"{item.error}\n{item.traceback}"),
                            item.fatal)
                    else:
                        finish(idx, item)
            if timeout is None:
                continue
            # Clock units from when a worker picked them up, not from
            # submission, so queueing behind a full pool never counts.
            for fut in list(pending):
                if started[fut] is None and fut.running():
                    started[fut] = now
                began = started[fut]
                if began is None or now - began <= timeout:
                    continue
                idxs = pending.pop(fut)
                started.pop(fut, None)
                fut.cancel()  # running futures ignore this; slot is lost
                any_timeout = True
                get_registry().counter(
                    "repro_runner_timeouts_total",
                    "Submitted units that exceeded the per-task timeout.",
                    volatile=True).inc()
                if len(idxs) > 1:
                    # A multi-task chunk timed out as a unit, but at most
                    # one of its tasks need be hung: resubmit each as its
                    # own single (no attempt consumed) so the hung one
                    # times out alone and its chunk-mates still complete.
                    for idx in idxs:
                        submit((idx,))
                    continue
                timeout_exc = TimeoutError(
                    f"task exceeded timeout={timeout:g}s")
                for idx in idxs:
                    settle(_failure(idx, configs[idx], timeout_exc,
                                    attempts[idx], timed_out=True),
                           timeout_exc, is_fatal(timeout_exc))
        return []
    except (KeyboardInterrupt, SystemExit):
        # Interrupted mid-sweep: futures that already completed hold
        # results the next run would otherwise recompute.  Harvest them
        # into the result slots (and the cache) before propagating, so
        # Ctrl-C loses at most the tasks still in flight.
        _harvest_finished(pending, configs, results, books)
        any_timeout = True  # don't block shutdown on still-running tasks
        raise
    finally:
        # A hung worker would block a waiting shutdown forever; abandon
        # the pool instead once any task has timed out.
        pool.shutdown(wait=not any_timeout, cancel_futures=True)


def _harvest_finished(
    pending: dict,
    configs: list,
    results: list,
    books: _Books,
) -> None:
    """Collect every already-completed pending future's results.

    Used on interrupt: ``books.record`` writes each harvested result through
    the cache, so an interrupted-then-rerun sweep resumes from exactly
    where the workers got to.  Errors are ignored — the interrupt is
    already propagating and a rerun will retry them.
    """
    for fut, idxs in pending.items():
        if not fut.done() or fut.cancelled():
            continue
        try:
            payload = fut.result()
        except BaseException:
            continue
        items = [payload] if len(idxs) == 1 else payload
        for idx, item in zip(idxs, items):
            if not isinstance(item, _ChunkItemError):
                results[idx] = books.record(idx, configs[idx], item)


def _wait_budget(
    pending: dict[Future, tuple[int, ...]],
    started: dict[Future, Optional[float]],
    timeout: Optional[float],
) -> Optional[float]:
    """How long the pool loop may sleep before it must look around.

    Without an armed ``timeout`` there is nothing to police: block
    until a future completes (None → fully event-driven, no wake-ups).
    With one, sleep exactly until the earliest running unit's deadline;
    while any unit is still queued, cap the sleep at a short poll so
    its queued→running transition is noticed promptly.
    """
    if timeout is None:
        return None
    now = time.monotonic()
    deadlines = [began + timeout for began in started.values()
                 if began is not None]
    waiting_to_start = any(started[fut] is None for fut in pending)
    if not deadlines:
        return _POLL_INTERVAL if waiting_to_start else None
    budget = max(0.0, min(deadlines) - now)
    if waiting_to_start:
        budget = min(budget, _POLL_INTERVAL)
    return budget


def sweep(
    base: ScenarioConfig,
    axis: str,
    values: Iterable,
    *,
    processes: Optional[int] = None,
    progress: Union[bool, ProgressReporter] = False,
    on_error: str = "raise",
    retries: int = 0,
    timeout: Optional[float] = None,
    cache=None,
    chunksize: Optional[int] = None,
    fleet_dir=None,
    **fixed,
) -> list[tuple[object, RunMetrics]]:
    """Vary one config field over ``values`` (other overrides in ``fixed``).

    Returns ``[(value, metrics), ...]`` in value order; with
    ``on_error="record"`` a crashed run's metrics slot holds its
    :class:`TaskFailure` instead.  ``cache``/``chunksize``/``fleet_dir``
    pass through to :func:`run_many`.
    """
    values = list(values)
    configs = [base.with_(**{axis: v}, **fixed) for v in values]
    results = run_many(configs, processes=processes, progress=progress,
                       label=f"sweep:{axis}", on_error=on_error,
                       retries=retries, timeout=timeout,
                       cache=cache, chunksize=chunksize,
                       fleet_dir=fleet_dir)
    return list(zip(values, results))
