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
worker round-trip; the default picks 1 for small batches and grows the
chunk for large ones.  Inside a chunk each task is still isolated: one
raising task yields a per-item error record, not a lost chunk.

Resilience
----------
A multi-hour sweep must never die because one scenario crashed.  However
an attempt fails — the runner raised in-process, in a worker, or inside
a chunk — one rule settles it, in this order:

* **Retry** while the task has budget (``retries=N`` allows ``1 + N``
  attempts) and the error is *retryable* — an OOM-killed worker, a flaky
  filesystem.  A fatal error (a
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
same serial loop ``processes=0`` uses rather than failing.  Each rescued
task keeps the attempt it was on: the attempt the broken pool killed is
run again, not charged, and the attempts already spent stay spent.

Nothing bounds a wedged task's wall time: a runner that never returns
holds its worker (or, serially, the sweep) until it is interrupted.

The pool loop is event-driven: it blocks until a future completes.
"""

from __future__ import annotations

import os
import sys
import traceback as _traceback
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from repro.errors import ConfigError
from repro.experiments.common import ScenarioConfig, run_scenario_metrics
from repro.fleet.taxonomy import is_fatal
from repro.metrics.collector import RunMetrics
from repro.obs.metrics import get_registry
from repro.obs.progress import ProgressReporter

__all__ = ["TaskFailure", "TaskError", "run_many", "partition_results"]

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

    def __str__(self) -> str:  # pragma: no cover - formatting aid
        return f"task {self.index} failed after {self.attempts} attempt(s): {self.error}"


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
             attempts: int) -> TaskFailure:
    return TaskFailure(
        index=index,
        config=config,
        error=f"{type(exc).__name__}: {exc}",
        traceback="".join(
            _traceback.format_exception(type(exc), exc, exc.__traceback__)),
        attempts=attempts,
    )


def _run_serial_task(
    runner: Callable,
    config: object,
    index: int,
    retries: int,
    on_error: str,
    first_attempt: int = 1,
) -> Union[RunMetrics, TaskFailure]:
    """One task in-process, with the retry budget applied.

    Fatal errors (deterministic functions of the config — see
    :func:`repro.fleet.taxonomy.is_fatal`) fail on the first attempt;
    only retryable ones consume the budget.  A task rescued from a
    broken pool starts on ``first_attempt``, the attempt it was on.
    """
    for attempt in range(first_attempt, retries + 2):
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
    cache:
        Optional :class:`~repro.cache.ResultCache`; hits are resolved
        up front and misses written back on completion (see the module
        docstring).
    chunksize:
        Tasks per worker round-trip; ``None`` picks automatically
        (1 for small batches).
    fleet_dir:
        Route the sweep through the crash-resilient fleet fabric
        (:mod:`repro.fleet`) instead of an in-process pool: cells are
        journaled in this directory, claimed by lease-holding worker
        processes, and survive worker SIGKILL / machine loss — a
        rerun with the same directory resumes with zero recomputation.
        Requires ``cache``; ``processes`` becomes the worker count
        (``0`` → one inline worker), ``chunksize`` does not apply, and
        ``retries`` maps to the fleet's attempt budget.
    """
    if on_error not in ("raise", "record"):
        raise ConfigError(f"on_error must be 'raise' or 'record', got {on_error!r}")
    if retries < 0:
        raise ConfigError(f"retries must be >= 0, got {retries!r}")
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
    serial = [(i, 1) for i in todo]
    if processes > 1 and len(todo) > 1:
        serial = _run_pool(
            configs, todo, results, processes, runner, books,
            on_error=on_error, retries=retries, chunksize=chunksize,
        )
    # The in-process path: serial by request, or whatever the pool could
    # not run (no worker processes here, or the pool broke mid-flight).
    for i, attempt in serial:
        results[i] = books.record(
            i, configs[i],
            _run_serial_task(runner, configs[i], i, retries, on_error,
                             attempt))
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


def _auto_chunksize(n_tasks: int, processes: int) -> int:
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
    chunksize: Optional[int],
) -> list[tuple[int, int]]:
    """The parallel path: chunking and retries.  Returns the tasks it
    could not run, each with the attempt it was on, for the caller's
    serial loop (pool fallback)."""
    try:
        pool = ProcessPoolExecutor(max_workers=processes)
    except (OSError, ImportError, NotImplementedError):
        # No worker processes on this platform/sandbox: degrade to serial.
        return [(i, 1) for i in todo]
    if chunksize is None:
        chunksize = _auto_chunksize(len(todo), processes)
    attempts = {i: 1 for i in todo}
    pending: dict[Future, tuple[int, ...]] = {}
    interrupted = False

    def submit(idxs: tuple[int, ...]) -> None:
        if len(idxs) == 1:
            # Direct submission preserves the original exception object
            # for on_error="raise"; retries always come back as singles.
            fut = pool.submit(runner, configs[idxs[0]])
        else:
            fut = pool.submit(_run_chunk, runner, [configs[i] for i in idxs])
        pending[fut] = idxs

    def finish(idx: int, result) -> None:
        results[idx] = books.record(idx, configs[idx], result)

    def settle(failure: TaskFailure, exc: BaseException, fatal: bool) -> None:
        """The failed-attempt rule, for every way an attempt can fail
        (raised future, chunk item): retry while budget remains and the
        error is retryable — fatal errors are deterministic functions
        of the config and never retry — else raise ``exc`` or record
        ``failure``, as ``on_error`` says."""
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
            done, _ = wait(set(pending), return_when=FIRST_COMPLETED)
            for fut in done:
                idxs = pending.pop(fut)
                try:
                    payload = fut.result()
                except BrokenProcessPool:
                    # The pool is dead (a worker was killed); rescue every
                    # unfinished task — this unit included — serially,
                    # each on the attempt the pool was running.
                    rest = list(idxs)
                    for other in pending.values():
                        rest.extend(other)
                    pending.clear()
                    return [(i, attempts[i]) for i in sorted(rest)]
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
        return []
    except (KeyboardInterrupt, SystemExit):
        # Interrupted mid-sweep: futures that already completed hold
        # results the next run would otherwise recompute.  Harvest them
        # into the result slots (and the cache) before propagating, so
        # Ctrl-C loses at most the tasks still in flight.
        _harvest_finished(pending, configs, results, books)
        interrupted = True
        raise
    finally:
        # An interrupted sweep does not wait for the tasks in flight.
        pool.shutdown(wait=not interrupted, cancel_futures=True)


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
