"""The fleet worker: claim → run → write back, crash-safely, forever.

A worker owns no state the fleet cannot recover: the journal says what
exists, the lease says who is computing it, and the result cache holds
everything finished.  The loop is::

    while not draining:
        refresh the journal follower (reads only what was appended)
        walk the pending cells in grid order; try the lease of the
          first whose backoff has passed
        claimed?  probe the cache first (another fleet may have computed
          it) — a hit journals ``done`` without running anything;
          otherwise run the cell, write the result to the cache
          *first*, then journal ``done``, then release the lease
        nothing claimable?  run the watchdog, then sleep one poll
        nothing pending?  confirm with a from-zero fold, then stop

One heartbeat thread lives as long as the worker: every ``lease_ttl/4``
seconds it renews the held lease, if any, and rewrites the status file,
busy or idle.  The status file is otherwise written only at start and
exit, never per cell, and nothing per cell calls ``fsync`` (see the
"Durability model" of :mod:`repro.fleet.journal`).

Crash ordering: the cache write precedes the ``done`` record, so a
worker killed between the two leaves a stale lease; the reclaiming
worker re-claims the cell, finds the cache hit, and journals ``done``
without recomputing.  At no point can a cell be both unrecorded and
uncached yet skipped.

Graceful drain: SIGINT/SIGTERM set a flag checked between cells (and
honoured by the running cell's *completion*, never its interruption —
a partial simulation is worthless, a finished one is cached).  The
worker then journals a ``drain`` record and exits 0, so
``repro fleet run … && repro fleet run …`` resumes with zero
recomputation.

Errors are classified by :mod:`repro.fleet.taxonomy`: a fatal error
(``ConfigError`` and friends) journals a terminal failure immediately;
a retryable one journals a backoff and releases the cell for any worker
to retry, up to ``max_attempts`` across the whole fleet.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import traceback as _traceback
import uuid
from pathlib import Path
from typing import Callable, Iterator, Optional

from repro.errors import FleetError
from repro.fleet import journal as jn
from repro.fleet import lease as ln
from repro.fleet.taxonomy import is_fatal
from repro.fleet.watchdog import Watchdog, backoff_delay
from repro.obs.metrics import get_registry

__all__ = ["FleetWorker", "worker_id"]


def worker_id() -> str:
    """A globally unique worker name: host, pid, and a random tag."""
    return f"{ln.HOST}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


class FleetWorker:
    """One claim-run-writeback loop over a fleet directory.

    Parameters
    ----------
    fleet_dir:
        The fleet directory (journal + leases + workers).
    cache:
        The shared :class:`~repro.cache.ResultCache`.  When None, one is
        built from the journal header's ``cache_dir``/``fingerprint`` —
        how subprocess workers bootstrap.
    runner:
        The per-config callable.  When None it is resolved from the
        journal header's dotted ``runner`` spec.
    install_signals:
        Install SIGINT/SIGTERM graceful-drain handlers (the subprocess
        entry point does; inline workers inside a larger process must
        not steal the host's handlers).
    """

    def __init__(
        self,
        fleet_dir: str | Path,
        *,
        cache=None,
        runner: Optional[Callable] = None,
        worker_name: Optional[str] = None,
        poll: float = 0.2,
        install_signals: bool = False,
        clock: Callable[[], float] = time.time,
    ):
        self.paths = jn.FleetPaths(Path(fleet_dir)).ensure()
        self._follower = jn.JournalFollower(self.paths.journal)
        state = self._follower.refresh()
        if not state.header:
            raise FleetError(f"no fleet journal in {fleet_dir}")
        self.header = state.header
        self.name = worker_name or worker_id()
        self.poll = poll
        self.clock = clock
        self.lease_ttl = float(self.header.get("lease_ttl", 30.0))
        self.heartbeat_interval = max(0.05, self.lease_ttl / 4.0)
        self.max_attempts = int(self.header.get("max_attempts", 3))
        self.max_reclaims = int(self.header.get("max_reclaims", 5))
        self.backoff_base = float(self.header.get("backoff_base", 0.5))
        if cache is None:
            from repro.cache import ResultCache

            cache_dir = self.header.get("cache_dir")
            if not cache_dir:
                raise FleetError("journal header carries no cache_dir")
            cache = ResultCache(cache_dir,
                                fingerprint=self.header.get("fingerprint"))
        self.cache = cache
        self.runner = runner if runner is not None else \
            jn.resolve_callable(self.header["runner"])
        self.config_type = state.config_type()
        self.watchdog = Watchdog(
            self.paths, lease_ttl=self.lease_ttl,
            max_attempts=self.max_attempts,
            max_reclaims=self.max_reclaims,
            backoff_base=self.backoff_base, clock=clock)
        self.draining = False
        self.drain_signal = ""
        self.done_count = 0
        self.failed_count = 0
        self._current_cell = ""
        #: the lease held while a cell runs; the heartbeat renews it
        self._lease: Optional[ln.Lease] = None
        #: serialises the heartbeat's renew against the lease's release
        self._lock = threading.Lock()
        # Monotonic birth time: the status file's ``uptime`` delta is
        # what observers judge liveness by (immune to wall-clock skew
        # between hosts sharing the fleet directory over NFS).
        self._mono0 = time.monotonic()
        self._beats = 0
        self._metrics = get_registry()
        if install_signals:
            self.install_signal_handlers()

    def _count(self, name: str, help: str, **labels) -> None:
        self._metrics.counter(name, help).inc(**labels)

    # -- signals -----------------------------------------------------------

    def install_signal_handlers(self) -> None:
        """SIGINT/SIGTERM → finish the current cell, flush, exit 0."""
        for sig in (signal.SIGINT, signal.SIGTERM):
            signal.signal(sig, self._on_signal)

    def _on_signal(self, signum, frame) -> None:  # pragma: no cover - signal
        self.draining = True
        self.drain_signal = signal.Signals(signum).name

    # -- worker status file ------------------------------------------------

    def _write_status(self, state: str) -> None:
        self._beats += 1
        ln.write_json(self.paths.workers / f"{self.name}.json", {
            "worker": self.name,
            "pid": os.getpid(),
            "host": ln.HOST,
            "heartbeat": self.clock(),
            # Seconds since worker start on *this worker's* monotonic
            # clock: observers detect staleness by this value failing to
            # advance across their own monotonic interval, so NFS mtime
            # granularity and cross-host wall-clock skew never matter.
            "uptime": round(time.monotonic() - self._mono0, 6),
            "beats": self._beats,
            "state": state,
            "cell": self._current_cell,
            "done": self.done_count,
            "failed": self.failed_count,
        })

    # -- one cell ----------------------------------------------------------

    def _journal(self, record: dict) -> None:
        jn.append_record(self.paths.journal, record)

    def _heartbeat(self, halt: threading.Event) -> None:
        """The worker's one heartbeat thread: a beat per interval."""
        while not halt.wait(self.heartbeat_interval):
            try:
                self._beat()
            except Exception:
                pass  # a failed beat must never kill the worker

    def _beat(self) -> None:
        """One heartbeat: renew the held lease, if any; rewrite status."""
        with self._lock:
            state = "draining" if self.draining else "idle"
            if self._lease is not None:
                renewed = ln.renew(self._lease)
                self._count("repro_fleet_lease_renewals_total",
                            "Lease heartbeat renewals, by outcome.",
                            result="ok" if renewed else "lost")
                state = "running"
            self._write_status(state)

    def _run_cell(self, cell: jn.CellState, lease: ln.Lease) -> None:
        """Run one claimed cell end to end; always releases the lease."""
        self._current_cell = cell.key
        self._lease = lease
        try:
            config = jn.config_from_json(self.config_type, cell.config)
            self._journal({"kind": "claim", "cell": cell.key,
                           "worker": self.name, "t": self.clock()})
            self._count("repro_fleet_claims_total",
                        "Cells claimed by this worker.")
            # Another fleet (or a crashed worker that cached before its
            # ``done`` record) may have computed this cell already.  The
            # journaled key is the cache key the plan derived.
            if self.cache.get_key(cell.key) is not None:
                self._journal({"kind": "done", "cell": cell.key,
                               "worker": self.name, "t": self.clock(),
                               "from_cache": True})
                self._count("repro_fleet_done_total",
                            "Cells finished by this worker.",
                            from_cache="true")
                self.done_count += 1
                return
            t0 = self.clock()
            try:
                result = self.runner(config)
            except Exception as exc:
                self._record_error(cell, exc)
                return
            self.cache.put_key(cell.key, result, config)
            t1 = self.clock()
            self._journal({"kind": "done", "cell": cell.key,
                           "worker": self.name, "t": t1, "elapsed": t1 - t0})
            self._count("repro_fleet_done_total",
                        "Cells finished by this worker.", from_cache="false")
            self._metrics.histogram(
                "repro_fleet_cell_seconds",
                "Wall-clock runtime of computed cells.",
                volatile=True).observe(t1 - t0)
            self.done_count += 1
        finally:
            with self._lock:  # no beat may re-create a released lease
                self._lease = None
                self._current_cell = ""
                ln.release(lease)

    def _record_error(self, cell: jn.CellState, exc: Exception) -> None:
        now = self.clock()
        attempt = cell.attempts + 1
        fatal = is_fatal(exc)
        terminal = fatal or attempt >= self.max_attempts
        record = {
            "kind": "error",
            "cell": cell.key,
            "worker": self.name,
            "t": now,
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": "".join(_traceback.format_exception(
                type(exc), exc, exc.__traceback__)),
            "attempt": attempt,
            "fatal": fatal,
            "not_before": now + backoff_delay(self.backoff_base, attempt),
        }
        if terminal:
            record["terminal"] = True
            self.failed_count += 1
        self._journal(record)
        self._count("repro_fleet_errors_total",
                    "Cell attempts that raised, by finality.",
                    terminal="true" if terminal else "false")

    # -- the loop ----------------------------------------------------------

    def _claimable(self, state: jn.FleetState) -> Iterator[jn.CellState]:
        now = self.clock()
        return (c for c in state.open_cells() if c.not_before <= now)

    def run(self) -> int:
        """Work until the fleet is finished or a drain is requested.

        Returns the number of cells this worker completed (cache hits
        included).
        """
        self._write_status("idle")
        halt = threading.Event()
        heartbeat = threading.Thread(target=self._heartbeat, args=(halt,),
                                     name="fleet-heartbeat", daemon=True)
        heartbeat.start()
        try:
            while not self.draining:
                if self._follower.finished():
                    break  # every cell is terminal: the fleet is done
                state = self._follower.state
                progressed = False
                for cell in self._claimable(state):
                    if self.draining:
                        break
                    got = ln.acquire(self.paths.leases, cell.key,
                                     self.name, clock=self.clock)
                    if got is None:
                        continue
                    self._run_cell(cell, got)
                    progressed = True
                    break  # refresh: the world may have moved on
                if progressed or self.draining:
                    continue
                # Nothing claimable: other workers hold the rest, or
                # every open cell is backing off.  Police the leases,
                # then wait one poll.
                if self.watchdog.scan(state, by=self.name):
                    continue
                time.sleep(self.poll)
        finally:
            halt.set()
            heartbeat.join(timeout=2.0)
            if self.draining:
                self._journal({"kind": "drain", "worker": self.name,
                               "signal": self.drain_signal or "drain",
                               "t": self.clock()})
                self._count("repro_fleet_drains_total",
                            "Graceful worker drains.")
            with self._lock:
                self._write_status("drained" if self.draining else "done")
        return self.done_count


def main(fleet_dir: str, *, worker_name: Optional[str] = None,
         cache_dir: Optional[str] = None, poll: float = 0.2) -> int:
    """The ``repro fleet worker`` subprocess entry point (exit code)."""
    cache = None
    if cache_dir:
        from repro.cache import ResultCache

        header = jn.load_state(jn.FleetPaths(Path(fleet_dir)).journal).header
        cache = ResultCache(cache_dir,
                            fingerprint=header.get("fingerprint"))
    worker = FleetWorker(fleet_dir, cache=cache, worker_name=worker_name,
                         poll=poll, install_signals=True)
    worker.run()
    return 0
