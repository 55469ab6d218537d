"""The watchdog: reclaims leases whose owners stopped heartbeating.

A SIGKILLed worker (or a lost machine) cannot release its lease, so its
cell would otherwise stay claimed forever.  Every worker and the
coordinator run :meth:`Watchdog.scan` periodically: any lease whose
embedded heartbeat is older than the TTL is unlinked and a ``reclaim``
record is journaled, returning the cell to the pending pool with
exponential backoff.  Reclaims are budgeted separately from errors: a
crash consumes one of ``max_reclaims`` (default 5), never one of the
cell's ``max_attempts`` error retries, so a SIGKILLed worker costs the
cell nothing it earned — while a cell that crashes its worker every
time still becomes a terminal failure rather than looping forever.

Reclaiming is idempotent across concurrent watchdogs: the unlink
arbitrates (only the scanner that removes the file journals the
reclaim), and the journal fold tolerates duplicates anyway.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro.fleet import journal as jn
from repro.fleet import lease as ln
from repro.obs.metrics import get_registry

__all__ = ["Watchdog", "backoff_delay"]


def backoff_delay(base: float, attempt: int) -> float:
    """Exponential backoff before attempt ``attempt + 1`` may start."""
    return base * (2.0 ** max(0, attempt - 1))


@dataclass
class Watchdog:
    """Scans one fleet directory for stale leases.

    Parameters mirror the journal header; workers build their watchdog
    from the header so every scanner in a fleet agrees on the TTL and
    retry policy.
    """

    paths: jn.FleetPaths
    lease_ttl: float
    max_attempts: int = 3
    #: reclaims allowed per cell before it is declared a terminal
    #: failure — separate from the error budget, so a crashed worker
    #: never eats a cell's retries, but a cell that *kills* its worker
    #: every time still terminates
    max_reclaims: int = 5
    backoff_base: float = 0.5
    clock: Callable[[], float] = time.time

    def scan(self, state: jn.FleetState, *, by: str = "watchdog") -> list[str]:
        """Reclaim every stale lease; returns the reclaimed cell keys.

        ``state`` is the caller's current journal fold (used for attempt
        counts); the caller should refresh it after a non-empty scan.
        """
        reclaimed: list[str] = []
        now = self.clock()
        for path in self.paths.lease_files():
            info = ln.read_lease(path)
            if info is None:
                # Corrupt or vanished mid-read: only reclaim it once it
                # cannot be a half-written *fresh* lease.
                try:
                    if now - path.stat().st_mtime <= self.lease_ttl:
                        continue
                except OSError:
                    continue
                info = {}
            elif not ln.stale(info, self.lease_ttl, now):
                continue
            cell_key = info.get("cell") or path.stem
            try:
                path.unlink()
            except OSError:
                continue  # another watchdog won the reclaim
            cell = state.cells.get(cell_key)
            attempt = (cell.reclaims if cell else 0) + 1
            terminal = attempt >= self.max_reclaims
            record = {
                "kind": "reclaim",
                "cell": cell_key,
                "worker": info.get("worker", "?"),
                "by": by,
                "t": now,
                "attempt": attempt,
                "not_before": now + backoff_delay(self.backoff_base, attempt),
            }
            if terminal:
                record["terminal"] = True
                record["fatal"] = False
            jn.append_record(self.paths.journal, record)
            get_registry().counter(
                "repro_fleet_reclaims_total",
                "Stale leases reclaimed, by finality.").inc(
                    terminal="true" if terminal else "false")
            reclaimed.append(cell_key)
        return reclaimed
