"""Lease files: exclusive, heartbeat-renewed claims on fleet cells.

A worker claims a cell by creating ``leases/<key>.json`` with
``O_CREAT | O_EXCL`` — the filesystem arbitrates the race, so exactly
one worker wins even across hosts sharing the directory.  While the
cell runs, the owner rewrites the lease (atomic tmp + rename) on every
heartbeat; the file's embedded ``heartbeat`` timestamp is what the
watchdog judges staleness by, so clock skew between hosts matters only
at the scale of the lease TTL (default 30 s), not of the heartbeat.

A worker that finishes releases the lease by unlinking it.  A worker
that dies (SIGKILL, machine loss) leaves the file behind with a frozen
heartbeat; once the TTL passes, any watchdog may reclaim it — unlink
the file and journal a ``reclaim`` record — returning the cell to the
pending pool.  Renewal re-reads the file first and refuses to renew a
lease it no longer owns, so a reclaimed-then-rescheduled cell cannot be
resurrected by its original (slow but alive) worker; that worker
detects the loss at its next heartbeat and abandons ownership cleanly
(its eventual result write is still harmless: deterministic cells are
byte-identical whichever worker computes them).
"""

from __future__ import annotations

import json
import os
import socket
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

__all__ = ["Lease", "acquire", "read_lease", "release", "renew", "stale"]

#: this machine's name, read once for every lease and status payload
HOST = socket.gethostname()


@dataclass
class Lease:
    """An owned claim on one cell (valid while :func:`renew` succeeds)."""

    path: Path
    cell: str
    worker: str
    acquired: float
    clock: Callable[[], float] = time.time

    def payload(self, heartbeat: float) -> dict:
        return {
            "cell": self.cell,
            "worker": self.worker,
            "pid": os.getpid(),
            "host": HOST,
            "acquired": self.acquired,
            "heartbeat": heartbeat,
        }


def acquire(leases_dir: Path, cell: str, worker: str,
            clock: Callable[[], float] = time.time) -> Optional[Lease]:
    """Try to claim ``cell`` for ``worker``; None if already leased.

    ``leases_dir`` must exist (``FleetPaths.ensure`` makes it): any
    failure other than the lease file already existing propagates, so a
    missing directory is an error, never a cell that reads as taken.
    """
    path = leases_dir / f"{cell}.json"
    now = clock()
    lease = Lease(path=path, cell=cell, worker=worker,
                  acquired=now, clock=clock)
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
    except FileExistsError:
        return None
    try:
        os.write(fd, json.dumps(lease.payload(now), sort_keys=True).encode())
    finally:
        os.close(fd)
    return lease


def read_lease(path: Path) -> Optional[dict]:
    """The lease file's payload, or None when missing/corrupt."""
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) else None


def renew(lease: Lease) -> bool:
    """Refresh the heartbeat; False when ownership was lost.

    Reads the current file first: a missing file or a foreign worker
    name means the watchdog reclaimed the lease, and renewing would
    create a zombie claim — refuse instead.
    """
    current = read_lease(lease.path)
    if current is None or current.get("worker") != lease.worker:
        return False
    return write_json(lease.path, lease.payload(lease.clock()))


def write_json(path: Path, payload: dict) -> bool:
    """Replace ``path`` with ``payload`` atomically (tmp + rename)."""
    tmp = path.parent / f".{path.name}.tmp-{os.getpid()}"
    try:
        tmp.write_text(json.dumps(payload, sort_keys=True))
        os.replace(tmp, path)
    except OSError:
        try:
            tmp.unlink()
        except OSError:
            pass
        return False
    return True


def release(lease: Lease) -> None:
    """Drop the claim (missing file — already reclaimed — is fine)."""
    try:
        lease.path.unlink()
    except OSError:
        pass


def stale(info: dict, ttl: float, now: float) -> bool:
    """Whether a lease payload's heartbeat is older than ``ttl``."""
    try:
        heartbeat = float(info.get("heartbeat", 0.0))
    except (TypeError, ValueError):
        return True
    return now - heartbeat > ttl
