"""Heartbeat progress for long sweeps.

Figure sweeps run tens of independent simulations across worker
processes; without feedback a multi-minute sweep is indistinguishable
from a hang.  :class:`ProgressReporter` prints one line per completed
task — count, percentage, elapsed time, and a naive ETA — to stderr so
it composes with CSV/table output on stdout.

With the result cache in play a "completed" task can mean three
different things, so every task is recorded with a *kind* —
``"computed"`` (simulated now), ``"cached"`` (served from the result
cache), or ``"failed"`` (a recorded :class:`TaskFailure` row) — and the
heartbeat breaks the total down accordingly.  The ETA is based on the
*computed* rate only: cache hits resolve in microseconds and would
otherwise make the estimate absurdly optimistic for the simulations
still to run.

Fleet sweeps (:mod:`repro.fleet`) report differently: progress there is
a property of the shared journal, not of any one process, so their
heartbeat is :func:`repro.fleet.format_summary` of a
:class:`~repro.fleet.FleetView`.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Optional, TextIO

from repro.errors import ConfigError

__all__ = ["ProgressReporter"]

_KINDS = ("computed", "cached", "failed")


class ProgressReporter:
    """Prints per-task completion and ETA for a fixed-size batch.

    Parameters
    ----------
    total:
        Number of tasks in the batch.
    label:
        Prefix identifying the batch (e.g. ``"sweep"``).
    stream:
        Output stream; defaults to ``sys.stderr``.
    min_interval:
        Minimum seconds between heartbeat lines (the final task always
        reports), so thousand-task sweeps do not flood the terminal.
    """

    def __init__(
        self,
        total: int,
        *,
        label: str = "sweep",
        stream: Optional[TextIO] = None,
        min_interval: float = 0.0,
    ):
        if total < 1:
            raise ConfigError(f"total must be >= 1, got {total!r}")
        self.total = int(total)
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = float(min_interval)
        self.done = 0
        self.counts: dict[str, int] = {kind: 0 for kind in _KINDS}
        self._t0 = time.perf_counter()
        self._last_line = float("-inf")

    @property
    def computed(self) -> int:
        return self.counts["computed"]

    @property
    def cached(self) -> int:
        return self.counts["cached"]

    @property
    def failed(self) -> int:
        return self.counts["failed"]

    def elapsed(self) -> float:
        """Wall seconds since the reporter was created."""
        return time.perf_counter() - self._t0

    def eta(self) -> float:
        """Remaining-time estimate from the mean *computed*-task rate.

        Cache hits are excluded from the rate (they are effectively
        free); before anything has been computed the estimate falls back
        to the overall rate, or NaN with no tasks done at all.
        """
        if self.done == 0:
            return float("nan")
        rate_basis = self.computed if self.computed else self.done
        return self.elapsed() / rate_basis * (self.total - self.done)

    def task_done(self, info: Any = None, *, kind: str = "computed") -> None:
        """Record one finished task and (rate-limited) print a heartbeat.

        ``kind`` is ``"computed"`` (default), ``"cached"``, or
        ``"failed"``; the heartbeat shows the per-kind breakdown as soon
        as any task is non-computed.
        """
        if kind not in _KINDS:
            raise ConfigError(
                f"kind must be one of {_KINDS}, got {kind!r}")
        self.done += 1
        self.counts[kind] += 1
        now = time.perf_counter()
        final = self.done >= self.total
        if not final and now - self._last_line < self.min_interval:
            return
        self._last_line = now
        elapsed = now - self._t0
        pct = 100.0 * self.done / self.total
        line = (
            f"[{self.label}] {self.done}/{self.total} ({pct:.0f}%)"
        )
        if self.cached or self.failed:
            parts = [f"{self.computed} computed", f"{self.cached} cached"]
            if self.failed:
                parts.append(f"{self.failed} failed")
            line += f" [{', '.join(parts)}]"
        line += f" elapsed {elapsed:.1f}s"
        if not final:
            line += f" eta {self.eta():.1f}s"
        if info is not None:
            line += f" — {info}"
        print(line, file=self.stream, flush=True)
