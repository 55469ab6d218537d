"""Flow-completion-time statistics (the paper's headline metric).

The paper reports short-flow AFCT and 99th-percentile FCT (Figs. 10–12a/b),
FCT CDFs (Fig. 3c), and normalised AFCT across schemes (Figs. 13–14, 16–17).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.transport.flow import FlowStats
from repro.units import KB

__all__ = ["FctSummary", "fct_summary", "is_short", "split_by_size", "fct_cdf"]


@dataclass(frozen=True)
class FctSummary:
    """Aggregate FCT statistics over a set of completed flows."""

    n_flows: int
    n_completed: int
    mean: float
    p50: float
    p95: float
    p99: float
    max: float

    @staticmethod
    def empty() -> "FctSummary":
        nan = float("nan")
        return FctSummary(0, 0, nan, nan, nan, nan, nan)

    @property
    def completion_ratio(self) -> float:
        """Fraction of flows that delivered all their data."""
        return self.n_completed / self.n_flows if self.n_flows else float("nan")


def fct_summary(stats: Iterable[FlowStats]) -> FctSummary:
    """Summarise FCTs; unfinished flows count against completion_ratio
    but do not contribute an FCT value."""
    stats = list(stats)
    fcts = np.asarray([s.fct for s in stats if s.fct is not None], dtype=float)
    if fcts.size == 0:
        return FctSummary(len(stats), 0, *([float("nan")] * 5))
    p50, p95, p99 = np.percentile(fcts, [50, 95, 99])
    return FctSummary(
        n_flows=len(stats),
        n_completed=int(fcts.size),
        mean=float(fcts.mean()),
        p50=float(p50),
        p95=float(p95),
        p99=float(p99),
        max=float(fcts.max()),
    )


def is_short(size: int, short_threshold: int = KB(100)) -> bool:
    """The size-class rule, stated once: a flow is short when *strictly*
    under the threshold (the paper's "<100 KB"), so a flow of exactly
    ``short_threshold`` bytes is long.  Metrics, deadlines, the flight
    recorder and span files all classify through this."""
    return size < short_threshold


def split_by_size(
    stats: Iterable[FlowStats], short_threshold: int = KB(100)
) -> tuple[list[FlowStats], list[FlowStats]]:
    """Partition flows into (short, long) by *actual* size — ground truth
    for reporting, independent of the switches' online classification."""
    short: list[FlowStats] = []
    long_: list[FlowStats] = []
    for s in stats:
        (short if is_short(s.flow.size, short_threshold) else long_).append(s)
    return short, long_


def fct_cdf(stats: Iterable[FlowStats]) -> tuple[np.ndarray, np.ndarray]:
    """Empirical FCT CDF: returns (sorted values, cumulative probs)."""
    fcts = np.sort(np.asarray(
        [s.fct for s in stats if s.fct is not None], dtype=float))
    if fcts.size == 0:
        return fcts, fcts
    probs = np.arange(1, fcts.size + 1) / fcts.size
    return fcts, probs
