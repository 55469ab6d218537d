"""Reordering metrics (Figs. 3b, 4b, 8a, 9a).

Reordering is observed at the receivers: each out-of-order arrival
produces a duplicate cumulative ACK.  The aggregate view is the dup-ACK
ratio (dup ACKs / ACKs sent, the paper's Fig. 3b quantity) and the
out-of-order arrival ratio; the live view is a binned dup-ACK rate via
:class:`DupAckTracker` (the "real-time reordering ratio" panels).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.metrics.fct import is_short
from repro.metrics.timeseries import BinnedSeries
from repro.transport.flow import Flow, FlowStats
from repro.units import KB, milliseconds

__all__ = ["ReorderingSummary", "reordering_summary", "DupAckTracker"]


@dataclass(frozen=True)
class ReorderingSummary:
    """Aggregate reordering over a set of flows."""

    packets_received: int
    out_of_order: int
    acks_sent: int
    dup_acks: int

    @property
    def out_of_order_ratio(self) -> float:
        if self.packets_received == 0:
            return 0.0
        return self.out_of_order / self.packets_received

    @property
    def dup_ack_ratio(self) -> float:
        if self.acks_sent == 0:
            return 0.0
        return self.dup_acks / self.acks_sent


def reordering_summary(stats: Iterable[FlowStats]) -> ReorderingSummary:
    """Sum reordering counters across flows."""
    pkts = ooo = acks = dups = 0
    for s in stats:
        pkts += s.packets_received
        ooo += s.out_of_order
        acks += s.acks_sent
        dups += s.dup_acks_sent
    return ReorderingSummary(pkts, ooo, acks, dups)


class DupAckTracker:
    """Live binned dup-ACK counts, split short/long by flow size.

    Subscribe via ``registry.subscribe_dupack(tracker.on_dupack)``.
    """

    def __init__(self, bin_width: float = milliseconds(10),
                 short_threshold: int = KB(100), start: float = 0.0):
        self.short_threshold = int(short_threshold)
        self._short = BinnedSeries(bin_width, start)
        self._long = BinnedSeries(bin_width, start)

    def on_dupack(self, flow: Flow, time: float) -> None:
        """Registry dup-ACK callback."""
        series = (self._short if is_short(flow.size, self.short_threshold)
                  else self._long)
        series.add(time, 1.0)

    def short_series(self) -> BinnedSeries:
        return self._short

    def long_series(self) -> BinnedSeries:
        return self._long

    def short_rate(self) -> np.ndarray:
        """Short-flow dup ACKs per second, per bin."""
        return self._short.rates()

    def long_rate(self) -> np.ndarray:
        """Long-flow dup ACKs per second, per bin."""
        return self._long.rates()
