"""Throughput metrics (Figs. 4c, 9b, 10d, 11d, 12d, 13b, 14b).

Two views:

* **per-flow goodput** — delivered application bits over flow lifetime,
  averaged over the long flows (the paper's "throughput of long flows");
* **instantaneous throughput** — delivered bytes per time bin, tracked
  live by :class:`ThroughputTracker` via registry delivery events
  (Fig. 9b's time series).
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.metrics.fct import is_short
from repro.metrics.timeseries import BinnedSeries
from repro.transport.flow import Flow, FlowStats
from repro.units import KB, milliseconds

__all__ = ["ThroughputTracker", "long_flow_goodputs", "mean_long_goodput"]


class ThroughputTracker:
    """Live binned delivery-rate series, split short/long by flow size.

    Subscribe it to a registry before the run::

        tracker = ThroughputTracker(bin_width=0.01)
        registry.subscribe_delivery(tracker.on_delivery)

    ``long_series().rates() * 8`` is then bits/s per bin.
    """

    def __init__(self, bin_width: float = milliseconds(10),
                 short_threshold: int = KB(100), start: float = 0.0):
        self.short_threshold = int(short_threshold)
        self._short = BinnedSeries(bin_width, start)
        self._long = BinnedSeries(bin_width, start)

    def on_delivery(self, flow: Flow, time: float, nbytes: int) -> None:
        """Registry delivery callback."""
        series = (self._short if is_short(flow.size, self.short_threshold)
                  else self._long)
        series.add(time, nbytes)

    def short_series(self) -> BinnedSeries:
        """Delivered short-flow bytes per bin."""
        return self._short

    def long_series(self) -> BinnedSeries:
        """Delivered long-flow bytes per bin."""
        return self._long

    def long_rate_bps(self) -> np.ndarray:
        """Instantaneous long-flow delivery rate per bin (bits/s)."""
        return self._long.rates() * 8.0


def long_flow_goodputs(
    stats: Iterable[FlowStats], short_threshold: int = KB(100),
    horizon: Optional[float] = None,
) -> np.ndarray:
    """Per-flow goodputs (bits/s) of the long flows.

    Completed flows use their exact FCT.  Unfinished flows, if a
    ``horizon`` is given, contribute their delivered bytes over the time
    they were active — otherwise they are skipped.
    """
    out: list[float] = []
    for s in stats:
        if is_short(s.flow.size, short_threshold):
            continue
        if s.goodput is not None:
            out.append(s.goodput)
        elif horizon is not None and s.bytes_delivered > 0:
            active = horizon - s.flow.start_time
            if active > 0:
                out.append(s.bytes_delivered * 8.0 / active)
    return np.asarray(out, dtype=float)


def mean_long_goodput(
    stats: Iterable[FlowStats], short_threshold: int = KB(100),
    horizon: Optional[float] = None,
) -> float:
    """Average long-flow goodput in bits/s (NaN if no long flows)."""
    g = long_flow_goodputs(stats, short_threshold, horizon)
    return float(g.mean()) if g.size else float("nan")
