"""Load-strength estimation (paper Fig. 6, "load strength estimation").

Three small estimators feed the granularity calculator:

* :class:`EmaEstimator` — exponential moving average; used for the mean
  short-flow size ``X`` (sampled when short flows end) so the model does
  not need a priori size knowledge;
* :class:`DeadlineStats` — a sliding window of deadline observations
  (carried on SYNs) from which the configured percentile produces the
  model's ``D`` (§6.3: 25th percentile); when applications expose no
  deadlines, a configured default stands in (the "working in dark" mode);
* :class:`LoadEstimator` — per-interval short-flow arrival-rate
  accounting (bytes/packets per update interval), the raw "load strength
  of short flows" signal (diagnostics and the Fig. 8/9 narrative).
"""

from __future__ import annotations

from collections import deque
from typing import Optional

import numpy as np

from repro.errors import ConfigError

__all__ = ["EmaEstimator", "DeadlineStats", "LoadEstimator"]


class EmaEstimator:
    """Exponential moving average with a configurable default."""

    __slots__ = ("gain", "default", "_value", "samples")

    def __init__(self, gain: float, default: float):
        if not 0 < gain <= 1:
            raise ConfigError(f"EMA gain must be in (0, 1], got {gain!r}")
        self.gain = gain
        self.default = float(default)
        self._value: Optional[float] = None
        self.samples = 0

    @property
    def value(self) -> float:
        """Current estimate (the default until the first sample)."""
        return self.default if self._value is None else self._value

    def update(self, sample: float) -> float:
        """Fold one observation in; returns the new estimate."""
        if self._value is None:
            self._value = float(sample)
        else:
            self._value += self.gain * (sample - self._value)
        self.samples += 1
        return self._value

    def reset(self) -> None:
        """Forget all samples."""
        self._value = None
        self.samples = 0


class DeadlineStats:
    """Percentile of observed flow deadlines: a sliding window with a
    lazy exact sort — exact within the window, recomputed at the 500 µs
    calculator tick.
    """

    __slots__ = ("percentile", "default", "_window", "_dirty", "_cached",
                 "_count")

    def __init__(self, percentile: float, default: float, window: int = 512):
        if not 0 < percentile < 100:
            raise ConfigError(f"percentile must be in (0, 100), got {percentile!r}")
        if default <= 0:
            raise ConfigError("default deadline must be positive")
        if window < 1:
            raise ConfigError("window must be >= 1")
        self.percentile = percentile
        self.default = float(default)
        self._window: deque[float] = deque(maxlen=window)
        self._dirty = False
        self._cached = self.default
        self._count = 0

    def observe(self, deadline: float) -> None:
        """Record one (relative) deadline, in seconds."""
        if deadline <= 0:
            raise ConfigError(f"deadline must be positive, got {deadline!r}")
        self._count += 1
        self._window.append(deadline)
        self._dirty = True

    @property
    def n_observations(self) -> int:
        return self._count

    def value(self) -> float:
        """The configured percentile (the default until the first
        observation).

        Recomputed lazily — the forwarding hot path only appends; the
        500 µs calculator tick pays for the sort.
        """
        if self._dirty:
            self._cached = float(np.percentile(np.fromiter(self._window, dtype=float),
                                               self.percentile))
            self._dirty = False
        return self._cached if self._window else self.default


class LoadEstimator:
    """Per-interval short-flow arrival accounting.

    ``roll()`` is called by the calculator tick; it returns the bytes of
    short-flow traffic that arrived since the previous tick and resets
    the accumulators.  ``rate_bps`` exposes the resulting arrival-rate
    estimate for the last completed interval.
    """

    __slots__ = ("interval", "_bytes", "_packets", "last_bytes", "last_packets")

    def __init__(self, interval: float):
        if interval <= 0:
            raise ConfigError("interval must be positive")
        self.interval = float(interval)
        self._bytes = 0
        self._packets = 0
        self.last_bytes = 0
        self.last_packets = 0

    def account(self, size: int) -> None:
        """Record one short-flow packet of ``size`` bytes."""
        self._bytes += size
        self._packets += 1

    def roll(self) -> int:
        """Close the current interval; returns its byte count."""
        self.last_bytes = self._bytes
        self.last_packets = self._packets
        self._bytes = 0
        self._packets = 0
        return self.last_bytes

    @property
    def rate_bps(self) -> float:
        """Short-flow arrival rate over the last completed interval."""
        return self.last_bytes * 8.0 / self.interval
