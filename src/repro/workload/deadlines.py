"""Deadline assignment.

The paper gives every *short* flow a deadline drawn uniformly from
[5 ms, 25 ms] (§4.2, citing D²TCP) at 1 Gbps scale, and [2 s, 6 s] at
testbed scale (§7).  Long flows are throughput-oriented and carry no
deadline.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigError
from repro.metrics.fct import is_short
from repro.units import KB, milliseconds

__all__ = ["UniformDeadlines"]


class UniformDeadlines:
    """Uniform [lo, hi] deadlines for flows under ``short_threshold``.

    ``percentile(p)`` returns the analytic p-th percentile of the
    distribution — what a deadline-agnostic TLB configured with "the
    p-th percentile of the statistical deadlines" would use (§6.3).
    """

    def __init__(
        self,
        lo: float = milliseconds(5),
        hi: float = milliseconds(25),
        short_threshold: int = KB(100),
    ):
        if not 0 < lo <= hi:
            raise ConfigError(f"need 0 < lo <= hi, got [{lo}, {hi}]")
        if short_threshold < 1:
            raise ConfigError("short_threshold must be positive")
        self.lo = float(lo)
        self.hi = float(hi)
        self.short_threshold = int(short_threshold)

    def assign(self, rng: np.random.Generator, sizes: np.ndarray) -> list[Optional[float]]:
        """Deadlines for a batch of flow sizes (``None`` for long flows)."""
        sizes = np.asarray(sizes)
        draws = rng.uniform(self.lo, self.hi, size=len(sizes))
        return [
            float(d) if is_short(s, self.short_threshold) else None
            for s, d in zip(sizes, draws)
        ]

    def percentile(self, p: float) -> float:
        """Analytic percentile of the uniform deadline distribution."""
        if not 0 <= p <= 100:
            raise ConfigError(f"percentile must be in [0, 100], got {p}")
        return self.lo + (self.hi - self.lo) * p / 100.0
