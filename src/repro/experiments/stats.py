"""Multi-seed replication: means and confidence intervals.

Single-seed comparisons can mislead — a lucky hash layout flatters
ECMP, an unlucky burst penalises LetFlow.  This module replicates a
scenario across seeds and reports per-metric means with Student-t
confidence intervals, plus a paired comparison helper (same seeds, two
schemes) whose interval is over the per-seed differences — much tighter
than comparing two independent means, because the workload is identical
per seed by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.experiments.common import ScenarioConfig
from repro.experiments.runner import run_many
from repro.metrics.collector import RunMetrics

__all__ = ["MetricCI", "replicate", "paired_comparison", "DEFAULT_METRICS"]

#: metric name -> extractor over RunMetrics
DEFAULT_METRICS: dict[str, Callable[[RunMetrics], float]] = {
    "short_afct": lambda m: m.short_fct.mean,
    "short_p99": lambda m: m.short_fct.p99,
    "deadline_miss": lambda m: m.deadline_miss,
    "long_goodput_bps": lambda m: m.long_goodput_bps,
    "short_dup_ratio": lambda m: m.short_reordering.dup_ack_ratio,
}


@dataclass(frozen=True)
class MetricCI:
    """Mean with a two-sided Student-t confidence interval."""

    name: str
    n: int
    mean: float
    ci_low: float
    ci_high: float

    @property
    def half_width(self) -> float:
        return (self.ci_high - self.ci_low) / 2.0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}: {self.mean:.6g} ± {self.half_width:.2g} (n={self.n})"


def _ci(name: str, samples: np.ndarray, confidence: float) -> MetricCI:
    samples = samples[np.isfinite(samples)]
    n = samples.size
    if n == 0:
        nan = float("nan")
        return MetricCI(name, 0, nan, nan, nan)
    mean = float(samples.mean())
    if n == 1:
        return MetricCI(name, 1, mean, mean, mean)
    # scipy costs ~0.65 s and ~60 MB to import and this is its only use,
    # so runs, pool workers and fleet workers that never build a CI skip it.
    from scipy import stats as sps

    sem = float(samples.std(ddof=1)) / np.sqrt(n)
    t = float(sps.t.ppf((1 + confidence) / 2.0, df=n - 1))
    return MetricCI(name, n, mean, mean - t * sem, mean + t * sem)


def replicate(
    config: ScenarioConfig,
    seeds: Sequence[int],
    *,
    metrics: Optional[dict[str, Callable[[RunMetrics], float]]] = None,
    confidence: float = 0.95,
    processes: Optional[int] = None,
    cache=None,
) -> dict[str, MetricCI]:
    """Run ``config`` once per seed; CI per metric."""
    if not seeds:
        raise ConfigError("need at least one seed")
    if not 0 < confidence < 1:
        raise ConfigError("confidence must be in (0, 1)")
    metrics = metrics if metrics is not None else DEFAULT_METRICS
    runs = run_many([config.with_(seed=s) for s in seeds],
                    processes=processes, cache=cache)
    out: dict[str, MetricCI] = {}
    for name, extract in metrics.items():
        samples = np.asarray([extract(m) for m in runs], dtype=float)
        out[name] = _ci(name, samples, confidence)
    return out


def paired_comparison(
    config: ScenarioConfig,
    scheme_a: str,
    scheme_b: str,
    seeds: Sequence[int],
    *,
    metric: Callable[[RunMetrics], float] = DEFAULT_METRICS["short_afct"],
    confidence: float = 0.95,
    processes: Optional[int] = None,
    cache=None,
) -> MetricCI:
    """CI on the per-seed difference ``metric(A) − metric(B)``.

    Negative means scheme A is smaller (better, for FCT-like metrics).
    The pairing works because same-seed runs share the exact workload.
    """
    if not seeds:
        raise ConfigError("need at least one seed")
    configs = []
    for s in seeds:
        configs.append(config.with_(scheme=scheme_a, seed=s))
        configs.append(config.with_(scheme=scheme_b, seed=s))
    runs = run_many(configs, processes=processes, cache=cache)
    diffs = np.asarray([
        metric(runs[2 * i]) - metric(runs[2 * i + 1])
        for i in range(len(seeds))
    ], dtype=float)
    return _ci(f"{scheme_a}-minus-{scheme_b}", diffs, confidence)
