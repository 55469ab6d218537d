"""§6.1 basic performance — Figs. 8 and 9.

Time-series comparison of TLB against the baselines on the §4.2
microbenchmark:

* Fig. 8 (short flows): (a) real-time reordering (dup-ACK rate),
  (b) average queueing delay at the sender-leaf uplinks;
* Fig. 9 (long flows): (a) reordering, (b) instantaneous throughput.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.experiments.common import ScenarioConfig, run_scenario
from repro.experiments.report import format_table
from repro.metrics.queueing import queue_wait_series

__all__ = ["BasicSeries", "run_basic", "default_config", "run_figure",
           "tabulate", "main"]

DEFAULT_SCHEMES = ("ecmp", "rps", "presto", "letflow", "tlb")


@dataclass
class BasicSeries:
    """Per-scheme time series + scalar summaries for Figs. 8–9."""

    scheme: str
    times: np.ndarray = field(repr=False)
    short_dupack_rate: np.ndarray = field(repr=False)   # Fig. 8a
    short_queue_wait: np.ndarray = field(repr=False)    # Fig. 8b (s)
    long_dupack_rate: np.ndarray = field(repr=False)    # Fig. 9a
    long_throughput_bps: np.ndarray = field(repr=False)  # Fig. 9b
    short_afct: float = 0.0
    long_goodput_bps: float = 0.0
    short_dup_ratio: float = 0.0
    long_dup_ratio: float = 0.0
    mean_short_wait: float = 0.0


def default_config(**overrides) -> ScenarioConfig:
    """§6.1 = §4.2 settings with time-series collection enabled."""
    base = dict(
        n_paths=15,
        hosts_per_leaf=110,
        n_short=100,
        n_long=3,
        short_window=0.02,
        buffer_packets=512,
        horizon=1.0,
        timeseries=True,
        trace_kinds=("dequeue",),
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def run_basic(
    config: ScenarioConfig,
    schemes: Sequence[str] = DEFAULT_SCHEMES,
) -> list[BasicSeries]:
    """Run each scheme on the same workload and extract the four series.

    All series share the config's ``bin_width`` so they align bin-for-bin.
    """
    out: list[BasicSeries] = []
    for scheme in schemes:
        res = run_scenario(config.with_(scheme=scheme))
        m = res.metrics
        dupacks = res.collector.dupacks
        thr = res.collector.throughput
        waits = queue_wait_series(
            res.tracer, res.registry, bin_width=config.bin_width, short=True,
            short_threshold=config.short_threshold,
            port_prefix=f"{res.net.leaves[0].name}->",
        )
        n_bins = max(len(dupacks.short_series()), len(thr.long_series()),
                     len(waits), 1)

        def _pad(arr: np.ndarray) -> np.ndarray:
            if arr.size >= n_bins:
                return arr[:n_bins]
            return np.pad(arr, (0, n_bins - arr.size))

        wait_means = waits.means()
        out.append(BasicSeries(
            scheme=scheme,
            times=(np.arange(n_bins) + 0.5) * dupacks.short_series().bin_width,
            short_dupack_rate=_pad(dupacks.short_rate()),
            short_queue_wait=_pad(np.nan_to_num(wait_means)),
            long_dupack_rate=_pad(dupacks.long_rate()),
            long_throughput_bps=_pad(thr.long_rate_bps()),
            short_afct=m.short_fct.mean,
            long_goodput_bps=m.long_goodput_bps,
            short_dup_ratio=m.short_reordering.dup_ack_ratio,
            long_dup_ratio=m.long_reordering.dup_ack_ratio,
            mean_short_wait=float(np.nanmean(wait_means)) if len(waits) else 0.0,
        ))
    return out


def run_figure() -> list[BasicSeries]:
    """Figs. 8–9 as EXPERIMENTS.md quotes them: 8 paths, 50 short + 3
    long flows on distinct hosts (one campaign feeds both figures)."""
    return run_basic(default_config(
        n_paths=8, hosts_per_leaf=60, n_short=50, n_long=3,
        long_size=2_000_000, short_window=0.015, horizon=1.0,
        bin_width=0.005, distinct_hosts=True))


def tabulate(series: Sequence[BasicSeries]) -> str:
    """Render the Fig. 8 and Fig. 9 summary tables."""
    t8 = format_table(
        ["scheme", "short_dup_ratio", "mean_queue_wait_us", "short_afct_ms"],
        [[s.scheme, s.short_dup_ratio, s.mean_short_wait * 1e6,
          s.short_afct * 1e3] for s in series],
        title="Fig. 8 — short flows: reordering (a) and queueing delay (b)",
    )
    t9 = format_table(
        ["scheme", "long_dup_ratio", "long_goodput_Mbps", "peak_inst_Mbps"],
        [[s.scheme, s.long_dup_ratio, s.long_goodput_bps / 1e6,
          float(s.long_throughput_bps.max()) / 1e6 if s.long_throughput_bps.size
          else 0.0] for s in series],
        title="Fig. 9 — long flows: reordering (a) and instantaneous throughput (b)",
    )
    return t8 + "\n\n" + t9


def main() -> str:
    """Run and render the Fig. 8/9 summary tables."""
    return tabulate(run_figure())


if __name__ == "__main__":  # pragma: no cover
    print(main())
