"""§6.3 deadline-agnostic TLB — Fig. 12.

When applications expose no deadlines, TLB falls back to a fixed ``D``
chosen as a percentile of the *statistical* deadline distribution.  The
figure sweeps that choice (5th, 25th, 50th, 75th percentile of the
U[5 ms, 25 ms] distribution → 6, 10, 15, 20 ms) over load, on the web
search workload, and shows the 25th percentile is the sweet spot: tight
percentiles protect short flows but strangle long-flow throughput
(TLB-5th); lax ones miss deadlines (TLB-75th).

The switches run with ``use_deadline_info=False`` — they never see the
per-flow deadlines, which exist only to *measure* misses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.experiments.common import ScenarioConfig
from repro.experiments.largescale import default_config as websearch_config
from repro.experiments.report import (
    FCT_PANELS, fct_fields, format_table, panel_tables)
from repro.experiments.runner import run_many
from repro.metrics.collector import RunMetrics
from repro.workload.deadlines import UniformDeadlines

__all__ = ["AgnosticRow", "run_percentile_sweep", "run_figure", "tabulate",
           "main", "DEFAULT_PERCENTILES"]

DEFAULT_PERCENTILES = (5.0, 25.0, 50.0, 75.0)
#: the mechanism pair's assumed deadlines: the 5th and 75th percentiles
BURST_DEADLINES = (0.006, 0.020)


@dataclass(frozen=True)
class AgnosticRow:
    """One (percentile, load) cell of Fig. 12."""

    percentile: float
    assumed_deadline: float
    load: float
    short_afct: float
    short_p99: float
    deadline_miss: float
    long_goodput_bps: float
    #: long-flow path switches across the run — the mechanism the
    #: percentile modulates (laxer deadline => smaller q_th => more)
    long_reroutes: int = 0


def _agnostic(config: ScenarioConfig, deadline: float,
              **overrides) -> ScenarioConfig:
    """TLB assuming ``deadline`` for every flow, blind to the real ones."""
    return config.with_(
        scheme="tlb",
        scheme_params={"use_deadline_info": False,
                       "default_deadline": deadline},
        **overrides)


def run_percentile_sweep(
    config: ScenarioConfig,
    *,
    percentiles: Sequence[float] = DEFAULT_PERCENTILES,
    loads: Sequence[float],
    processes: Optional[int] = None,
    cache=None,
) -> list[AgnosticRow]:
    """Run TLB-p for each percentile and load (web-search workload)."""
    dist = UniformDeadlines(config.deadline_lo, config.deadline_hi)
    grid = [(p, dist.percentile(p), load)
            for p in percentiles for load in loads]
    configs = [_agnostic(config, d, load=load) for _, d, load in grid]
    metrics = run_many(configs, processes=processes, cache=cache)
    return [
        AgnosticRow(
            percentile=p,
            assumed_deadline=d,
            load=load,
            **fct_fields(m),
            long_reroutes=int(m.extras.get("long_reroutes", 0)),
        )
        for (p, d, load), m in zip(grid, metrics)
    ]


def run_figure(cache=None) -> tuple[list[AgnosticRow], dict[float, RunMetrics]]:
    """Fig. 12 as EXPERIMENTS.md quotes it, in two parts.

    1. the percentile sweep on a 2 leaves × 4 paths × 16 hosts
       web-search fabric at loads 0.4/0.8;
    2. the mechanism at microbenchmark scale (15 paths, a 150-flow
       burst beside 4 long flows): TLB assuming each of
       :data:`BURST_DEADLINES`, keyed by that deadline.  A laxer
       assumed deadline computes a smaller ``q_th`` and so reroutes
       long flows more — the causal chain behind the figure.
    """
    rows = run_percentile_sweep(
        websearch_config("web_search", n_paths=4, hosts_per_leaf=16,
                         n_flows=100, horizon=4.0),
        loads=(0.4, 0.8), cache=cache)
    burst = ScenarioConfig(
        n_paths=15, hosts_per_leaf=160, n_short=150, n_long=4,
        long_size=4_000_000, short_window=0.004, horizon=1.5,
        distinct_hosts=True)
    pair = run_many([_agnostic(burst, d) for d in BURST_DEADLINES],
                    cache=cache)
    return rows, dict(zip(BURST_DEADLINES, pair))


def tabulate(rows: Sequence[AgnosticRow],
             burst: Optional[dict[float, RunMetrics]] = None) -> str:
    """Render the four Fig. 12 panels, then the burst mechanism pair."""
    # Fig. 12 titles its (b) panel without "of short flows"
    a, (_, p99), c, d = FCT_PANELS
    text = panel_tables(
        rows, x=lambda r: r.load, series=lambda r: r.percentile,
        series_header=lambda p: f"TLB-{int(p)}th", x_header="load",
        panels=(a, ("(b) 99th percentile FCT (ms)", p99), c, d),
        title="Fig. 12")
    if not burst:
        return text
    return text + "\n\n" + format_table(
        ["assumed_deadline_ms", "long_reroutes", "missed_deadlines_%",
         "short_afct_ms"],
        [[d * 1e3, m.extras["long_reroutes"], m.deadline_miss * 100,
          m.short_fct.mean * 1e3] for d, m in burst.items()],
        title="Fig. 12 mechanism — burst microbenchmark, long-flow reroutes")


def main(cache=None) -> str:
    """Run the Fig. 12 sweep and mechanism pair and render them."""
    return tabulate(*run_figure(cache=cache))


if __name__ == "__main__":  # pragma: no cover
    print(main())
