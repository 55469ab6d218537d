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
from repro.experiments.report import FCT_PANELS, fct_fields, panel_tables
from repro.experiments.runner import run_many
from repro.workload.deadlines import UniformDeadlines

__all__ = ["AgnosticRow", "run_percentile_sweep", "main", "DEFAULT_PERCENTILES"]

DEFAULT_PERCENTILES = (5.0, 25.0, 50.0, 75.0)
DEFAULT_LOADS = (0.2, 0.4, 0.6, 0.8)


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


def run_percentile_sweep(
    config: Optional[ScenarioConfig] = None,
    *,
    percentiles: Sequence[float] = DEFAULT_PERCENTILES,
    loads: Sequence[float] = DEFAULT_LOADS,
    processes: Optional[int] = None,
    cache=None,
) -> list[AgnosticRow]:
    """Run TLB-p for each percentile and load (web-search workload)."""
    base = config if config is not None else websearch_config("web_search")
    dist = UniformDeadlines(base.deadline_lo, base.deadline_hi)
    grid: list[tuple[float, float, float]] = []
    configs: list[ScenarioConfig] = []
    for p in percentiles:
        d = dist.percentile(p)
        for load in loads:
            grid.append((p, d, load))
            configs.append(base.with_(
                scheme="tlb",
                scheme_params={
                    "use_deadline_info": False,
                    "default_deadline": d,
                },
                load=load,
            ))
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


def tabulate(rows: Sequence[AgnosticRow]) -> str:
    """Render the four Fig. 12 panels."""
    # Fig. 12 titles its (b) panel without "of short flows"
    a, (_, p99), c, d = FCT_PANELS
    return panel_tables(
        rows, x=lambda r: r.load, series=lambda r: r.percentile,
        series_header=lambda p: f"TLB-{int(p)}th", x_header="load",
        panels=(a, ("(b) 99th percentile FCT (ms)", p99), c, d),
        title="Fig. 12")


def main(config: Optional[ScenarioConfig] = None, cache=None) -> str:
    """Run the Fig. 12 sweep and render it."""
    return tabulate(run_percentile_sweep(config, cache=cache))


if __name__ == "__main__":  # pragma: no cover
    print(main())
