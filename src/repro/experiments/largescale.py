"""§6.2 large-scale tests — Figs. 10 (web search) and 11 (data mining).

Load sweep from 0.1 to 0.8 on a multi-leaf fabric with Poisson arrivals
between random host pairs.  Four panels per workload:

(a) short-flow AFCT, (b) short-flow 99th-percentile FCT,
(c) deadline miss ratio, (d) long-flow throughput —
each as a function of load, for ECMP/RPS/Presto/LetFlow/TLB.

Scale: the paper uses 8 leaves × 8 spines × 256 hosts at 1 Gbps.  The
default here (``repro sweep``'s base) is a reduced fabric (2 leaves ×
8 spines × 32 hosts per leaf) and a bounded flow count so a full sweep
stays in CPU-minutes; the figures run a smaller one still
(:func:`run_figure`), and ``paper_scale_config()`` returns the
full-size configuration.  The reproduction target is the
*shape*: TLB's advantage growing with load, LetFlow better at high load
than low, ECMP worst throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.experiments.common import ScenarioConfig
from repro.experiments.report import FCT_PANELS, fct_fields, panel_tables
from repro.experiments.runner import run_many
from repro.metrics.collector import RunMetrics
from repro.units import MB

__all__ = [
    "LoadSweepRow",
    "default_config",
    "paper_scale_config",
    "load_grid",
    "run_load_sweep",
    "run_figure",
    "sweep_row",
    "main",
]

DEFAULT_SCHEMES = ("ecmp", "rps", "presto", "letflow", "tlb")


@dataclass(frozen=True)
class LoadSweepRow:
    """One (scheme, load) cell of Figs. 10/11."""

    scheme: str
    load: float
    short_afct: float
    short_p99: float
    deadline_miss: float
    long_goodput_bps: float
    completed_all: bool


def default_config(workload: str = "web_search", **overrides) -> ScenarioConfig:
    """Reduced-scale §6.2 configuration.

    The tail of both distributions is truncated (web search at 3 MB,
    data mining at 10 MB) so single flows do not dominate the runtime;
    the short-flow body — which the FCT panels measure — is untouched.
    """
    base = dict(
        workload="poisson",
        sizes=workload,
        n_leaves=2,
        n_paths=8,
        hosts_per_leaf=32,  # 4:1 oversubscription, as in the paper's fabric
        n_flows=200,
        truncate_tail=MB(3) if workload == "web_search" else MB(10),
        horizon=3.0,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def paper_scale_config(workload: str = "web_search", **overrides) -> ScenarioConfig:
    """The paper's full §6.2 fabric: 8 leaves, 8 spines, 256 hosts."""
    base = dict(
        workload="poisson",
        sizes=workload,
        n_leaves=8,
        n_paths=8,
        hosts_per_leaf=32,
        n_flows=2000,
        truncate_tail=None,
        horizon=10.0,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def load_grid(config: ScenarioConfig, schemes: Sequence[str],
              loads: Sequence[float]) -> list[ScenarioConfig]:
    """The (scheme × load) cells, scheme-major.  This list *is* the
    plan: every cell's labels are its config's ``scheme`` and ``load``,
    so the grid can be re-labelled from the configs alone (which is all
    ``repro fleet resume`` has)."""
    return [config.with_(scheme=s, load=l) for s in schemes for l in loads]


def run_load_sweep(
    config: ScenarioConfig,
    *,
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    loads: Sequence[float],
    processes: Optional[int] = None,
    cache=None,
) -> list[LoadSweepRow]:
    """The full (scheme × load) grid, parallelised across processes.

    ``cache`` (a :class:`~repro.cache.ResultCache`) makes re-runs of an
    unchanged grid resolve from disk instead of re-simulating.
    """
    configs = load_grid(config, schemes, loads)
    metrics = run_many(configs, processes=processes, label="load_sweep",
                       cache=cache)
    return [sweep_row(c.scheme, c.load, m) for c, m in zip(configs, metrics)]


def sweep_row(scheme: str, load: float, m: RunMetrics) -> LoadSweepRow:
    """Fold one run's metrics into its (scheme, load) sweep cell."""
    return LoadSweepRow(
        scheme=scheme, load=load, **fct_fields(m),
        completed_all=bool(m.extras.get("completed_all", False)))


def tabulate(rows: Sequence[LoadSweepRow], workload: str) -> str:
    """Render the four panels as text tables (one row per load)."""
    return panel_tables(
        rows, x=lambda r: r.load, series=lambda r: r.scheme,
        panels=FCT_PANELS, x_header="load",
        title=f"Fig. {'10' if workload == 'web_search' else '11'}")


def run_figure(workload: str, cache=None) -> list[LoadSweepRow]:
    """Fig. 10 (``"web_search"``) or 11 (``"data_mining"``) as
    EXPERIMENTS.md quotes it: 2 leaves × 4 paths × 16 hosts, loads
    0.2/0.5/0.8."""
    flows, horizon = (120, 4.0) if workload == "web_search" else (150, 5.0)
    config = default_config(workload, n_paths=4, hosts_per_leaf=16,
                            n_flows=flows, horizon=horizon)
    return run_load_sweep(config, loads=(0.2, 0.5, 0.8), cache=cache)


def main(workload: str = "web_search", cache=None) -> str:
    """Run the sweep and render all four panels."""
    return tabulate(run_figure(workload, cache=cache), workload)


if __name__ == "__main__":  # pragma: no cover
    import sys

    print(main(sys.argv[1] if len(sys.argv) > 1 else "web_search"))
