"""Beyond the paper: scheme × workload-scenario grid (``repro figure
workloads``).

The paper's large-scale evaluation (§6.2) fixes the traffic shape and
sweeps load; this driver fixes a moderate load and sweeps the *shape* —
every column is one :mod:`repro.workload.scenarios` spec (Zipf host
popularity, incast fan-in, diurnal curve, hotspot migration, tenant
mixes, empirical CDF files...) and every row one scheme.  Four panels
mirror Figs. 10/11: short-flow AFCT, short-flow p99 FCT, deadline miss
ratio, long-flow goodput.

Workload specs are first-class cache axes, so a swept grid re-runs from
the result cache in milliseconds and a CSV export is byte-identical
across seeded re-runs (the workload-smoke CI job holds this line).
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
    "DEFAULT_WORKLOADS",
    "DEFAULT_SCHEMES",
    "WorkloadRow",
    "workloads_config",
    "workload_grid",
    "run_workload_grid",
    "workload_row",
    "tabulate",
    "main",
]

DEFAULT_SCHEMES = ("ecmp", "rps", "tlb")
DEFAULT_WORKLOADS = (
    "websearch",
    "zipf:s=1.2",
    "incast:fanin=16,period=10ms",
    "hotspot:leaves=1,dwell=200ms",
)


@dataclass(frozen=True)
class WorkloadRow:
    """One (scheme, workload-spec) cell of the grid."""

    scheme: str
    workload: str
    short_afct: float
    short_p99: float
    deadline_miss: float
    long_goodput_bps: float
    completed_all: bool


def workloads_config(**overrides) -> ScenarioConfig:
    """Reduced-scale fabric for the scenario grid.

    Four leaves give popularity skew and hotspot rotation room to bite;
    16 hosts per leaf leaves 48 cross-leaf hosts, enough for the
    ``incast:fanin=40`` acceptance shape.  The workload field is set per
    grid cell.
    """
    base = dict(
        workload="websearch",
        n_leaves=4,
        n_paths=4,
        hosts_per_leaf=16,
        load=0.4,
        n_flows=120,
        truncate_tail=MB(3),
        horizon=3.0,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def workload_grid(config: ScenarioConfig, schemes: Sequence[str],
                  workloads: Sequence[str]) -> list[ScenarioConfig]:
    """The (scheme × workload-spec) cells, scheme-major; each cell's
    labels are its config's ``scheme`` and ``workload``."""
    return [config.with_(scheme=s, workload=w)
            for s in schemes for w in workloads]


def run_workload_grid(
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    *,
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    config: Optional[ScenarioConfig] = None,
    processes: Optional[int] = None,
    progress: bool = False,
    cache=None,
) -> list[WorkloadRow]:
    """The (scheme × workload) grid through the shared sweep executor."""
    configs = workload_grid(
        config if config is not None else workloads_config(),
        schemes, workloads)
    metrics = run_many(configs, processes=processes, progress=progress,
                       label="workloads", cache=cache)
    return [workload_row(c.scheme, c.workload, m)
            for c, m in zip(configs, metrics)]


def workload_row(scheme: str, workload: str, m: RunMetrics) -> WorkloadRow:
    """Fold one run's metrics into its grid cell."""
    return WorkloadRow(
        scheme=scheme, workload=workload, **fct_fields(m),
        completed_all=bool(m.extras.get("completed_all", False)))


def tabulate(rows: Sequence[WorkloadRow]) -> str:
    """Render the four panels (one row per workload spec)."""
    return panel_tables(
        rows, x=lambda r: r.workload, series=lambda r: r.scheme,
        panels=FCT_PANELS, x_header="workload", sort_x=False,
        title="Workload scenarios")


def main(
    workloads: Optional[Sequence[str]] = None,
    *,
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    config: Optional[ScenarioConfig] = None,
    cache=None,
    csv: Optional[str] = None,
) -> str:
    """Run the grid and render all four panels (optionally CSV out)."""
    specs = tuple(workloads) if workloads else DEFAULT_WORKLOADS
    configs = workload_grid(
        config if config is not None else workloads_config(), schemes, specs)
    metrics = run_many(configs, label="workloads", cache=cache)
    if csv:
        from repro.metrics.export import write_metrics_csv
        from repro.obs import build_manifest

        extra = {"workloads": {"schemes": list(schemes),
                               "workloads": list(specs)}}
        if cache is not None:
            extra["cache"] = cache.session_summary()
        manifest = build_manifest(configs[0], counters=None, extra=extra)
        write_metrics_csv(
            csv, list(metrics),
            extra_columns=[{"workload": c.workload, "swept_scheme": c.scheme}
                           for c in configs],
            manifest=manifest)
    return tabulate([workload_row(c.scheme, c.workload, m)
                     for c, m in zip(configs, metrics)])


if __name__ == "__main__":  # pragma: no cover
    import sys

    print(main(sys.argv[1:] or None))
