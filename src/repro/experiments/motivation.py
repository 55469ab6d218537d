"""§2.2 motivation study — Figs. 3 and 4.

One fixed rerouting granularity for *all* flows (flow-level, flowlet-
level, packet-level), measured on the §2.2 microbenchmark:

* Fig. 3 (short flows): (a) CDF of the queue length each short-flow
  packet finds at the sender-leaf uplinks, (b) duplicate-ACK ratio,
  (c) FCT CDF;
* Fig. 4 (long flows): (a) uplink utilisation, (b) out-of-order ratio,
  (c) mean long-flow throughput.

The paper's observations this should reproduce: queue lengths and tail
FCT grow with granularity (flow worst), reordering grows as granularity
shrinks (packet worst), and long flows never exceed a fraction of
capacity under any *fixed* granularity — the dilemma TLB resolves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from repro.experiments.common import ScenarioConfig, run_scenario
from repro.experiments.report import format_table
from repro.metrics.queueing import queue_length_samples
from repro.metrics.fct import fct_cdf, split_by_size
from repro.units import microseconds

__all__ = ["GRANULARITIES", "MotivationRow", "run_motivation", "run_figure",
           "tabulate", "main"]

#: The three §2 granularities, expressed as scheme configurations.
GRANULARITIES: dict[str, tuple[str, dict]] = {
    "flow": ("fixed", {"granularity_bytes": None}),
    "flowlet": ("letflow", {"flowlet_timeout": microseconds(150)}),
    "packet": ("rps", {}),
}


@dataclass
class MotivationRow:
    """Everything Figs. 3–4 plot for one granularity."""

    granularity: str
    # Fig. 3a
    qlen_p50: float
    qlen_p90: float
    qlen_p99: float
    qlen_cdf: tuple[np.ndarray, np.ndarray] = field(repr=False)
    # Fig. 3b
    short_dup_ack_ratio: float = 0.0
    # Fig. 3c
    short_afct: float = 0.0
    short_fct_p99: float = 0.0
    short_fct_cdf: tuple[np.ndarray, np.ndarray] = field(default=None, repr=False)
    # Fig. 4a
    util_mean: float = 0.0
    util_min: float = 0.0
    util_max: float = 0.0
    # Fig. 4b
    long_ooo_ratio: float = 0.0
    # Fig. 4c
    long_goodput_bps: float = 0.0


def default_config(**overrides) -> ScenarioConfig:
    """The §2.2 scenario: 15 paths, 100 short + 5 long flows, 1 Gbps."""
    base = dict(
        n_paths=15,
        hosts_per_leaf=110,
        n_short=100,
        n_long=5,
        short_window=0.01,
        buffer_packets=256,
        horizon=1.0,
        trace_kinds=("enqueue",),
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def run_motivation(config: ScenarioConfig) -> list[MotivationRow]:
    """Run the granularity family; one row per granularity."""
    rows: list[MotivationRow] = []
    for label, (scheme, params) in GRANULARITIES.items():
        res = run_scenario(config.with_(scheme=scheme, scheme_params=dict(params)))
        stats = res.registry.all_stats()
        short, long_ = split_by_size(stats, config.short_threshold)
        qlens = queue_length_samples(
            res.tracer, res.registry, short=True,
            short_threshold=config.short_threshold,
            port_prefix=f"{res.net.leaves[0].name}->",
        )
        if qlens.size:
            p50, p90, p99 = np.percentile(qlens, [50, 90, 99])
            qcdf = (np.sort(qlens).astype(float),
                    np.arange(1, qlens.size + 1) / qlens.size)
        else:
            p50 = p90 = p99 = float("nan")
            qcdf = (np.array([]), np.array([]))
        m = res.metrics
        rows.append(MotivationRow(
            granularity=label,
            qlen_p50=float(p50), qlen_p90=float(p90), qlen_p99=float(p99),
            qlen_cdf=qcdf,
            short_dup_ack_ratio=m.short_reordering.dup_ack_ratio,
            short_afct=m.short_fct.mean,
            short_fct_p99=m.short_fct.p99,
            short_fct_cdf=fct_cdf(short),
            util_mean=m.uplink_spread["mean_utilization"],
            util_min=m.uplink_spread["min_utilization"],
            util_max=m.uplink_spread["max_utilization"],
            long_ooo_ratio=m.long_reordering.out_of_order_ratio,
            long_goodput_bps=m.long_goodput_bps,
        ))
    return rows


def run_figure() -> list[MotivationRow]:
    """Figs. 3–4 as EXPERIMENTS.md quotes them: 8 paths, 50 short + 4
    long flows (one campaign feeds both figures)."""
    return run_motivation(default_config(
        n_paths=8, hosts_per_leaf=60, n_short=50, n_long=4,
        long_size=2_000_000, short_window=0.01, horizon=1.0))


def tabulate(rows: list[MotivationRow]) -> str:
    """Render the Fig. 3 and Fig. 4 tables."""
    t3 = format_table(
        ["granularity", "qlen_p50", "qlen_p90", "qlen_p99",
         "dup_ack_ratio", "afct_ms", "fct_p99_ms"],
        [[r.granularity, r.qlen_p50, r.qlen_p90, r.qlen_p99,
          r.short_dup_ack_ratio, r.short_afct * 1e3, r.short_fct_p99 * 1e3]
         for r in rows],
        title="Fig. 3 — impact of switching granularity on short flows",
    )
    t4 = format_table(
        ["granularity", "util_mean", "util_min", "util_max",
         "long_ooo_ratio", "long_goodput_Mbps"],
        [[r.granularity, r.util_mean, r.util_min, r.util_max,
          r.long_ooo_ratio, r.long_goodput_bps / 1e6]
         for r in rows],
        title="Fig. 4 — impact of switching granularity on long flows",
    )
    return t3 + "\n\n" + t4


def main() -> str:
    """Run and render the Fig. 3/4 tables."""
    return tabulate(run_figure())


if __name__ == "__main__":  # pragma: no cover
    print(main())
