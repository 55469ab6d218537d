"""§7 testbed-scale experiments — Figs. 13 and 14.

The paper's Mininet/P4/BMv2 testbed runs 10 equal-cost paths at 20 Mbps
with 1 ms per-link delay, 100 short flows (<100 KB) + 4 long flows
(>5 MB), deadlines U[2 s, 6 s], and a 15 ms update interval / flowlet
timeout.  We run the same parameters on the simulator (the substitution
recorded in DESIGN.md) and report, as the paper does, results
*normalised to TLB*:

* Fig. 13 — varying the number of short flows: (a) normalised AFCT of
  short flows, (b) average throughput of long flows;
* Fig. 14 — varying the number of long flows, same two panels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.experiments.common import ScenarioConfig
from repro.experiments.report import panel_tables
from repro.experiments.runner import run_many
from repro.units import KB, MB, Mbps, milliseconds

__all__ = [
    "TestbedRow",
    "testbed_config",
    "run_flowcount_sweep",
    "run_figure",
    "normalise_to",
    "main",
]

DEFAULT_SCHEMES = ("ecmp", "rps", "presto", "letflow", "tlb")


def testbed_config(**overrides) -> ScenarioConfig:
    """The §7 testbed parameters.

    The per-link delay is 1 ms → a 4-hop one-way path gives an 8 ms
    round-trip propagation delay.  The update interval and flowlet
    timeout are both 15 ms; deadlines are U[2 s, 6 s] and the TLB
    default deadline is their 25th percentile (3 s), all per §7.
    """
    base = dict(
        n_paths=10,
        hosts_per_leaf=110,
        link_rate=Mbps(20),
        rtt=milliseconds(8),
        buffer_packets=256,
        ecn_threshold=10,
        n_short=100,
        n_long=4,
        long_size=MB(5),
        short_size_lo=KB(40),
        short_size_hi=KB(100),
        short_window=2.0,
        deadline_lo=2.0,
        deadline_hi=6.0,
        horizon=60.0,
        slice_width=0.25,
        min_rto=0.2,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def scheme_params_for(scheme: str) -> dict:
    """§7 timing parameters for each scheme (15 ms interval/timeout)."""
    if scheme == "tlb":
        return {
            "update_interval": milliseconds(15),
            "default_deadline": 3.0,  # 25th pct of U[2 s, 6 s]
        }
    if scheme in ("letflow", "conga"):
        return {"flowlet_timeout": milliseconds(15)}
    return {}


@dataclass(frozen=True)
class TestbedRow:
    """One (scheme, x) cell of Fig. 13 or 14."""

    scheme: str
    x: int
    short_afct: float
    long_goodput_bps: float
    deadline_miss: float


def run_flowcount_sweep(
    axis: str,
    values: Sequence[int],
    *,
    config: ScenarioConfig,
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    processes: Optional[int] = None,
    cache=None,
) -> list[TestbedRow]:
    """Sweep ``axis`` in {"n_short" (Fig. 13), "n_long" (Fig. 14)}."""
    if axis not in ("n_short", "n_long"):
        raise ValueError(f"axis must be n_short or n_long, got {axis!r}")
    configs = [
        config.with_(scheme=s, scheme_params=scheme_params_for(s), **{axis: int(v)})
        for s in schemes for v in values
    ]
    metrics = run_many(configs, processes=processes, cache=cache)
    return [
        TestbedRow(
            scheme=c.scheme,
            x=getattr(c, axis),
            short_afct=m.short_fct.mean,
            long_goodput_bps=m.long_goodput_bps,
            deadline_miss=m.deadline_miss,
        )
        for c, m in zip(configs, metrics)
    ]


def normalise_to(rows: Sequence[TestbedRow], reference: str = "tlb") -> dict:
    """Per-x AFCT ratios scheme/reference (the paper's normalisation)."""
    ref = {r.x: r for r in rows if r.scheme == reference}
    out: dict[tuple[str, int], float] = {}
    for r in rows:
        base = ref.get(r.x)
        if base is not None and base.short_afct == base.short_afct:
            out[(r.scheme, r.x)] = r.short_afct / base.short_afct
    return out


def normalised_panels(rows: Sequence) -> list:
    """The two §7 panels (Figs. 13, 14, 16, 17) over rows with
    ``scheme``/``x``: AFCT normalised to TLB, long-flow throughput."""
    norm = normalise_to(rows)
    return [
        ("(a) — AFCT of short flows, normalised to TLB",
         lambda r: norm.get((r.scheme, r.x), float("nan"))),
        ("(b) — average throughput of long flows (Mbps)",
         lambda r: r.long_goodput_bps / 1e6),
    ]


def tabulate(rows: Sequence[TestbedRow], axis: str) -> str:
    """Render the two panels (normalised AFCT, long throughput)."""
    return panel_tables(
        rows, x=lambda r: r.x, series=lambda r: r.scheme,
        panels=normalised_panels(rows), x_header=axis,
        title=f"Fig. {'13' if axis == 'n_short' else '14'}")


def run_figure(axis: str, cache=None) -> list[TestbedRow]:
    """Fig. 13 (``"n_short"``: 60/100/140 short flows) or 14
    (``"n_long"``: 2/4/6 long flows beside 80 short ones) as
    EXPERIMENTS.md quotes it: 2 MB long flows on distinct hosts."""
    if axis == "n_short":
        overrides, values = dict(hosts_per_leaf=150), (60, 100, 140)
    else:
        overrides, values = dict(hosts_per_leaf=120, n_short=80), (2, 4, 6)
    config = testbed_config(long_size=2_000_000, short_window=1.0,
                            horizon=40.0, distinct_hosts=True, **overrides)
    return run_flowcount_sweep(axis, values, config=config, cache=cache)


def main(axis: str = "n_short", cache=None) -> str:
    """Run one testbed sweep and render it."""
    return tabulate(run_figure(axis, cache=cache), axis)


if __name__ == "__main__":  # pragma: no cover
    import sys

    print(main(sys.argv[1] if len(sys.argv) > 1 else "n_short"))
