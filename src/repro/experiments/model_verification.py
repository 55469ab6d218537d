"""§4.2 model verification — Fig. 7.

For each point on four axes (number of short flows, number of long
flows, number of paths, deadline) the figure compares:

* **numeric** — the minimum ``q_th`` from Eq. 9
  (:func:`repro.core.model.qth_full`); and
* **simulation** — the smallest *fixed* ``q_th`` (TLB run with
  ``fixed_qth``) under which no short flow misses its deadline,
  found by bisection over the threshold (higher thresholds keep long
  flows out of the short flows' way, so misses are monotone
  non-increasing in ``q_th`` — up to simulation noise, which the
  bisection tolerates by verifying the bracket ends).

The paper's qualitative shape: ``q_th`` grows with ``m_S`` and ``m_L``,
falls with ``n`` and ``D``, and the numeric curve tracks simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core import model
from repro.errors import ModelError
from repro.experiments.common import ScenarioConfig, run_scenario_metrics
from repro.experiments.report import format_table
from repro.units import DEFAULT_HEADER, DEFAULT_MSS, KB, microseconds

__all__ = [
    "VerificationPoint",
    "numeric_qth",
    "simulated_min_qth",
    "run_axis",
    "default_config",
    "main",
]


@dataclass(frozen=True)
class VerificationPoint:
    """One x-value of one Fig. 7 panel."""

    axis: str
    x: float
    numeric_qth: float
    simulated_qth: Optional[int]


def default_config(**overrides) -> ScenarioConfig:
    """§4.2 settings: 15 paths, 512-packet buffers, 100 short + 3 long."""
    base = dict(
        scheme="tlb",
        n_paths=15,
        hosts_per_leaf=110,
        buffer_packets=512,
        n_short=100,
        n_long=3,
        short_window=0.01,
        horizon=1.0,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def numeric_qth(
    *,
    m_short: int,
    m_long: int,
    n_paths: int,
    deadline: float,
    mean_short_bytes: float = KB(70),
    link_rate: float = 1e9,
    interval: float = microseconds(500),
    rtt: float = microseconds(100),
    w_l_bytes: int = 64 * 1024,
    mss: int = DEFAULT_MSS,
    buffer_packets: int = 512,
) -> float:
    """Eq. 9's minimum ``q_th`` in packets, clamped to [1, buffer]."""
    c_pps = model.capacity_pps(link_rate, mss + DEFAULT_HEADER)
    x_pkts = mean_short_bytes / mss
    try:
        raw = model.qth_full(
            m_short, m_long, x_pkts, deadline, n_paths,
            w_l_bytes / mss, interval, rtt, c_pps,
        )
    except ModelError:
        return float(buffer_packets)
    return float(min(max(raw, 1.0), buffer_packets))


def _misses_at(config: ScenarioConfig, qth: int, deadline: float) -> int:
    """Deadline misses of short flows under a fixed threshold."""
    cfg = config.with_(
        scheme="tlb",
        scheme_params={"fixed_qth": int(qth)},
        deadline_lo=deadline,
        deadline_hi=deadline,
    )
    metrics = run_scenario_metrics(cfg)
    miss = metrics.deadline_miss
    n = metrics.short_fct.n_flows
    return int(round(miss * n)) if miss == miss else 0  # NaN-safe


def simulated_min_qth(
    config: ScenarioConfig,
    deadline: float,
    *,
    qth_max: Optional[int] = None,
) -> Optional[int]:
    """Bisect for the smallest fixed ``q_th`` that fully protects short
    flows.

    The paper's criterion is "no short flows miss their deadlines".  At
    reduced scale a handful of misses can be unavoidable (they persist
    even with long flows pinned at the maximum threshold), so the target
    is the *best attainable* miss count — measured at ``qth_max`` — which
    is zero exactly when the paper's criterion is achievable.  Bisects
    on the (empirically monotone non-increasing) miss count.
    """
    hi = qth_max if qth_max is not None else config.buffer_packets
    lo = 1
    target = _misses_at(config, hi, deadline)
    if _misses_at(config, lo, deadline) <= target:
        return lo
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _misses_at(config, mid, deadline) <= target:
            hi = mid
        else:
            lo = mid
    return hi


def run_axis(
    axis: str,
    values: Sequence[float],
    *,
    config: Optional[ScenarioConfig] = None,
    deadline: float = 0.010,
    simulate: bool = True,
) -> list[VerificationPoint]:
    """Sweep one Fig. 7 axis.

    ``axis`` is one of ``"m_short"`` (Fig. 7a), ``"m_long"`` (7b),
    ``"n_paths"`` (7c), ``"deadline"`` (7d).
    """
    base = config if config is not None else default_config()
    points: list[VerificationPoint] = []
    for v in values:
        kw = dict(
            m_short=base.n_short, m_long=base.n_long, n_paths=base.n_paths,
            deadline=deadline,
            mean_short_bytes=(base.short_size_lo + base.short_size_hi) / 2,
            link_rate=base.link_rate, rtt=base.rtt,
            buffer_packets=base.buffer_packets,
        )
        cfg = base
        if axis == "m_short":
            kw["m_short"] = int(v)
            cfg = base.with_(n_short=int(v))
        elif axis == "m_long":
            kw["m_long"] = int(v)
            cfg = base.with_(n_long=int(v))
        elif axis == "n_paths":
            kw["n_paths"] = int(v)
            cfg = base.with_(n_paths=int(v))
        elif axis == "deadline":
            kw["deadline"] = float(v)
        else:
            raise ValueError(f"unknown Fig. 7 axis {axis!r}")
        d = kw["deadline"]
        sim_q = simulated_min_qth(cfg, d) if simulate else None
        points.append(VerificationPoint(axis, float(v), numeric_qth(**kw), sim_q))
    return points


def main(simulate: bool = True) -> str:
    """Run all four panels at reduced scale and render tables."""
    cfg = default_config(n_short=60, hosts_per_leaf=70)
    panels = [
        ("m_short", [20, 40, 60, 80]),
        ("m_long", [1, 2, 3, 4]),
        ("n_paths", [10, 15, 20, 25]),
        ("deadline", [0.006, 0.010, 0.015, 0.020]),
    ]
    out = []
    for axis, values in panels:
        pts = run_axis(axis, values, config=cfg, simulate=simulate)
        out.append(format_table(
            [axis, "numeric_qth", "simulated_qth"],
            [[p.x, p.numeric_qth,
              p.simulated_qth if p.simulated_qth is not None else "inf"]
             for p in pts],
            title=f"Fig. 7 — q_th vs {axis}",
        ))
    return "\n\n".join(out)


if __name__ == "__main__":  # pragma: no cover
    print(main())
