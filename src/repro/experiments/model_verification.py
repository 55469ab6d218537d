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
    "numeric_panels",
    "simulated_panels",
    "tabulate",
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
    config: ScenarioConfig,
    deadline: float = 0.010,
) -> list[VerificationPoint]:
    """Sweep one Fig. 7 axis.

    ``axis`` is one of ``"m_short"`` (Fig. 7a), ``"m_long"`` (7b),
    ``"n_paths"`` (7c), ``"deadline"`` (7d).
    """
    points: list[VerificationPoint] = []
    for v in values:
        kw = dict(
            m_short=config.n_short, m_long=config.n_long,
            n_paths=config.n_paths, deadline=deadline,
            mean_short_bytes=(config.short_size_lo + config.short_size_hi) / 2,
            link_rate=config.link_rate, rtt=config.rtt,
            buffer_packets=config.buffer_packets,
        )
        cfg = config
        if axis == "m_short":
            kw["m_short"] = int(v)
            cfg = config.with_(n_short=int(v))
        elif axis == "m_long":
            kw["m_long"] = int(v)
            cfg = config.with_(n_long=int(v))
        elif axis == "n_paths":
            kw["n_paths"] = int(v)
            cfg = config.with_(n_paths=int(v))
        elif axis == "deadline":
            kw["deadline"] = float(v)
        else:
            raise ValueError(f"unknown Fig. 7 axis {axis!r}")
        points.append(VerificationPoint(
            axis, float(v), numeric_qth(**kw),
            simulated_min_qth(cfg, kw["deadline"])))
    return points


#: Fig. 7's numeric half: Eq. 9 around the paper's operating point
#: (15 paths, 1 Gbps, X=70 KB, D=10 ms), where the model is feasible
#: and its thresholds land in the tens-of-packets range (closed form)
NUMERIC_AXES = (
    ("m_short", (20, 60, 100, 140)),
    ("m_long", (1, 2, 3, 4, 5)),
    ("n_paths", (10, 15, 20, 25)),
    ("deadline", (0.006, 0.010, 0.015, 0.020)),
)

#: the simulated half, bisected on a scaled-down fabric with a
#: proportionally tighter deadline (the reduced flow count shifts the
#: feasible-deadline region; DESIGN.md records the adaptation)
SIMULATED_AXES = (
    ("m_short", (20, 40)),
    ("m_long", (2, 4)),
    ("n_paths", (6, 10)),
    ("deadline", (0.0016, 0.0024)),
)


def numeric_panels() -> dict[str, list[tuple[float, float]]]:
    """Eq. 9's ``q_th`` along each of :data:`NUMERIC_AXES`."""
    base = dict(m_short=100, m_long=3, n_paths=15, deadline=0.010)
    return {axis: [(v, numeric_qth(**{**base, axis: v})) for v in values]
            for axis, values in NUMERIC_AXES}


def simulated_panels() -> dict[str, list[VerificationPoint]]:
    """The simulated minimum ``q_th`` along each of
    :data:`SIMULATED_AXES`: distinct hosts per flow (the §4.2
    topology), 8 paths, deadlines near the achievable FCT so the
    threshold bites."""
    config = default_config(
        n_paths=8, hosts_per_leaf=60, n_short=40, n_long=4,
        buffer_packets=128, short_window=0.008, horizon=0.6,
        distinct_hosts=True)
    return {axis: run_axis(axis, values, config=config, deadline=0.0016)
            for axis, values in SIMULATED_AXES}


def tabulate(numeric: dict, simulated: dict) -> str:
    """Render both halves: one table per axis each."""
    def xfmt(axis: str, x: float):
        # deadlines print in ms so 1.6 ms and 2.4 ms don't both round to 0.002
        return x * 1e3 if axis == "deadline" else x

    return "\n\n".join([
        format_table([axis, "numeric_qth"], [[x, q] for x, q in rows],
                     title=f"Fig. 7 — Eq. 9 q_th vs {axis} (paper scale)")
        for axis, rows in numeric.items()
    ] + [
        format_table(
            [axis if axis != "deadline" else "deadline_ms", "simulated_min_qth"],
            [[xfmt(axis, p.x), p.simulated_qth] for p in points],
            title=f"Fig. 7 — simulated minimum q_th vs {axis} (scaled)")
        for axis, points in simulated.items()
    ])


def main() -> str:
    """Run both Fig. 7 halves and render them."""
    return tabulate(numeric_panels(), simulated_panels())


if __name__ == "__main__":  # pragma: no cover
    print(main())
