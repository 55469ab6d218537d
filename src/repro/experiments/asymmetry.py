"""§7 asymmetric-topology experiments — Figs. 16 and 17.

Two randomly selected leaf-to-spine links are degraded — by extra
propagation delay (Fig. 16) or reduced bandwidth (Fig. 17) — and the
schemes compared at testbed scale.  The paper's shape: reordering-prone
schemes (RPS, Presto) collapse as asymmetry grows, ECMP suffers when
flows hash onto the bad paths, LetFlow is resilient, and TLB performs
best by combining congestion awareness with adaptive granularity.

The degraded links are chosen by seed-derived randomness, so the same
pair is degraded for every scheme at a given seed (paired comparison).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.experiments.common import ScenarioConfig
from repro.experiments.report import panel_tables
from repro.experiments.runner import run_many
from repro.experiments.testbed import (
    normalised_panels, scheme_params_for, testbed_config)
from repro.sim.rng import RngRegistry

__all__ = ["AsymmetryRow", "degraded_pair", "run_asymmetry_sweep", "run_figure",
           "main"]

DEFAULT_SCHEMES = ("ecmp", "rps", "presto", "letflow", "tlb")


def degraded_pair(config: ScenarioConfig, count: int = 2,
                  side: str = "sender") -> list[tuple[str, str]]:
    """The leaf–spine links the run will degrade (seed-deterministic).

    ``side="sender"`` (default) restricts the choice to the sender
    leaf's links.  A receiver-side downlink is invisible to *every*
    switch-local scheme at the decision point (no scheme in the paper —
    TLB included — carries remote congestion state), so degrading there
    measures only luck; sender-side degradation tests what Figs. 16–17
    are about: whether the rerouting decision notices a bad path.
    ``side="any"`` reproduces the fully random selection.
    """
    if side == "sender":
        leaves = [0]
    elif side == "any":
        leaves = range(config.n_leaves)
    else:
        raise ValueError(f"side must be 'sender' or 'any', got {side!r}")
    pairs = [
        (f"leaf{le}", f"spine{s}")
        for le in leaves
        for s in range(config.n_paths)
    ]
    rng = RngRegistry(config.seed).stream("asymmetry")
    chosen = rng.choice(len(pairs), size=count, replace=False)
    return [pairs[int(i)] for i in sorted(chosen)]


def _overrides(config: ScenarioConfig, *, rate_factor: float = 1.0,
               extra_delay: float = 0.0) -> tuple:
    return tuple(
        (leaf, spine, rate_factor, extra_delay)
        for leaf, spine in degraded_pair(config)
    )


@dataclass(frozen=True)
class AsymmetryRow:
    """One (scheme, degradation level) cell of Fig. 16/17."""

    scheme: str
    x: float          # extra delay (s) or rate factor
    short_afct: float
    long_goodput_bps: float
    deadline_miss: float


def run_asymmetry_sweep(
    kind: str,
    values: Sequence[float],
    *,
    config: ScenarioConfig,
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    processes: Optional[int] = None,
    cache=None,
) -> list[AsymmetryRow]:
    """Sweep the degradation level.

    ``kind="delay"`` (Fig. 16): values are extra one-way delays in
    seconds added to the two bad links.  ``kind="bandwidth"``
    (Fig. 17): values are rate factors (1.0 = symmetric, 0.25 = links
    at a quarter rate).
    """
    if kind not in ("delay", "bandwidth"):
        raise ValueError(f"kind must be 'delay' or 'bandwidth', got {kind!r}")
    grid = [(s, v) for s in schemes for v in values]
    configs = []
    for s, v in grid:
        ov = (_overrides(config, extra_delay=float(v)) if kind == "delay"
              else _overrides(config, rate_factor=float(v)))
        configs.append(config.with_(
            scheme=s, scheme_params=scheme_params_for(s), link_overrides=ov))
    metrics = run_many(configs, processes=processes, cache=cache)
    return [
        AsymmetryRow(
            scheme=s,
            x=float(v),
            short_afct=m.short_fct.mean,
            long_goodput_bps=m.long_goodput_bps,
            deadline_miss=m.deadline_miss,
        )
        for (s, v), m in zip(grid, metrics)
    ]


def tabulate(rows: Sequence[AsymmetryRow], kind: str) -> str:
    """Render normalised AFCT and long throughput panels."""
    delay = kind == "delay"
    return panel_tables(
        rows, x=lambda r: r.x * 1e3 if delay else r.x,
        series=lambda r: r.scheme, panels=normalised_panels(rows),
        x_header="extra_delay_ms" if delay else "rate_factor",
        title=f"Fig. {'16' if delay else '17'}")


def run_figure(kind: str, cache=None) -> list[AsymmetryRow]:
    """Fig. 16 (``"delay"``: +0/+4 ms) or 17 (``"bandwidth"``: rate
    ×1/×0.2) as EXPERIMENTS.md quotes it.

    The testbed is congested heavily enough (60 short + 4 long 5 MB
    flows) that queueing delay, the signal TLB reads, dominates the
    injected propagation asymmetry — the testbed's regime, where one
    packet serialises in 0.6 ms and queues run tens of ms deep.
    """
    config = testbed_config(
        n_short=60, n_long=4, hosts_per_leaf=80, long_size=5_000_000,
        short_window=0.4, horizon=45.0, distinct_hosts=True)
    values = (0.0, 4e-3) if kind == "delay" else (1.0, 0.2)
    return run_asymmetry_sweep(kind, values, config=config, cache=cache)


def main(kind: str = "delay", cache=None) -> str:
    """Run one asymmetry sweep and render it."""
    return tabulate(run_figure(kind, cache=cache), kind)


if __name__ == "__main__":  # pragma: no cover
    import sys

    print(main(sys.argv[1] if len(sys.argv) > 1 else "delay"))
