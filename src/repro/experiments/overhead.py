"""§7 switch overhead — Fig. 15.

The paper measures the leaf switch's CPU and memory utilisation on BMv2.
Per the DESIGN.md substitution we *account* the work instead: each
balancer's operation counters (hashes, queue reads, state touches, RNG
draws, timer ticks) become a relative CPU score, and its peak state
footprint a relative memory score.  The expected shape: ECMP and RPS
cheapest (stateless), Presto/LetFlow add per-flow state, TLB adds the
periodic calculator — a small increment, not an excessive one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.experiments.common import ScenarioConfig, run_scenario
from repro.experiments.report import format_table
from repro.experiments.testbed import scheme_params_for, testbed_config
from repro.metrics.overhead import OverheadModel

__all__ = ["OverheadRow", "run_overhead", "run_figure", "tabulate", "main"]

DEFAULT_SCHEMES = ("ecmp", "rps", "presto", "letflow", "tlb")


@dataclass(frozen=True)
class OverheadRow:
    """One scheme's accounted overhead at the sender-side leaf."""

    scheme: str
    decisions: int
    ops_per_decision: float
    cpu_score: float
    mem_score: float
    peak_entries: int


def run_overhead(
    config: ScenarioConfig,
    *,
    schemes: Sequence[str] = DEFAULT_SCHEMES,
) -> list[OverheadRow]:
    """Run the testbed scenario per scheme and aggregate counters."""
    model = OverheadModel()
    rows: list[OverheadRow] = []
    for scheme in schemes:
        res = run_scenario(config.with_(
            scheme=scheme, scheme_params=scheme_params_for(scheme)))
        agg = model.aggregate(scheme, res.balancers.values())
        elapsed = res.net.sim.now
        rows.append(OverheadRow(
            scheme=scheme,
            decisions=agg.decisions,
            ops_per_decision=agg.ops_per_decision,
            cpu_score=model.cpu_score(agg, elapsed),
            mem_score=model.mem_score(agg),
            peak_entries=agg.peak_entries,
        ))
    return rows


def tabulate(rows: Sequence[OverheadRow]) -> str:
    """Render Fig. 15's two panels, normalised to ECMP."""
    cpu_ref = next((r.cpu_score for r in rows if r.scheme == "ecmp"),
                   rows[0].cpu_score if rows else 1.0)
    mem_ref = next((r.mem_score for r in rows if r.scheme == "ecmp"),
                   rows[0].mem_score if rows else 1.0)
    return format_table(
        ["scheme", "ops/decision", "cpu_score", "cpu_vs_ecmp",
         "mem_score", "mem_vs_ecmp", "peak_entries"],
        [[r.scheme, r.ops_per_decision, r.cpu_score,
          r.cpu_score / cpu_ref if cpu_ref else float("nan"),
          r.mem_score, r.mem_score / mem_ref if mem_ref else float("nan"),
          r.peak_entries]
         for r in rows],
        title="Fig. 15 — leaf-switch overhead (operation/state accounting)",
    )


def run_figure() -> list[OverheadRow]:
    """Fig. 15 as EXPERIMENTS.md quotes it: the testbed with 60 short +
    3 long 2 MB flows on distinct hosts."""
    return run_overhead(testbed_config(
        n_short=60, n_long=3, hosts_per_leaf=80, long_size=2_000_000,
        short_window=1.0, horizon=40.0, distinct_hosts=True))


def main() -> str:
    """Run and render the overhead comparison."""
    return tabulate(run_figure())


if __name__ == "__main__":  # pragma: no cover
    print(main())
