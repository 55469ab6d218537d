"""Fig. 17 — asymmetric bandwidth (§7).

Two randomly chosen leaf–spine links run at a reduced rate; schemes
compared at testbed scale: (a) short-flow AFCT normalised to TLB,
(b) long-flow throughput.

Paper shape: under growing bandwidth asymmetry ECMP flows hashed onto
the slow links suffer long tails, RPS/Presto suffer reordering across
unequal paths; TLB (congestion-aware at both granularities) leads.
"""

import pytest

from benchmarks.conftest import axis, emit, once
from repro.experiments import asymmetry


@pytest.mark.benchmark(group="fig17")
def test_fig17_bandwidth_asymmetry(benchmark):
    rows = once(benchmark, lambda: asymmetry.run_figure("bandwidth"))
    emit("fig17", asymmetry.tabulate(rows, "bandwidth"))
    cell = {(r.scheme, r.x): r for r in rows}
    worst = axis(rows, "x")[-1]  # rate factor of the 2 degraded links

    # TLB at or near the best AFCT under the strongest asymmetry
    afcts = {s: cell[(s, worst)].short_afct for s in axis(rows, "scheme")}
    assert afcts["tlb"] <= 1.15 * min(afcts.values())

    # oblivious per-packet spraying pays for the slow links
    assert (cell[("rps", worst)].long_goodput_bps
            < cell[("rps", 1.0)].long_goodput_bps)
    # TLB's long flows stay ahead of RPS under asymmetry
    assert (cell[("tlb", worst)].long_goodput_bps
            > cell[("rps", worst)].long_goodput_bps)
