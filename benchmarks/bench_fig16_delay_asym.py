"""Fig. 16 — asymmetric propagation delay (§7).

Two randomly chosen leaf–spine links get extra one-way delay; schemes
compared at testbed scale: (a) short-flow AFCT normalised to TLB,
(b) long-flow throughput.

Paper shape: the per-packet/flowcell schemes (RPS, Presto) degrade most
as the delay gap grows; LetFlow stays resilient; TLB performs best
overall.
"""

import pytest

from benchmarks.conftest import axis, emit, once
from repro.experiments import asymmetry


@pytest.mark.benchmark(group="fig16")
def test_fig16_delay_asymmetry(benchmark):
    rows = once(benchmark, lambda: asymmetry.run_figure("delay"))
    emit("fig16", asymmetry.tabulate(rows, "delay"))
    cell = {(r.scheme, r.x): r for r in rows}
    worst = axis(rows, "x")[-1]  # extra one-way delay on the 2 bad links

    # TLB at or near the best AFCT under the strongest asymmetry
    afcts = {s: cell[(s, worst)].short_afct for s in axis(rows, "scheme")}
    assert afcts["tlb"] <= 1.15 * min(afcts.values())

    # reordering-prone schemes lose long-flow throughput as delay grows
    assert (cell[("rps", worst)].long_goodput_bps
            < cell[("rps", 0.0)].long_goodput_bps)
    # TLB's long flows beat RPS's under the strongest asymmetry
    assert (cell[("tlb", worst)].long_goodput_bps
            > cell[("rps", worst)].long_goodput_bps)
