"""Fig. 13 — testbed scale, varying the number of short flows (§7).

The paper's Mininet/P4 testbed parameters (10 paths, 20 Mbps, 1 ms link
delay, 15 ms update interval, deadlines U[2 s, 6 s]) on the simulator:
(a) short-flow AFCT normalised to TLB, (b) long-flow throughput.

Paper shape: every baseline's normalised AFCT is >= 1 (TLB best),
growing with the short-flow count; TLB leads long-flow throughput.
"""

import pytest

from benchmarks.conftest import axis, emit, once
from repro.experiments import testbed


@pytest.mark.benchmark(group="fig13")
def test_fig13_varying_short_flows(benchmark):
    rows = once(benchmark, lambda: testbed.run_figure("n_short"))
    emit("fig13", testbed.tabulate(rows, "n_short"))
    norm = testbed.normalise_to(rows, "tlb")
    cell = {(r.scheme, r.x): r for r in rows}
    schemes, values = axis(rows, "scheme"), axis(rows, "x")

    # (a) TLB is the reference; baselines are slower on average
    for x in values:
        others = [norm[(s, x)] for s in schemes if s != "tlb"]
        assert sum(others) / len(others) > 1.0
    # ECMP's penalty is visible at the heaviest point (paper: ~18-40 %)
    assert norm[("ecmp", values[-1])] > 1.05

    # (b) TLB's long-flow throughput leads ECMP at every point
    for x in values:
        assert (cell[("tlb", x)].long_goodput_bps
                > cell[("ecmp", x)].long_goodput_bps)
