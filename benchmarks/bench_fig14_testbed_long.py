"""Fig. 14 — testbed scale, varying the number of long flows (§7).

Same testbed parameters as Fig. 13, sweeping the long-flow count:
(a) short-flow AFCT normalised to TLB, (b) long-flow throughput.

Paper shape: more long flows widen TLB's advantage (adaptive granularity
matters more when more elephants need placing).
"""

import pytest

from benchmarks.conftest import axis, emit, once
from repro.experiments import testbed


@pytest.mark.benchmark(group="fig14")
def test_fig14_varying_long_flows(benchmark):
    rows = once(benchmark, lambda: testbed.run_figure("n_long"))
    emit("fig14", testbed.tabulate(rows, "n_long"))
    norm = testbed.normalise_to(rows, "tlb")
    cell = {(r.scheme, r.x): r for r in rows}
    schemes, values = axis(rows, "scheme"), axis(rows, "x")

    # (a) baselines trail TLB on average at every long-flow count
    for x in values:
        others = [norm[(s, x)] for s in schemes if s != "tlb"]
        assert sum(others) / len(others) > 1.0

    # (b) long-flow throughput: TLB leads ECMP throughout
    for x in values:
        assert (cell[("tlb", x)].long_goodput_bps
                > cell[("ecmp", x)].long_goodput_bps)

    # short flows get slower as elephants are added, under every scheme
    for s in schemes:
        assert cell[(s, 6)].short_afct > 0.8 * cell[(s, 2)].short_afct
