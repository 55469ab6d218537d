"""Fig. 11 — large-scale data-mining workload (§6.2).

Same four panels as Fig. 10, on the VL2 data-mining size distribution
(sharper short/long boundary, heavier tail).

Paper shape: TLB still leads; short flows fare *better* than under web
search (fewer medium flows to blur the boundary), and LetFlow is weaker
here than under web search (fewer flowlet gaps).
"""

import pytest

from benchmarks.conftest import axis, emit, once
from repro.experiments import largescale


@pytest.mark.benchmark(group="fig11")
def test_fig11_datamining_load_sweep(benchmark):
    rows = once(benchmark, lambda: largescale.run_figure("data_mining"))
    emit("fig11", largescale.tabulate(rows, "data_mining"))
    cell = {(r.scheme, r.load): r for r in rows}

    # (a) TLB beats the flow/flowlet/flowcell baselines at high load.
    # Data mining's short flows are 1-2 packets, which per-packet random
    # spraying serves perfectly once the tail is truncated, so RPS gets
    # the same 50 % slack here (full-tail behaviour in EXPERIMENTS.md).
    high = {s: cell[(s, 0.8)] for s in axis(rows, "scheme")}
    for s in ("ecmp", "letflow"):
        assert high["tlb"].short_afct <= high[s].short_afct * 1.05, s
    assert high["tlb"].short_afct < 1.5 * high["rps"].short_afct

    # (c) TLB misses few deadlines
    for load in axis(rows, "load"):
        assert cell[("tlb", load)].deadline_miss <= 0.1

    # (d) long flows: TLB beats ECMP at high load
    assert (cell[("tlb", 0.8)].long_goodput_bps
            > cell[("ecmp", 0.8)].long_goodput_bps)
