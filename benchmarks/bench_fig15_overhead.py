"""Fig. 15 — switch overhead (§7).

Operation/state accounting (the DESIGN.md substitution for BMv2 CPU and
memory measurement) at testbed scale.

Paper shape: ECMP/RPS cheapest (stateless), per-flow-state schemes
(Presto/LetFlow) in the middle, TLB slightly above them — but only by a
small factor, "TLB does not incur excessive CPU overhead".
"""

import pytest

from benchmarks.conftest import emit, once
from repro.experiments import overhead as overhead_exp


@pytest.mark.benchmark(group="fig15")
def test_fig15_switch_overhead(benchmark):
    rows = once(benchmark, overhead_exp.run_figure)
    emit("fig15", overhead_exp.tabulate(rows))
    by = {r.scheme: r for r in rows}

    # CPU ordering: stateless < stateful < TLB
    assert by["ecmp"].cpu_score <= by["presto"].cpu_score
    assert by["letflow"].cpu_score < by["tlb"].cpu_score

    # Memory: flow-state schemes hold entries; ECMP/RPS hold none
    assert by["ecmp"].peak_entries == 0
    assert by["rps"].peak_entries == 0
    assert by["tlb"].peak_entries > 0
    assert by["presto"].peak_entries > 0

    # "not excessive": TLB within a small factor of the stateful baselines
    assert by["tlb"].cpu_score < 10 * by["letflow"].cpu_score
    assert by["tlb"].mem_score < 3 * by["presto"].mem_score
