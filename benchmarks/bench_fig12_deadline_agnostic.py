"""Fig. 12 — deadline-agnostic TLB (§6.3).

Two parts, one driver run (``repro figure fig12`` prints both):

1. the paper's sweep — TLB configured with the 5th/25th/50th/75th
   percentile of the statistical deadline distribution as its fixed
   ``D`` (6/10/15/20 ms), over load, web-search workload, with
   ``use_deadline_info=False`` (the switch never sees real deadlines);
2. a mechanism check at microbenchmark scale: a laxer assumed deadline
   must yield a smaller ``q_th`` and therefore *more* long-flow
   reroutes — the causal chain behind the figure.

Scale note (EXPERIMENTS.md): at reduced scale the four percentile
variants differ only marginally in end metrics (deadlines are far from
binding), so the shape assertions target the mechanism and the paper's
orderings as inequalities with slack.
"""

import functools
import math

import pytest

from benchmarks.conftest import axis, emit, once
from repro.experiments import deadline_agnostic


@functools.cache
def _figure():
    rows, pair = deadline_agnostic.run_figure()
    emit("fig12", deadline_agnostic.tabulate(rows, pair))
    return rows, pair


@pytest.mark.benchmark(group="fig12")
def test_fig12_percentile_sweep_websearch(benchmark):
    rows, _ = once(benchmark, _figure)
    cell = {(r.percentile, r.load): r for r in rows}

    # the percentile -> assumed-deadline decoding of U[5, 25] ms
    assert cell[(5.0, 0.4)].assumed_deadline == pytest.approx(0.006)
    assert cell[(25.0, 0.4)].assumed_deadline == pytest.approx(0.010)
    assert cell[(75.0, 0.4)].assumed_deadline == pytest.approx(0.020)

    # tight percentiles never miss more than the laxest one
    for load in axis(rows, "load"):
        m25 = cell[(25.0, load)].deadline_miss
        m75 = cell[(75.0, load)].deadline_miss
        if not (math.isnan(m25) or math.isnan(m75)):
            assert m25 <= m75 + 0.02

    for r in rows:
        assert r.short_afct > 0
        assert r.long_goodput_bps > 0


@pytest.mark.benchmark(group="fig12")
def test_fig12_mechanism_laxer_deadline_more_reroutes(benchmark):
    _, results = once(benchmark, _figure)
    tight = results[0.006]
    lax = results[0.020]
    # Laxer assumed deadline => smaller q_th => long flows switch more.
    assert lax.extras["long_reroutes"] > tight.extras["long_reroutes"]
    # Both variants keep every real deadline at this scale.
    assert tight.deadline_miss <= lax.deadline_miss + 0.02
