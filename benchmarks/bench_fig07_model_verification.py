"""Fig. 7 — model verification: numeric vs simulated minimum q_th (§4.2).

Two halves, as in the paper (the axes and the scaled fabric are the
driver's ``NUMERIC_AXES``/``SIMULATED_AXES``):

* **numeric** — Eq. 9 evaluated across all four axes at the paper's
  operating point (15 paths, 1 Gbps, X=70 KB, D=10 ms), where the model
  is feasible and its thresholds land in the tens-of-packets range;
* **simulation** — the smallest fixed ``q_th`` that fully protects short
  flows, bisected on a scaled-down fabric with a proportionally tighter
  deadline (the reduced flow count shifts the feasible-deadline region;
  DESIGN.md records the adaptation).

Paper shape asserted on *both* halves: q_th grows with m_S and m_L,
falls with n and D.
"""

import pytest

from benchmarks.conftest import emit, once
from repro.experiments import model_verification as mv


@pytest.mark.benchmark(group="fig07")
def test_fig07_numeric_panels(benchmark):
    panels = once(benchmark, mv.numeric_panels)

    def qs(axis):
        return [q for _, q in panels[axis]]

    assert qs("m_short") == sorted(qs("m_short"))
    assert qs("m_long") == sorted(qs("m_long"))
    assert qs("n_paths") == sorted(qs("n_paths"), reverse=True)
    assert qs("deadline") == sorted(qs("deadline"), reverse=True)
    # thresholds live in a physical range at the paper's operating point
    assert 1 <= panels["m_long"][2][1] <= 512


@pytest.mark.benchmark(group="fig07")
def test_fig07_simulated_panels(benchmark):
    panels = once(benchmark, mv.simulated_panels)
    emit("fig07", mv.tabulate(mv.numeric_panels(), panels))

    def first_last(axis):
        pts = panels[axis]
        return pts[0].simulated_qth, pts[-1].simulated_qth

    a, b = first_last("m_short")
    assert b >= a
    a, b = first_last("m_long")
    assert b >= a
    a, b = first_last("n_paths")
    assert b <= a
    a, b = first_last("deadline")
    assert b <= a
    # at least one axis shows a real (non-degenerate) spread
    spreads = [abs(first_last(ax)[1] - first_last(ax)[0]) for ax in panels]
    assert max(spreads) >= 8
