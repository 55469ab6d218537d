"""Tests for the Fig. 7 model-verification driver."""

import pytest

from repro.experiments import model_verification as mv


def test_numeric_qth_paper_shapes():
    """The four Fig. 7 monotonicities, via the driver's numeric path."""
    base = dict(m_short=100, m_long=3, n_paths=15, deadline=0.010)
    q = lambda **kw: mv.numeric_qth(**{**base, **kw})
    # (a) grows with short flows
    assert q(m_short=20) < q(m_short=60) < q(m_short=140)
    # (b) grows with long flows
    assert q(m_long=1) < q(m_long=3) < q(m_long=5)
    # (c) falls with path count
    assert q(n_paths=10) > q(n_paths=15) > q(n_paths=25)
    # (d) falls with deadline
    assert q(deadline=0.006) > q(deadline=0.010) > q(deadline=0.020)


def test_numeric_qth_clamps():
    # Infeasible deadline -> buffer-sized threshold.
    assert mv.numeric_qth(m_short=100, m_long=3, n_paths=15,
                          deadline=1e-6, buffer_packets=512) == 512.0
    # No shorts + single long -> clamped to minimum.
    assert mv.numeric_qth(m_short=0, m_long=1, n_paths=15,
                          deadline=0.010) == 1.0


def test_simulated_min_qth_bisection(monkeypatch):
    """Bisection over a stubbed monotone miss function."""
    calls = []

    def fake_misses(config, qth, deadline):
        calls.append(qth)
        return 0 if qth >= 37 else 1

    monkeypatch.setattr(mv, "_misses_at", fake_misses)
    cfg = mv.default_config(buffer_packets=256)
    assert mv.simulated_min_qth(cfg, 0.010) == 37
    assert len(calls) <= 12  # log2(256) + bracket checks


def test_simulated_min_qth_with_unavoidable_misses(monkeypatch):
    """Misses that persist at the maximum threshold define the target:
    if the floor achieves the same count, the minimum threshold is 1."""
    monkeypatch.setattr(mv, "_misses_at", lambda c, q, d: 1)
    cfg = mv.default_config()
    assert mv.simulated_min_qth(cfg, 0.010) == 1


def test_simulated_min_qth_relative_target(monkeypatch):
    """With 2 unavoidable misses and extra misses below q=50, the search
    finds 50 (the smallest threshold reaching the attainable floor)."""
    monkeypatch.setattr(mv, "_misses_at",
                        lambda c, q, d: 2 if q >= 50 else 5)
    cfg = mv.default_config(buffer_packets=256)
    assert mv.simulated_min_qth(cfg, 0.010) == 50


def test_simulated_min_qth_trivial(monkeypatch):
    monkeypatch.setattr(mv, "_misses_at", lambda c, q, d: 0)
    cfg = mv.default_config()
    assert mv.simulated_min_qth(cfg, 0.010) == 1


@pytest.fixture
def no_simulation(monkeypatch):
    """Stub the bisection so ``run_axis`` only does its numeric half."""
    monkeypatch.setattr(mv, "simulated_min_qth", lambda config, deadline: None)


def test_run_axis_numeric_only(no_simulation):
    pts = mv.run_axis("m_short", [20, 60, 100], config=mv.default_config())
    assert [p.x for p in pts] == [20, 60, 100]
    assert all(p.simulated_qth is None for p in pts)
    qs = [p.numeric_qth for p in pts]
    assert qs == sorted(qs)


def test_run_axis_deadline_uses_value_as_deadline(no_simulation):
    pts = mv.run_axis("deadline", [0.006, 0.020], config=mv.default_config())
    assert pts[0].numeric_qth > pts[1].numeric_qth


def test_run_axis_rejects_unknown():
    with pytest.raises(ValueError):
        mv.run_axis("bogus", [1], config=mv.default_config())


def test_small_end_to_end_simulated_point():
    """One real (scaled-down) simulated q_th: must exist and be >= 1."""
    cfg = mv.default_config(
        n_paths=4, hosts_per_leaf=16, n_short=10, n_long=1,
        buffer_packets=64, short_window=0.01, horizon=0.5)
    got = mv.simulated_min_qth(cfg, deadline=0.015, qth_max=64)
    assert got is None or 1 <= got <= 64
