"""Tests for the EMA/deadline/arrival-rate estimators."""

import numpy as np
import pytest

from repro.core.load_estimator import DeadlineStats, EmaEstimator, LoadEstimator
from repro.errors import ConfigError


def test_ema_default_until_first_sample():
    e = EmaEstimator(0.1, default=70_000)
    assert e.value == 70_000
    e.update(50_000)
    assert e.value == 50_000


def test_ema_moves_towards_samples():
    e = EmaEstimator(0.5, default=0)
    e.update(100)
    e.update(200)
    assert e.value == pytest.approx(150)
    e.update(200)
    assert e.value == pytest.approx(175)


def test_ema_reset():
    e = EmaEstimator(0.5, default=42)
    e.update(100)
    e.reset()
    assert e.value == 42
    assert e.samples == 0


def test_ema_gain_validation():
    with pytest.raises(ConfigError):
        EmaEstimator(0.0, 1)
    with pytest.raises(ConfigError):
        EmaEstimator(1.5, 1)


def test_deadline_stats_default_when_empty():
    d = DeadlineStats(25.0, default=0.010)
    assert d.value() == 0.010
    assert d.n_observations == 0


def test_deadline_stats_percentile():
    d = DeadlineStats(25.0, default=0.010, window=100)
    for v in np.linspace(0.005, 0.025, 81):
        d.observe(float(v))
    assert d.value() == pytest.approx(0.010, rel=0.01)


def test_deadline_stats_sliding_window():
    d = DeadlineStats(50.0, default=1.0, window=4)
    for v in (0.1, 0.1, 0.1, 0.1):
        d.observe(v)
    for v in (0.9, 0.9, 0.9, 0.9):
        d.observe(v)  # pushes the old values out
    assert d.value() == pytest.approx(0.9)


def test_deadline_stats_lazy_cache():
    d = DeadlineStats(50.0, default=1.0)
    d.observe(0.2)
    first = d.value()
    assert d.value() == first  # cached, no recompute
    d.observe(0.4)
    assert d.value() == pytest.approx(0.3)


def test_deadline_stats_validation():
    with pytest.raises(ConfigError):
        DeadlineStats(0.0, 1.0)
    with pytest.raises(ConfigError):
        DeadlineStats(25.0, 0.0)
    d = DeadlineStats(25.0, 1.0)
    with pytest.raises(ConfigError):
        d.observe(-1.0)


def test_load_estimator_roll_cycle():
    le = LoadEstimator(interval=500e-6)
    le.account(1500)
    le.account(1500)
    assert le.roll() == 3000
    assert le.last_packets == 2
    assert le.rate_bps == pytest.approx(3000 * 8 / 500e-6)
    assert le.roll() == 0  # accumulators reset


def test_load_estimator_validation():
    with pytest.raises(ConfigError):
        LoadEstimator(0.0)
