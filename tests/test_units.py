"""Tests for unit helpers."""

import pytest

from repro import units


def test_time_conversions():
    assert units.milliseconds(5) == pytest.approx(5e-3)
    assert units.microseconds(100) == pytest.approx(100e-6)


def test_size_conversions():
    assert units.KB(100) == 100_000
    assert units.MB(10) == 10_000_000
    assert units.KiB(64) == 65536


def test_rate_conversions():
    assert units.Mbps(20) == 20e6
    assert units.Gbps(1) == 1e9


def test_serialization_delay():
    # 1500 bytes at 1 Gbps = 12 microseconds
    assert units.serialization_delay(1500, units.Gbps(1)) == pytest.approx(12e-6)


def test_serialization_delay_rejects_bad_rate():
    with pytest.raises(ValueError):
        units.serialization_delay(1500, 0)


def test_packet_constants_consistent():
    assert units.DEFAULT_PACKET_BYTES == units.DEFAULT_MSS + units.DEFAULT_HEADER
