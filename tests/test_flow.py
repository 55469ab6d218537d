"""Tests for Flow, FlowStats and FlowRegistry."""

import pytest

from repro.errors import ConfigError, TransportError
from repro.transport.flow import Flow, FlowRegistry


def _flow(**kw):
    base = dict(id=1, src="h0", dst="h1", size=70_000, start_time=0.0)
    base.update(kw)
    return Flow(**base)


def test_n_packets_rounds_up():
    assert _flow(size=1460).n_packets == 1
    assert _flow(size=1461).n_packets == 2
    assert _flow(size=14600).n_packets == 10


def test_payload_of_last_packet():
    f = _flow(size=3000)  # 3 packets: 1460 + 1460 + 80
    assert f.payload_of(0) == 1460
    assert f.payload_of(1) == 1460
    assert f.payload_of(2) == 80
    assert sum(f.payload_of(i) for i in range(f.n_packets)) == 3000


def test_payload_of_out_of_range():
    f = _flow(size=3000)
    with pytest.raises(TransportError):
        f.payload_of(3)
    with pytest.raises(TransportError):
        f.payload_of(-1)


def test_absolute_deadline():
    assert _flow(start_time=1.0, deadline=0.01).absolute_deadline == pytest.approx(1.01)
    assert _flow().absolute_deadline is None


def test_invalid_flows_rejected():
    with pytest.raises(ConfigError):
        _flow(size=0)
    with pytest.raises(ConfigError):
        _flow(dst="h0")
    with pytest.raises(ConfigError):
        _flow(deadline=0.0)
    with pytest.raises(ConfigError):
        _flow(mss=0)


def test_stats_fct_and_deadline():
    reg = FlowRegistry()
    stats = reg.add(_flow(start_time=1.0, deadline=0.010))
    assert stats.fct is None
    assert stats.missed_deadline is True  # never completed counts as missed
    stats.completed = 1.005
    assert stats.fct == pytest.approx(0.005)
    assert stats.missed_deadline is False
    stats.completed = 1.020
    assert stats.missed_deadline is True


def test_stats_no_deadline_is_none():
    reg = FlowRegistry()
    stats = reg.add(_flow())
    stats.completed = 0.5
    assert stats.missed_deadline is None


def test_goodput():
    reg = FlowRegistry()
    stats = reg.add(_flow(size=125_000, start_time=0.0))
    stats.completed = 1.0
    assert stats.goodput == pytest.approx(1_000_000)  # 125 kB in 1 s = 1 Mbps


def test_ratios():
    reg = FlowRegistry()
    stats = reg.add(_flow())
    assert stats.reordering_ratio == 0.0
    assert stats.dup_ack_ratio == 0.0
    stats.packets_received = 10
    stats.out_of_order = 2
    stats.acks_sent = 10
    stats.dup_acks_sent = 5
    assert stats.reordering_ratio == pytest.approx(0.2)
    assert stats.dup_ack_ratio == pytest.approx(0.5)


def test_registry_duplicate_id_rejected():
    reg = FlowRegistry()
    reg.add(_flow())
    with pytest.raises(ConfigError):
        reg.add(_flow())


def test_registry_lookup_and_iteration():
    reg = FlowRegistry()
    f1, f2 = _flow(id=1), _flow(id=2)
    reg.add(f1)
    reg.add(f2)
    assert reg.flow(1) is f1
    assert reg.stats(2).flow is f2
    assert len(reg) == 2
    assert {f.id for f in reg} == {1, 2}
    with pytest.raises(TransportError):
        reg.flow(3)


def test_registry_observers():
    reg = FlowRegistry()
    f = _flow()
    stats = reg.add(f)
    deliveries, completions, dups = [], [], []
    reg.subscribe_delivery(lambda fl, t, n: deliveries.append((fl.id, t, n)))
    reg.subscribe_completion(lambda s: completions.append(s.flow.id))
    reg.subscribe_dupack(lambda fl, t: dups.append(t))
    reg.notify_delivery(f, 0.1, 1460)
    reg.notify_completion(stats)
    reg.notify_dupack(f, 0.2)
    assert deliveries == [(1, 0.1, 1460)]
    assert completions == [1]
    assert dups == [0.2]


