"""Tests for switch routing and the LB hook."""

import pytest

from repro.errors import RoutingError, SchemeError, TopologyError
from repro.lb.base import LoadBalancer
from repro.net.switch import Switch

from tests.conftest import Sink, make_packet, make_port


class PickFirst(LoadBalancer):
    name = "pickfirst"

    def __init__(self):
        super().__init__()
        self.seen = []

    def select_port(self, pkt, ports):
        self.seen.append(pkt.seq)
        return ports[0]


def _switch_with_two_paths(sim):
    sw = Switch(sim, "leaf0")
    sink_a, sink_b = Sink("a"), Sink("b")
    pa = make_port(sim, sink_a, name="leaf0->a")
    pb = make_port(sim, sink_b, name="leaf0->b")
    sw.add_port("a", pa)
    sw.add_port("b", pb)
    return sw, sink_a, sink_b, pa, pb


def test_single_candidate_bypasses_lb(sim):
    sw, sink_a, _, pa, _ = _switch_with_two_paths(sim)
    sw.set_route("h1", [pa])
    sw.receive(make_packet())
    sim.run()
    assert len(sink_a.received) == 1


def test_multi_candidate_requires_lb(sim):
    sw, *_, pa, pb = _switch_with_two_paths(sim)
    sw.set_route("h1", [pa, pb])
    with pytest.raises(RoutingError):
        sw.receive(make_packet())


def test_lb_consulted_for_multipath(sim):
    sw, sink_a, sink_b, pa, pb = _switch_with_two_paths(sim)
    sw.set_route("h1", [pa, pb])
    lb = PickFirst()
    sw.attach_lb(lb)
    sw.receive(make_packet(seq=0))
    sw.receive(make_packet(seq=1))
    sim.run()
    assert lb.seen == [0, 1]
    assert len(sink_a.received) == 2
    assert len(sink_b.received) == 0


def test_no_route_raises(sim):
    sw = Switch(sim, "leaf0")
    with pytest.raises(RoutingError):
        sw.receive(make_packet())


def test_duplicate_port_rejected(sim, sink):
    sw = Switch(sim, "leaf0")
    sw.add_port("a", make_port(sim, sink))
    with pytest.raises(TopologyError):
        sw.add_port("a", make_port(sim, sink))


def test_empty_route_rejected(sim):
    sw = Switch(sim, "leaf0")
    with pytest.raises(TopologyError):
        sw.set_route("h1", [])


def test_lb_bind_rejects_double_bind(sim):
    sw1, *_ = _switch_with_two_paths(sim)
    sw2 = Switch(sim, "leaf1")
    lb = PickFirst()
    sw1.attach_lb(lb)
    with pytest.raises(SchemeError):
        sw2.attach_lb(lb)


def test_packets_forwarded_counter(sim):
    sw, _, _, pa, _ = _switch_with_two_paths(sim)
    sw.set_route("h1", [pa])
    for seq in range(4):
        sw.receive(make_packet(seq=seq))
    assert sw.packets_forwarded == 4


