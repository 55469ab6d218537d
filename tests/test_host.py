"""Tests for host demultiplexing."""

import pytest

from repro.errors import TransportError
from repro.net.host import Host
from repro.net.packet import Packet

from tests.conftest import make_packet, make_port


class Recorder:
    def __init__(self):
        self.packets = []

    def handle(self, pkt):
        self.packets.append(pkt)


def test_send_requires_nic(sim):
    h = Host(sim, "h0")
    with pytest.raises(TransportError):
        h.send(make_packet())


def test_send_stamps_sent_time_and_enqueues(sim, sink):
    h = Host(sim, "h0")
    h.attach_nic(make_port(sim, sink))
    sim.call_later(0.5, h.send, make_packet())
    sim.run()
    assert len(sink.received) == 1
    assert sink.received[0].sent_time == pytest.approx(0.5)


def test_double_nic_rejected(sim, sink):
    h = Host(sim, "h0")
    h.attach_nic(make_port(sim, sink))
    with pytest.raises(TransportError):
        h.attach_nic(make_port(sim, sink))


def test_ack_routed_to_sender(sim):
    h = Host(sim, "h0")
    rec = Recorder()
    h.register_sender(5, rec)
    ack = Packet(5, "h1", "h0", 3, 40, is_ack=True)
    h.receive(ack)
    assert rec.packets == [ack]


def test_ack_for_unknown_flow_dropped_silently(sim):
    h = Host(sim, "h0")
    h.receive(Packet(99, "h1", "h0", 0, 40, is_ack=True))  # no raise


def test_duplicate_sender_rejected(sim):
    h = Host(sim, "h0")
    h.register_sender(1, Recorder())
    with pytest.raises(TransportError):
        h.register_sender(1, Recorder())


def test_data_for_unknown_flow_uses_listener(sim):
    h = Host(sim, "h0")
    created = []

    def listener(host, pkt):
        rec = Recorder()
        created.append((host, pkt.flow_id))
        return rec

    h.set_listener(listener)
    p1 = make_packet(flow_id=3, seq=0, syn=True)
    p2 = make_packet(flow_id=3, seq=1)
    h.receive(p1)
    h.receive(p2)
    assert created == [(h, 3)]  # listener invoked once
    assert len(h.receivers[3].packets) == 2


def test_data_without_listener_raises(sim):
    h = Host(sim, "h0")
    with pytest.raises(TransportError):
        h.receive(make_packet(flow_id=1))


def test_unregister_flow(sim):
    h = Host(sim, "h0")
    h.register_sender(1, Recorder())
    h.receivers[1] = Recorder()
    h.unregister_flow(1)
    assert 1 not in h.senders and 1 not in h.receivers
    h.unregister_flow(1)  # idempotent


def test_packets_received_counter(sim):
    h = Host(sim, "h0")
    h.set_listener(lambda host, pkt: Recorder())
    for seq in range(3):
        h.receive(make_packet(flow_id=1, seq=seq))
    assert h.packets_received == 3
