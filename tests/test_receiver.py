"""Unit tests for the TCP receiver (cumulative ACKs, dup ACKs, reassembly)."""

import pytest

from repro.errors import TransportError
from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.transport.flow import Flow, FlowRegistry
from repro.transport.receiver import TcpReceiver, make_listener

from tests.test_tcp import FakeHost


def make_receiver(n_packets=5):
    sim = Simulator()
    host = FakeHost(sim, name="h1")
    flow = Flow(id=1, src="h0", dst="h1", size=n_packets * 1460, start_time=0.0)
    reg = FlowRegistry()
    stats = reg.add(flow)
    rx = TcpReceiver(sim, host, flow, stats, reg)
    return sim, host, rx, stats, reg


def data(seq, *, marked=False, size=1500):
    return Packet(1, "h0", "h1", seq, size, ecn_marked=marked)


def syn():
    return Packet(1, "h0", "h1", 0, 40, syn=True)


def fin(seq=5):
    return Packet(1, "h0", "h1", seq, 40, fin=True)


def test_syn_answered_with_syn_ack():
    sim, host, rx, stats, _ = make_receiver()
    rx.handle(syn())
    assert len(host.sent) == 1
    sa = host.sent[0]
    assert sa.is_ack and sa.syn
    assert sa.src == "h1" and sa.dst == "h0"


def test_in_order_delivery_acks_cumulatively():
    sim, host, rx, stats, _ = make_receiver()
    for seq in range(3):
        rx.handle(data(seq))
    acks = [p.seq for p in host.sent]
    assert acks == [1, 2, 3]
    assert stats.packets_received == 3
    assert stats.dup_acks_sent == 0
    assert stats.out_of_order == 0


def test_gap_generates_dup_acks():
    sim, host, rx, stats, _ = make_receiver()
    rx.handle(data(0))
    rx.handle(data(2))  # hole at 1
    rx.handle(data(3))
    acks = [p.seq for p in host.sent]
    assert acks == [1, 1, 1]
    assert stats.dup_acks_sent == 2
    assert stats.out_of_order == 2


def test_hole_fill_delivers_buffered():
    sim, host, rx, stats, reg = make_receiver()
    deliveries = []
    reg.subscribe_delivery(lambda f, t, n: deliveries.append(n))
    rx.handle(data(0))
    rx.handle(data(2))
    rx.handle(data(1))  # fills the hole: 1 and 2 delivered together
    assert host.sent[-1].seq == 3
    assert deliveries == [1460, 2920]


def test_completion_recorded_once():
    sim, host, rx, stats, reg = make_receiver(n_packets=2)
    completions = []
    reg.subscribe_completion(lambda s: completions.append(s.flow.id))
    rx.handle(data(0))
    sim._now = 0.5
    rx.handle(data(1))
    assert stats.completed == 0.5
    rx.handle(data(1))  # spurious retransmit after completion
    assert completions == [1]


def test_fin_after_all_data_gets_fin_ack():
    sim, host, rx, stats, _ = make_receiver(n_packets=2)
    rx.handle(data(0))
    rx.handle(data(1))
    rx.handle(fin(2))
    assert host.sent[-1].fin and host.sent[-1].is_ack


def test_fin_before_all_data_reasserts_hole():
    sim, host, rx, stats, _ = make_receiver(n_packets=3)
    rx.handle(data(0))
    rx.handle(fin(3))  # data 1,2 still missing
    last = host.sent[-1]
    assert not last.fin
    assert last.seq == 1


def test_ecn_echo_mirrors_mark():
    sim, host, rx, stats, _ = make_receiver()
    rx.handle(data(0, marked=True))
    rx.handle(data(1, marked=False))
    assert host.sent[0].ecn_echo is True
    assert host.sent[1].ecn_echo is False
    assert stats.ecn_marks == 1


def test_spurious_retransmit_counts_dup_ack():
    sim, host, rx, stats, _ = make_receiver()
    rx.handle(data(0))
    rx.handle(data(0))  # already delivered
    assert [p.seq for p in host.sent] == [1, 1]
    assert stats.dup_acks_sent == 1
    # but it is NOT an out-of-order arrival
    assert stats.out_of_order == 0


def test_dupack_notification():
    sim, host, rx, stats, reg = make_receiver()
    dups = []
    reg.subscribe_dupack(lambda f, t: dups.append(f.id))
    rx.handle(data(0))
    rx.handle(data(2))
    assert dups == [1]


def test_bytes_delivered_counts_payload_only():
    sim, host, rx, stats, _ = make_receiver(n_packets=2)
    rx.handle(data(0))
    rx.handle(data(1))
    assert stats.bytes_delivered == 2 * 1460


def test_make_listener_builds_receiver_from_registry():
    sim = Simulator()
    host = FakeHost(sim, name="h1")
    reg = FlowRegistry()
    flow = Flow(id=9, src="h0", dst="h1", size=1460, start_time=0.0)
    reg.add(flow)
    listener = make_listener(sim, reg)
    pkt = Packet(9, "h0", "h1", 0, 40, syn=True)
    rx = listener(host, pkt)
    assert isinstance(rx, TcpReceiver)
    assert rx.flow is flow


# -- the predicted segment and its boundaries -----------------------------------

def make_uneven_receiver():
    sim = Simulator()
    host = FakeHost(sim, name="h1")
    flow = Flow(id=1, src="h0", dst="h1", size=3 * 1460 + 100, start_time=0.0)
    reg = FlowRegistry()
    stats = reg.add(flow)
    return host, TcpReceiver(sim, host, flow, stats, reg), stats, flow


@pytest.mark.parametrize("order", [(0, 1, 2, 3), (3, 0, 1, 2), (3, 2, 0, 1)])
def test_uneven_flow_delivers_exactly_its_size(order):
    """The short last segment counts its own bytes whether it arrives in
    order or is drained from the reorder buffer."""
    host, rx, stats, flow = make_uneven_receiver()
    for seq in order:
        rx.handle(data(seq))
    assert stats.bytes_delivered == flow.size == 4480
    assert stats.completed is not None and rx.finished
    assert host.sent[-1].seq == 4


def test_late_delivery_subscriber_sees_every_later_segment():
    sim, host, rx, stats, reg = make_receiver()
    rx.handle(data(0))                           # nobody listening yet
    deliveries = []
    reg.subscribe_delivery(lambda f, t, n: deliveries.append(n))
    rx.handle(data(1))
    rx.handle(data(2))
    assert deliveries == [1460, 1460]


def test_in_order_arrival_with_a_buffered_segment_drains_the_buffer():
    """A non-empty reorder buffer is never the predicted case: the
    in-order arrival must go through ``_advance``."""
    sim, host, rx, stats, reg = make_receiver()
    deliveries = []
    reg.subscribe_delivery(lambda f, t, n: deliveries.append(n))
    rx.handle(data(0))
    rx.handle(data(3))                           # buffered, hole at 1..2
    rx.handle(data(1))                           # in order, 3 still waits
    assert rx.rcv_nxt == 2 and rx._ooo_buffer == {3}
    rx.handle(data(2))                           # in order, drains 3
    assert rx.rcv_nxt == 4 and not rx._ooo_buffer
    assert [p.seq for p in host.sent] == [1, 1, 2, 4]
    assert deliveries == [1460, 1460, 2920]
    assert stats.dup_acks_sent == 1 and stats.out_of_order == 1


def test_data_segment_beyond_the_flow_is_rejected():
    sim, host, rx, stats, _ = make_receiver(n_packets=2)
    rx.handle(data(0))
    rx.handle(data(1))
    with pytest.raises(TransportError):
        rx.handle(data(2))
