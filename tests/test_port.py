"""Tests for the queued output port (serialisation, drops, ECN, tracing)."""

import random

import pytest

from repro.errors import ConfigError
from repro.net.port import Port
from repro.sim.engine import Simulator
from repro.sim.trace import NullTracer, RecordingTracer
from repro.units import Gbps, Mbps, microseconds

from tests.conftest import Sink, make_packet, make_port


def test_single_packet_delivery_timing(sim, sink):
    # 1500 B at 1 Gbps = 12 us serialisation + 10 us propagation.
    port = make_port(sim, sink)
    port.enqueue(make_packet(size=1500))
    sim.run()
    assert len(sink.received) == 1
    assert sim.now == pytest.approx(22e-6)


def test_fifo_order(sim, sink):
    port = make_port(sim, sink)
    for seq in range(5):
        port.enqueue(make_packet(seq=seq))
    sim.run()
    assert [p.seq for p in sink.received] == [0, 1, 2, 3, 4]


def test_serialisation_is_not_pipelined(sim, sink):
    """Two packets take two serialisation delays but share propagation."""
    port = make_port(sim, sink, rate=Gbps(1), delay=microseconds(10))
    port.enqueue(make_packet(seq=0, size=1500))
    port.enqueue(make_packet(seq=1, size=1500))
    sim.run()
    # second packet: 2 * 12us serialisation + 10us propagation
    assert sim.now == pytest.approx(34e-6)


def test_queue_length_excludes_in_flight(sim, sink):
    port = make_port(sim, sink)
    port.enqueue(make_packet(seq=0))
    assert port.queue_length == 0  # immediately started transmitting
    port.enqueue(make_packet(seq=1))
    assert port.queue_length == 1
    assert port.busy


def test_drop_tail_when_buffer_full(sim, sink):
    port = make_port(sim, sink, buffer_packets=2)
    # 1 transmitting + 2 queued fills the buffer; the 4th must drop.
    assert port.enqueue(make_packet(seq=0))
    assert port.enqueue(make_packet(seq=1))
    assert port.enqueue(make_packet(seq=2))
    assert not port.enqueue(make_packet(seq=3))
    assert port.stats.dropped == 1
    sim.run()
    assert [p.seq for p in sink.received] == [0, 1, 2]


def test_ecn_marks_above_threshold(sim, sink):
    port = make_port(sim, sink, buffer_packets=10, ecn_threshold=2)
    pkts = [make_packet(seq=i, ecn_capable=True) for i in range(5)]
    for p in pkts:
        port.enqueue(p)
    sim.run()
    # Queue occupancy at enqueue time: 0,0(being tx? no: first starts tx),
    # the packets that saw >= 2 queued are marked.
    marked = [p.seq for p in sink.received if p.ecn_marked]
    assert marked == [3, 4]
    assert port.stats.ecn_marked == 2


def test_ecn_ignores_non_capable_and_acks(sim, sink):
    port = make_port(sim, sink, buffer_packets=10, ecn_threshold=1)
    port.enqueue(make_packet(seq=0, ecn_capable=False))
    port.enqueue(make_packet(seq=1, ecn_capable=False))
    port.enqueue(make_packet(seq=2, is_ack=True, ecn_capable=True, size=40))
    sim.run()
    assert all(not p.ecn_marked for p in sink.received)


def test_stats_accumulate(sim, sink):
    port = make_port(sim, sink)
    for seq in range(3):
        port.enqueue(make_packet(seq=seq, size=1000))
    sim.run()
    s = port.stats
    assert s.enqueued == 3
    assert s.transmitted == 3
    assert s.bytes_transmitted == 3000
    assert s.busy_time == pytest.approx(3 * 8000 / Gbps(1))


def test_utilization(sim, sink):
    port = make_port(sim, sink, rate=Mbps(8), delay=0.0)  # 1 ms per 1000 B
    port.enqueue(make_packet(size=1000))
    sim.run()
    assert port.stats.utilization(0.002) == pytest.approx(0.5)
    assert port.stats.utilization(0.0) == 0.0


def test_trace_records_enqueue_dequeue(sim, sink):
    tracer = RecordingTracer()
    port = make_port(sim, sink, tracer=tracer)
    port.enqueue(make_packet(seq=0))
    port.enqueue(make_packet(seq=1))
    sim.run()
    assert tracer.count("enqueue") == 2
    assert tracer.count("dequeue") == 2
    # First packet saw an empty queue; second saw one packet... the first
    # was already transmitting, so qlen recorded for seq=1 is 0 as well.
    assert tracer.of_kind("enqueue")[0].fields["qlen"] == 0
    waits = [r.fields["wait"] for r in tracer.of_kind("dequeue")]
    assert waits[0] == pytest.approx(0.0)
    assert waits[1] > 0


def test_trace_records_drop(sim, sink):
    tracer = RecordingTracer()
    port = make_port(sim, sink, buffer_packets=1, tracer=tracer)
    port.enqueue(make_packet(seq=0))
    port.enqueue(make_packet(seq=1))
    port.enqueue(make_packet(seq=2))
    assert tracer.count("drop") == 1
    assert tracer.of_kind("drop")[0].fields["seq"] == 2


def test_queue_bytes_tracks_queued_payload(sim, sink):
    port = make_port(sim, sink)
    port.enqueue(make_packet(seq=0, size=1000))  # starts transmitting
    port.enqueue(make_packet(seq=1, size=500))
    port.enqueue(make_packet(seq=2, size=300))
    assert port.queue_bytes == 800
    sim.run()
    assert port.queue_bytes == 0


# -- fail()/recover() mode transitions (regression: the mode used to be
# -- reassigned before the already-down guard, skipping its consequences)


def test_fail_park_then_drop_flushes_parked_queue(sim, sink):
    """Switching a down port from park to drop discards what was parked."""
    port = make_port(sim, sink)
    port.enqueue(make_packet(seq=0))  # in service
    port.enqueue(make_packet(seq=1))
    port.enqueue(make_packet(seq=2))
    port.fail("park")
    assert port.queue_length == 2  # parked, not dropped
    port.fail("drop")  # the cable is now cut: parked packets are gone
    assert port.down_mode == "drop"
    assert port.queue_length == 0
    assert port.stats.dropped == 2
    sim.run()
    # The packet that was mid-serialisation at the cut is lost too.
    assert sink.received == []
    assert port.stats.dropped == 3


def test_fail_drop_then_park_holds_subsequent_arrivals(sim, sink):
    """Switching a down port from drop to park starts parking arrivals."""
    port = make_port(sim, sink)
    port.fail("drop")
    assert not port.enqueue(make_packet(seq=0))  # discarded while cut
    port.fail("park")
    assert port.down_mode == "park"
    assert port.enqueue(make_packet(seq=1))  # held
    assert port.queue_length == 1
    port.recover()
    sim.run()
    assert [p.seq for p in sink.received] == [1]


def test_fail_same_mode_while_down_is_idempotent(sim, sink):
    port = make_port(sim, sink)
    port.enqueue(make_packet(seq=0))
    port.enqueue(make_packet(seq=1))
    port.fail("park")
    dropped = port.stats.dropped
    port.fail("park")  # no-op: nothing flushed, mode unchanged
    assert port.stats.dropped == dropped
    assert port.queue_length == 1


# -- busy_time accounting (regression: the whole serialisation delay used
# -- to be credited when transmission *started*)


def test_busy_time_credited_at_completion(sim, sink):
    port = make_port(sim, sink, rate=Mbps(8), delay=0.0)  # 1 ms per 1000 B
    port.enqueue(make_packet(size=1000))
    sim.run(until=0.0004)
    # Mid-serialisation: nothing completed yet, so the counter reads 0 —
    # a utilization sample here must not claim a full packet of work.
    assert port.stats.busy_time == 0.0
    assert port.busy_time_now() == pytest.approx(0.0004)
    sim.run()
    assert port.stats.busy_time == pytest.approx(0.001)
    assert port.busy_time_now() == pytest.approx(0.001)


def test_snapshot_pro_rates_in_progress_serialisation(sim, sink):
    port = make_port(sim, sink, rate=Mbps(8), delay=0.0)
    port.enqueue(make_packet(size=1000))
    sim.run(until=0.0005)
    _, busy, _, _, _ = port.snapshot()
    assert busy == pytest.approx(0.0005)


def test_busy_time_pro_rated_when_link_cut_mid_packet(sim, sink):
    port = make_port(sim, sink, rate=Mbps(8), delay=0.0)
    port.enqueue(make_packet(size=1000))
    sim.run(until=0.00025)
    port.fail("drop")
    sim.run()
    # The transmitter ran for a quarter of the packet before the cut;
    # the packet itself is lost, not delivered.
    assert port.stats.busy_time == pytest.approx(0.00025)
    assert sink.received == []
    assert port.stats.transmitted == 0
    assert port.stats.dropped == 1


# -- ECN accounting (regression: a packet arriving already CE-marked from
# -- an upstream hop used to be counted and traced again at every
# -- congested downstream hop)


class _Relay:
    """A node that forwards every received packet to another port."""

    def __init__(self, port):
        self.name = "relay"
        self.port = port

    def receive(self, pkt):
        self.port.enqueue(pkt)


def test_ecn_counts_only_fresh_marks_across_two_hops(sim, sink):
    tracer = RecordingTracer()
    second = Port(sim, "hop2", Mbps(100), 0.0, sink,
                  ecn_threshold=1, tracer=tracer)
    first = Port(sim, "hop1", Gbps(1), microseconds(1), _Relay(second),
                 ecn_threshold=1, tracer=tracer)
    for seq in range(3):
        first.enqueue(make_packet(seq=seq, size=1000, ecn_capable=True))
    sim.run()
    # seq=2 saw a non-empty queue at hop1 and was marked there.  It also
    # sees congestion at the slower hop2, but arrives already marked:
    # hop2 must neither count nor trace it again.
    assert [p.seq for p in sink.received if p.ecn_marked] == [2]
    assert first.stats.ecn_marked == 1
    assert second.stats.ecn_marked == 0
    marks = tracer.of_kind("mark")
    assert [(r.fields["port"], r.fields["seq"]) for r in marks] == [("hop1", 2)]


def test_invalid_configs_rejected(sim, sink):
    with pytest.raises(ConfigError):
        Port(sim, "p", 0, 0.0, sink)
    with pytest.raises(ConfigError):
        Port(sim, "p", 1e9, -1.0, sink)
    with pytest.raises(ConfigError):
        Port(sim, "p", 1e9, 0.0, sink, buffer_packets=0)
    with pytest.raises(ConfigError):
        Port(sim, "p", 1e9, 0.0, sink, ecn_threshold=0)


# -- one event per hop -------------------------------------------------------

def test_uncontended_hop_costs_one_event(sim, sink):
    port = make_port(sim, sink)
    for i in range(3):  # spaced beyond a serialisation: never queued
        sim.schedule(i * 50e-6, port.enqueue, make_packet(seq=i))
    sim.run()
    assert len(sink.received) == 3
    assert sim.events_processed == 3 + 3  # arrivals + deliveries, nothing else
    assert port.stats.transmitted == 3
    assert port.stats.busy_time == pytest.approx(36e-6)


def test_queued_hop_arms_one_completion_per_busy_period_packet(sim, sink):
    port = make_port(sim, sink)
    for seq in range(4):  # back to back: three wait behind the first
        port.enqueue(make_packet(seq=seq))
    sim.run()
    assert [p.seq for p in sink.received] == [0, 1, 2, 3]
    # four deliveries + the three completions that started a next packet;
    # the last serialisation ends with nothing waiting and needs no event
    assert sim.events_processed == 4 + 3


def test_counters_are_exact_without_a_completion_event(sim, sink):
    """The lazy completion is settled by whoever looks first."""
    port = make_port(sim, sink, delay=microseconds(100))
    port.enqueue(make_packet(size=1500))       # serialises 0..12 us
    sim.run(until=6e-6)
    assert port.busy and port.stats.transmitted == 0
    assert port.busy_time_now() == pytest.approx(6e-6)
    sim.run(until=12e-6)                        # exactly _free_at
    assert sim.events_processed == 0            # the delivery is at 112 us
    assert not port.busy
    assert port.stats.transmitted == 1
    assert port.stats.bytes_transmitted == 1500
    assert port.stats.busy_time == pytest.approx(12e-6)
    assert port.snapshot()[1] == pytest.approx(12e-6)
    sim.run()
    assert len(sink.received) == 1 and port.stats.transmitted == 1


def test_link_cut_mid_serialisation_revokes_the_scheduled_delivery(sim, sink):
    port = make_port(sim, sink)
    port.enqueue(make_packet(seq=0))
    assert sim.pending == 1                     # the delivery
    sim.run(until=5e-6)
    port.fail("drop")
    assert sim.pending == 1                     # now the armed completion
    sim.run()
    assert sink.received == []
    assert port.stats.dropped == 1 and port.stats.transmitted == 0
    assert port.stats.busy_time == pytest.approx(5e-6)
    assert sim.now == pytest.approx(12e-6)


def test_link_back_before_completion_still_delivers(sim, sink):
    port = make_port(sim, sink)
    port.enqueue(make_packet(seq=0))
    sim.run(until=5e-6)
    port.fail("park")
    sim.run(until=7e-6)
    port.recover()
    sim.run()
    assert [p.seq for p in sink.received] == [0]
    assert sim.now == pytest.approx(22e-6)      # 12 us + 10 us, as uncut
    assert port.stats.transmitted == 1 and port.stats.dropped == 0
    assert port.stats.busy_time == pytest.approx(5e-6)  # pre-cut share only


# -- the predicted arrival: in-place serialisation start ---------------------------

def _start_state(sim, port):
    """Everything a serialisation start writes, and what it left behind."""
    s = port.stats
    return (
        tuple(getattr(s, name) for name in type(s).__slots__),
        port._busy, port._tx_start, port._tx_pkt.seq, port._tx_time,
        port._tx_seq, port._free_at, port._armed, port.queue_bytes,
        sorted(entry[:2] for entry in sim._heap),
    )


def test_in_place_starts_leave_what_transmit_leaves():
    """An untraced port starts serialisations inside ``enqueue`` and
    ``_transmission_done``; a traced one goes through ``_transmit``.
    Same arrivals, same counters, transmitter state and calendar."""
    runs = []
    for tracer in (None, RecordingTracer()):
        sim = Simulator()
        port = make_port(sim, Sink(), tracer=tracer)
        assert port._plain is (tracer is None)
        states = []

        def arrive(seq, size):
            port.enqueue(make_packet(seq=seq, size=size))
            states.append(_start_state(sim, port))

        sim.schedule(0.0, arrive, 0, 1500)      # idle: starts at once
        sim.schedule(1e-6, arrive, 1, 400)      # queues; completion starts it
        sim.schedule(2e-6, arrive, 2, 1500)     # queues behind 1
        sim.schedule(12.5e-6, lambda: states.append(_start_state(sim, port)))
        sim.schedule(100e-6, arrive, 3, 40)     # idle again, settles first
        sim.run()
        states.append(_start_state(sim, port))
        runs.append((states, sim.events_processed, sim.now))
    assert runs[0] == runs[1]


def test_plain_follows_tracer_link_state_and_loss(sim, sink):
    port = make_port(sim, sink)
    assert port._plain
    port.tracer = RecordingTracer()
    assert not port._plain
    port.tracer = NullTracer()
    assert port._plain
    port.fail("park")
    assert not port._plain
    port.enqueue(make_packet(seq=0))             # parked, not started
    assert port.queue_length == 1 and not port.busy
    port.recover()
    assert port._plain and port.busy
    port.set_loss(0.5, random.Random(1))
    assert not port._plain
    port.loss_rate = 0.0
    assert port._plain
