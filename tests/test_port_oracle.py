"""Differential oracle for the one-event port.

:class:`TwoEventPort` is the port as it was before serialisation
completions became lazy: one ``_done`` event per packet, which credits
the counters, schedules the delivery and starts the next packet.  It is
kept here, small and obviously right, as the reference
:class:`~repro.net.port.Port` is driven against: the same generated
schedule on both must produce the same deliveries at the same times and
the same ``stats`` / ``busy`` / ``queue_length`` / ``busy_time_now()``
at every probe instant.

Time runs in ticks of 2**-20 s on an 8·2**20 bit/s link, so one byte
serialises in exactly one tick and every sum below is exact in binary
floating point: a tie generated here is a tie the kernel sees.
"""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.packet import Packet
from repro.net.port import Port, PortStats
from repro.sim.trace import RecordingTracer
from repro.sim.engine import Simulator

TICK = 2.0 ** -20
RATE = 8.0 * 2 ** 20  # one byte per tick
SIZES = (1, 3, 8, 40)


class TwoEventPort:
    """The reference: a completion event and a delivery event per hop."""

    def __init__(self, sim, name, rate, delay, dst, *, buffer_packets=256,
                 ecn_threshold=None):
        self.sim, self.name, self.rate, self.delay, self.dst = \
            sim, name, rate, delay, dst
        self.buffer_packets, self.ecn_threshold = buffer_packets, ecn_threshold
        self.queue: deque = deque()
        self.queue_bytes = 0
        self.busy = False
        self.up, self.mode, self.tx_start = True, "drop", None
        self.stats = PortStats()

    queue_length = property(lambda self: len(self.queue))

    def busy_time_now(self):
        running = self.busy and self.tx_start is not None
        return self.stats.busy_time + (self.sim.now - self.tx_start if running else 0.0)

    def fail(self, mode="drop"):
        if self.up and self.busy and self.tx_start is not None:
            self.stats.busy_time += self.sim.now - self.tx_start
            self.tx_start = None
        self.up, self.mode = False, mode
        if mode == "drop":
            self.stats.dropped += len(self.queue)
            self.queue.clear()
            self.queue_bytes = 0

    def recover(self):
        if not self.up:
            self.up = True
            if self.queue and not self.busy:
                self._start()

    def enqueue(self, pkt):
        qlen = len(self.queue)
        if (not self.up and self.mode == "drop") or qlen >= self.buffer_packets:
            self.stats.dropped += 1
            return False
        if (self.ecn_threshold is not None and qlen >= self.ecn_threshold
                and pkt.ecn_capable and not pkt.ecn_marked):
            pkt.ecn_marked = True
            self.stats.ecn_marked += 1
        self.stats.enqueued += 1
        self.stats.bytes_enqueued += pkt.size
        self.queue_bytes += pkt.size
        self.queue.append(pkt)
        if not self.busy and self.up:
            self._start()
        return True

    def _start(self):
        pkt = self.queue.popleft()
        self.queue_bytes -= pkt.size
        self.busy, self.tx_start = True, self.sim.now
        tx = pkt.size * 8 / self.rate
        self.sim.call_later_fast(tx, self._done, pkt, tx)

    def _done(self, pkt, tx):
        if not self.up:  # cut mid-serialisation: lost on the wire
            self.busy = False
            self.stats.dropped += 1
            return
        self.stats.transmitted += 1
        self.stats.bytes_transmitted += pkt.size
        if self.tx_start is not None:
            self.stats.busy_time += tx
        self.sim.call_later_fast(self.delay, self.dst.receive, pkt)
        if self.queue:
            self._start()
        else:
            self.busy = False


class _Log:
    """Records deliveries; ``port`` is set once the port exists."""

    name = "sink"

    def __init__(self, sim):
        self.sim = sim
        self.delivered: list = []
        self.probes: list = []
        self.port = None

    def receive(self, pkt):
        self.delivered.append((self.sim.now, pkt.seq, pkt.ecn_marked))

    def probe(self):
        port, s = self.port, self.port.stats
        self.probes.append((
            self.sim.now, s.enqueued, s.dropped, s.transmitted,
            s.bytes_enqueued, s.bytes_transmitted, s.ecn_marked, s.busy_time,
            port.busy, port.queue_length, port.queue_bytes,
            port.busy_time_now()))


def _drive(port_cls, delay_ticks, ops, tracer=None):
    """Run one schedule; every op probes the port after acting."""
    sim = Simulator()
    log = _Log(sim)
    port = log.port = port_cls(sim, "p", RATE, delay_ticks * TICK, log,
                               buffer_packets=3, ecn_threshold=2)
    if tracer is not None:
        port.tracer = tracer
    seqs = iter(range(10_000))

    def send(size):
        port.enqueue(Packet(1, "a", "b", next(seqs), size, ecn_capable=True))

    def act(op, arg, follow_up):
        if op == "enqueue":
            send(arg)
            if follow_up is not None:
                # Scheduled *during* the run, so it sorts after this
                # serialisation's completion when the two tie — the
                # up-front ops sort before it.
                sim.call_later(follow_up * TICK, act, "enqueue", arg, None)
        elif op == "fail":
            port.fail(arg)
        elif op == "recover":
            port.recover()
        elif op == "rate":
            port.rate = RATE * arg
        log.probe()

    for when, op, arg, follow_up in ops:
        sim.schedule(when * TICK, act, op, arg, follow_up)
    sim.run()
    log.probe()
    return log.delivered, log.probes, sim.now


_OPS = st.one_of(
    st.tuples(st.just("enqueue"), st.sampled_from(SIZES),
              st.one_of(st.none(), st.sampled_from(SIZES + (0, 2)))),
    st.tuples(st.just("fail"), st.sampled_from(("drop", "park")), st.none()),
    st.tuples(st.just("recover"), st.none(), st.none()),
    st.tuples(st.just("probe"), st.none(), st.none()),
    st.tuples(st.just("rate"), st.sampled_from((0.5, 1.0, 2.0)), st.none()),
)
#: small integer times on purpose: arrivals land on completions
_SCHEDULES = st.lists(
    st.tuples(st.integers(0, 60), _OPS).map(lambda t: (t[0], *t[1])),
    min_size=1, max_size=40)


@settings(max_examples=300, deadline=None)
@given(delay_ticks=st.sampled_from((0, 1, 5, 64)), ops=_SCHEDULES)
def test_port_matches_two_event_reference(delay_ticks, ops):
    assert _drive(Port, delay_ticks, ops) == _drive(TwoEventPort, delay_ticks, ops)
    # a traced port takes the general enqueue/_transmit path throughout
    assert _drive(Port, delay_ticks, ops, RecordingTracer()) \
        == _drive(Port, delay_ticks, ops)


def test_enqueue_at_free_at_before_and_after_the_completion_position():
    """The tie rule, spelled out: at ``now == _free_at`` an event scheduled
    before the serialisation started still finds the port busy, one
    scheduled during it finds it idle."""
    busy, qlen, transmitted = 8, 9, 3  # probe columns
    # the follow-up is scheduled at tick 0, inside the serialisation 0..8
    after = [(0, "enqueue", 8, 8)]
    # the second arrival is scheduled up front, before it
    before = [(0, "enqueue", 8, None), (8, "enqueue", 3, None)]
    for ops in (after, before):
        assert _drive(Port, 5, ops) == _drive(TwoEventPort, 5, ops)
    at_tie = _drive(Port, 5, after)[1][1]
    assert at_tie[0] == 8 * TICK
    assert (at_tie[transmitted], at_tie[busy], at_tie[qlen]) == (1, True, 0)
    at_tie = _drive(Port, 5, before)[1][1]
    assert at_tie[0] == 8 * TICK
    assert (at_tie[transmitted], at_tie[busy], at_tie[qlen]) == (0, True, 1)


@pytest.mark.parametrize("port_cls", [Port, TwoEventPort])
@pytest.mark.parametrize("size_b, start_b", [
    (8, 0),  # B starts at the same instant as A, after it
    (3, 5),  # B starts mid-way through A; both end at tick 8
])
def test_synchronised_senders_deliver_in_start_order(port_cls, size_b, start_b):
    """Two NICs whose serialisations end at the same instant hand their
    packets downstream in the order the serialisations started."""
    sim = Simulator()
    log = _Log(sim)
    nic_a = port_cls(sim, "a", RATE, 5 * TICK, log)
    nic_b = port_cls(sim, "b", RATE, 5 * TICK, log)
    # B is scheduled first: it is start order that decides, not this
    sim.schedule(start_b * TICK, nic_b.enqueue, Packet(2, "b", "x", 1, size_b))
    sim.schedule(0.0, nic_a.enqueue, Packet(1, "a", "x", 0, 8))
    sim.run()
    first, second = (1, 0) if start_b == 0 else (0, 1)
    assert [(t / TICK, seq) for t, seq, _ in log.delivered] \
        == [(13.0, first), (13.0, second)]
