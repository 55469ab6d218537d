"""Output ports: a finite drop-tail FIFO plus a serialising link.

This is where every interesting data-plane behaviour of the paper lives:
queue build-up (Figs. 2/3/5), drop-tail loss, DCTCP's instantaneous-queue
ECN marking, and the queue-length signal that TLB, DRILL and CONGA-lite
read when picking paths.

Model
-----
A :class:`Port` is the *output* side of a unidirectional link.  Enqueueing
a packet on an idle port starts transmission immediately; otherwise the
packet waits in FIFO order.  Transmission holds the transmitter for the
serialisation delay ``size * 8 / rate``; the packet is then in flight for
the propagation ``delay`` and finally delivered to the neighbour node.
Propagation pipelines (multiple packets can be in flight); serialisation
does not.

One event per hop
-----------------
A packet hop costs **one** calendar event, the delivery.  When a
serialisation starts at ``t0`` the port

* *reserves* the sequence number ``R`` its completion would be scheduled
  under, and remembers ``_free_at = t0 + tx``;
* schedules ``dst.receive(pkt)`` straight away at ``(t0 + tx) + delay``.

The completion itself is lazy state.  Most of the time nothing looks at
the port between ``t0 + tx`` and its next packet, and the next touch —
:meth:`Port.enqueue`, or any of ``stats`` / ``busy`` /
``busy_time_now()`` / ``snapshot()`` / ``fail()`` — *settles* it first:
credits ``transmitted``, ``bytes_transmitted`` and ``busy_time`` and
clears the transmitter, exactly what the event would have done.  Every
observable therefore reads the same at every instant as if the
completion had fired on time.

A completion **event** (still :meth:`Port._transmission_done`, so
profiles keep attributing port time to that name) exists only when
something has to happen at ``_free_at``:

* a packet queues behind the busy transmitter — the event starts the
  next serialisation.  It is pushed at ``(_free_at, R)``, the calendar
  position reserved at ``t0``, so it runs in the order it always did;
* the link is cut mid-serialisation (:meth:`Port.fail`) — the packet on
  the wire must be lost unless the link is back by ``_free_at``, so the
  pending delivery is *revoked* from the calendar
  (:meth:`~repro.sim.engine.Simulator.revoke`, O(calendar), control-plane
  only) and the armed completion decides: drop, or deliver after
  ``delay`` as before.

**Tie rule.**  An enqueue at exactly ``now == _free_at`` must see the
transmitter busy if the completion's position ``(_free_at, R)`` has not
been reached and idle if it has.  The kernel publishes the sequence
number of the running event (``sim._cur_seq``); the port compares it
with ``R``.

**What differs from two events per hop.**  The delivery's sequence
number is drawn at serialisation start instead of at completion, so
among events scheduled for the *same float instant* a delivery can sort
differently from before when the other event was scheduled during the
serialisation.  No seeded outcome in the test suite or the benchmark
ladder changes (``tests/test_outcome_pins.py``); kernel event counts
fall by the share of completions that never needed an event.

Predicted arrival
-----------------
While a port is up, lossless and untraced (one slot, ``_plain``, kept
current by the ``tracer`` setter, :meth:`Port.fail` /
:meth:`Port.recover` and :meth:`Port.set_loss`), an arrival that finds
the transmitter idle finds the queue empty, so neither drop-tail nor ECN
marking can apply: ``enqueue`` counts the packet and starts its
serialisation in place.  An untraced ``_transmission_done`` starts the
next queued packet the same way.  Both write exactly what
:meth:`Port._transmit` writes, in the same order (the two sequence-number
draws, ``(now + tx) + delay``); a busy, parked, down, lossy or traced
port runs the general code, of which ``_transmit`` remains part.

Hot path
--------
``enqueue`` and ``_transmit`` run once per packet per hop, which makes
them the busiest Python frames of any full-fabric run.  They avoid
re-reading slots in loops, cache the serialisation delay per packet
size (invalidated when ``rate`` changes), collapse the per-record
``tracer.enabled`` checks into one cached boolean (kept in sync by the
``tracer`` property — the shared :class:`~repro.sim.trace.NullTracer`
costs a single slot read per call), read the clock as ``sim._now`` and
push handle-less ``(time, seq, fn, args)`` entries straight onto the
kernel's calendar.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import TYPE_CHECKING, Optional

from repro.errors import ConfigError
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer, NullTracer
from repro.units import BITS_PER_BYTE

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Node
    from repro.net.packet import Packet

__all__ = ["Port", "PortStats"]

_NULL_TRACER = NullTracer()


class PortStats:
    """Counters accumulated by one port over a run.

    ``busy_time`` is credited when a serialisation *completes* (plus the
    pre-cut fraction of a packet lost to :meth:`Port.fail`), never in
    advance; :meth:`Port.busy_time_now` pro-rates the in-progress packet
    for mid-run samplers.  ``ecn_marked`` counts only marks freshly
    applied by this port, not packets that arrived already CE-marked.
    Read through :attr:`Port.stats`, which first settles a completion
    that is due but never needed an event.
    """

    __slots__ = (
        "enqueued",
        "dropped",
        "transmitted",
        "bytes_enqueued",
        "bytes_transmitted",
        "ecn_marked",
        "busy_time",
    )

    def __init__(self) -> None:
        self.enqueued = 0
        self.dropped = 0
        self.transmitted = 0
        self.bytes_enqueued = 0
        self.bytes_transmitted = 0
        self.ecn_marked = 0
        self.busy_time = 0.0

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` the transmitter was busy."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)


class Port:
    """A finite FIFO output queue feeding a fixed-rate link.

    Parameters
    ----------
    sim:
        Owning simulator.
    name:
        Human-readable name, e.g. ``"leaf0->spine3"``.
    rate:
        Link bandwidth in bits/s.
    delay:
        One-way propagation delay in seconds.
    dst:
        The node that receives packets from this port.
    buffer_packets:
        Queue capacity in packets (the paper sizes buffers in packets:
        256 or 512).  The packet in transmission does not occupy a slot.
    ecn_threshold:
        Instantaneous-queue marking threshold *K* in packets; ``None``
        disables marking.  DCTCP's recommended K for 1 Gbps is ~20 pkts.
    tracer:
        Optional trace sink; receives ``enqueue``/``dequeue``/``drop``/
        ``mark`` trace points when enabled.
    loss_rate, loss_rng:
        Fault injection: drop each arriving packet independently with
        this probability (before queueing), using ``loss_rng`` (a
        ``random.Random``-like object with ``.random()``).  Zero by
        default; used by robustness tests and failure-injection
        experiments, not by the paper reproductions.  Post-construction
        changes go through :meth:`set_loss` (or the validating property
        setters), which enforce the same invariants as ``__init__``.

    Administrative state
    --------------------
    A port is *administratively up* by default.  :meth:`fail` takes the
    link down — either dropping traffic (``mode="drop"``: the queue is
    flushed and arrivals are discarded) or parking it (``mode="park"``:
    queued and arriving packets are held, transmission stops) — and
    :meth:`recover` brings it back, resuming transmission of anything
    parked.  A packet whose serialisation completes while the port is
    down is lost in both modes (it was on the wire when the link cut).
    This is the substrate the :mod:`repro.faults` injector drives.

    ``delay`` is read when a serialisation starts; change it between
    runs (static asymmetry), not under traffic.
    """

    __slots__ = (
        "sim",
        "name",
        "_rate",
        "delay",
        "dst",
        "buffer_packets",
        "ecn_threshold",
        "_tracer",
        "_trace",
        "_plain",
        "_queue",
        "_busy",
        "_stats",
        "queue_bytes",
        "_ser_cache",
        "_loss_rate",
        "_loss_rng",
        "_admin_up",
        "_down_mode",
        "_tx_start",
        "_tx_pkt",
        "_tx_time",
        "_tx_seq",
        "_free_at",
        "_armed",
        "_deliver",
    )

    def __init__(
        self,
        sim: Simulator,
        name: str,
        rate: float,
        delay: float,
        dst: "Node",
        *,
        buffer_packets: int = 256,
        ecn_threshold: Optional[int] = None,
        tracer: Tracer | None = None,
        loss_rate: float = 0.0,
        loss_rng=None,
    ):
        if rate <= 0:
            raise ConfigError(f"port {name}: rate must be positive, got {rate!r}")
        if delay < 0:
            raise ConfigError(f"port {name}: delay must be non-negative, got {delay!r}")
        if buffer_packets < 1:
            raise ConfigError(f"port {name}: buffer must hold >=1 packet")
        if ecn_threshold is not None and ecn_threshold < 1:
            raise ConfigError(f"port {name}: ECN threshold must be >=1 packet")
        self.sim = sim
        self.name = name
        self._ser_cache: dict[int, float] = {}
        self._rate = float(rate)
        self.delay = float(delay)
        self.dst = dst
        #: ``dst.receive``, bound once instead of once per packet
        self._deliver = dst.receive
        self.buffer_packets = int(buffer_packets)
        self.ecn_threshold = ecn_threshold
        self._queue: deque[Packet] = deque()
        #: a serialisation was started and its completion not yet settled
        #: (see :attr:`busy` for the exact reading)
        self._busy = False
        self._stats = PortStats()
        self.queue_bytes = 0
        self._loss_rate = 0.0
        self._loss_rng = None
        self._admin_up = True
        self._down_mode = "drop"
        self.tracer = tracer if tracer is not None else _NULL_TRACER
        #: when the serialisation in progress started; ``None`` once a
        #: link cut has credited its busy share and revoked its delivery
        self._tx_start: Optional[float] = None
        # The serialisation in progress (meaningful while ``_busy``): the
        # packet on the wire, its duration, the sequence number reserved
        # for its completion and when it ends.
        self._tx_pkt: Optional["Packet"] = None
        self._tx_time = 0.0
        self._tx_seq = -1
        self._free_at = 0.0
        #: the completion is an event in the calendar
        self._armed = False
        self.set_loss(loss_rate, loss_rng)

    # -- cached-attribute invariants --------------------------------------

    @property
    def rate(self) -> float:
        """Link bandwidth in bits/s.  Assigning (e.g. bandwidth
        asymmetry) invalidates the per-size serialisation-delay cache."""
        return self._rate

    @rate.setter
    def rate(self, rate: float) -> None:
        if rate <= 0:
            raise ConfigError(f"port {self.name}: rate must be positive, got {rate!r}")
        self._rate = float(rate)
        self._ser_cache.clear()

    @property
    def tracer(self) -> Tracer:
        """The trace sink.  Assigning keeps the hot path's cached
        ``enabled`` flag in sync."""
        return self._tracer

    @tracer.setter
    def tracer(self, tracer: Tracer) -> None:
        self._tracer = tracer
        self._trace = tracer.enabled
        self._update_plain()

    def _update_plain(self) -> None:
        """Keep :attr:`_plain` current: up, lossless and untraced — the
        port state under which ``enqueue`` starts an idle transmitter in
        place (module docstring).  Called by whatever changes one of
        the three."""
        self._plain = (self._admin_up and not self._trace
                       and self._loss_rate == 0.0)

    # -- fault injection: random loss ------------------------------------

    @property
    def loss_rate(self) -> float:
        """Per-packet injected loss probability (0 disables)."""
        return self._loss_rate

    @loss_rate.setter
    def loss_rate(self, rate: float) -> None:
        self.set_loss(rate, self._loss_rng)

    @property
    def loss_rng(self):
        """The RNG that drives injected loss (``.random()`` per packet)."""
        return self._loss_rng

    @loss_rng.setter
    def loss_rng(self, rng) -> None:
        self.set_loss(self._loss_rate, rng)

    def set_loss(self, rate: float, rng=None) -> None:
        """Set (or clear) injected loss, validating the pair atomically.

        ``rate`` must lie in ``[0, 1)`` and a positive rate requires an
        ``rng`` exposing ``.random()`` — the same invariants ``__init__``
        enforces, so post-construction mutation cannot silently create a
        port that crashes (or worse, never drops) on its next packet.
        """
        if not 0.0 <= rate < 1.0:
            raise ConfigError(f"port {self.name}: loss_rate must be in [0, 1)")
        if rate > 0.0 and rng is None:
            raise ConfigError(f"port {self.name}: loss_rate needs a loss_rng")
        if rng is not None and not callable(getattr(rng, "random", None)):
            raise ConfigError(
                f"port {self.name}: loss_rng must expose a random() method")
        self._loss_rate = float(rate)
        self._loss_rng = rng
        self._update_plain()

    # -- fault injection: administrative link state ----------------------

    @property
    def admin_up(self) -> bool:
        """Whether the link is administratively up (default True)."""
        return self._admin_up

    @property
    def down_mode(self) -> str:
        """How a down port treats packets: ``"drop"`` or ``"park"``."""
        return self._down_mode

    def fail(self, mode: str = "drop") -> None:
        """Take the link administratively down.  Idempotent.

        ``mode="drop"`` flushes the queue and discards arrivals (a cut
        cable); ``mode="park"`` holds queued and arriving packets until
        :meth:`recover` (a paused interface).  Either way the packet
        currently being serialised is lost when its transmission event
        fires.

        Calling :meth:`fail` on a port that is already down switches the
        mode *and applies its consequences*: ``park`` → ``drop`` flushes
        whatever was parked (the cable is now cut, the held packets are
        gone), ``drop`` → ``park`` starts holding subsequent arrivals.
        Earlier versions assigned the new mode but skipped the flush,
        leaving parked packets stranded in a drop-mode queue.
        """
        if mode not in ("drop", "park"):
            raise ConfigError(
                f"port {self.name}: down mode must be 'drop' or 'park', "
                f"got {mode!r}")
        if not self._admin_up:
            if mode != self._down_mode:
                self._down_mode = mode
                if mode == "drop" and self._queue:
                    self._flush_queue("link_down")
            return
        self._settle()
        self._down_mode = mode
        self._admin_up = False
        self._plain = False
        if self._busy and self._tx_start is not None:
            sim = self.sim
            # The transmitter was genuinely busy from serialisation start
            # until the cut; credit that fraction now, because the packet
            # on the wire is lost and its completion will credit nothing.
            self._stats.busy_time += sim._now - self._tx_start
            self._tx_start = None
            # Take the packet back off the wire (its delivery was
            # scheduled right after the reserved completion number) and
            # let the completion event decide its fate.
            sim.revoke(self._tx_seq + 1)
            if not self._armed:
                self._armed = True
                heappush(sim._heap, (self._free_at, self._tx_seq,
                                     self._transmission_done, ()))
        if mode == "drop" and self._queue:
            self._flush_queue("link_down")

    def _flush_queue(self, reason: str) -> None:
        """Drop everything queued (not the packet mid-serialisation)."""
        stats = self._stats
        queue = self._queue
        trace = self._trace
        while queue:
            pkt = queue.popleft()
            self.queue_bytes -= pkt.size
            stats.dropped += 1
            if trace:
                self._tracer.emit(
                    self.sim.now, "drop", port=self.name, flow=pkt.flow_id,
                    seq=pkt.seq, is_ack=pkt.is_ack, reason=reason,
                )

    def recover(self) -> None:
        """Bring the link administratively up again.  Idempotent.

        Parked packets resume transmission immediately.
        """
        if self._admin_up:
            return
        self._admin_up = True
        self._update_plain()
        # No settling: a port that went down busy has an armed completion.
        queue = self._queue
        if queue and not self._busy:
            pkt = queue.popleft()
            self.queue_bytes -= pkt.size
            self._transmit(pkt)

    # -- queue state (the congestion signals LB schemes read) ------------

    @property
    def queue_length(self) -> int:
        """Instantaneous queue occupancy in packets (excludes the packet
        currently being serialised, matching how NS2 reports queue size)."""
        return len(self._queue)

    def _settle(self) -> None:
        """Apply a completion that is due but never needed an event.

        Such a completion has an empty queue behind it and an up link
        (queueing and :meth:`fail` both arm the event instead), so all
        it does is credit the counters and release the transmitter.
        """
        if self._busy:
            sim = self.sim
            now = sim._now
            free_at = self._free_at
            if now > free_at or (now == free_at and sim._cur_seq > self._tx_seq):
                stats = self._stats
                stats.transmitted += 1
                stats.bytes_transmitted += self._tx_pkt.size
                stats.busy_time += self._tx_time
                self._busy = False

    @property
    def stats(self) -> PortStats:
        """This port's counters, exact at the current instant."""
        self._settle()
        return self._stats

    @property
    def busy(self) -> bool:
        """Whether a packet is currently being serialised."""
        self._settle()
        return self._busy

    def serialization_delay(self, nbytes: int) -> float:
        """Time to clock ``nbytes`` onto this link."""
        return (nbytes * BITS_PER_BYTE) / self._rate

    def busy_time_now(self) -> float:
        """:attr:`PortStats.busy_time` pro-rated to the current instant.

        ``busy_time`` itself is credited only when a serialisation
        *completes*, so a sample taken mid-packet would under-report by
        up to one serialisation delay.  This adds the elapsed fraction
        of the in-progress transmission, giving samplers an exact,
        monotonic reading at any instant.
        """
        bt = self.stats.busy_time
        start = self._tx_start
        if self._busy and start is not None:
            bt += self.sim._now - start
        return bt

    def snapshot(self) -> tuple[int, float, int, int, int]:
        """One cheap observation for periodic samplers (flight recorder):
        ``(queue_length, busy_time, bytes_transmitted, ecn_marked,
        dropped)``.  Counters are cumulative; samplers difference
        consecutive snapshots to get per-window rates, which stays
        correct under decimation (subsampling a cumulative counter is
        still a cumulative counter)."""
        stats = self.stats
        return (
            len(self._queue),
            self.busy_time_now(),
            stats.bytes_transmitted,
            stats.ecn_marked,
            stats.dropped,
        )

    # -- data path --------------------------------------------------------

    def enqueue(self, pkt: "Packet") -> bool:
        """Accept a packet for transmission.

        Returns ``True`` if the packet was queued (or began transmitting),
        ``False`` if it was dropped because the buffer was full.
        """
        stats = self._stats
        sim = self.sim
        now = sim._now
        busy = self._busy
        if busy and (now > self._free_at or (
                now == self._free_at and sim._cur_seq > self._tx_seq)):
            # _settle(), inlined: the transmitter fell idle unobserved.
            stats.transmitted += 1
            stats.bytes_transmitted += self._tx_pkt.size
            stats.busy_time += self._tx_time
            busy = self._busy = False
        if not busy and self._plain:
            # The predicted arrival: idle and up means nothing is queued,
            # so drop-tail and ECN marking (both thresholds >= 1 packet)
            # cannot apply.  Count the packet and start its serialisation
            # as _transmit would, without the frame.
            pkt.enqueued_at = now
            stats.enqueued += 1
            size = pkt.size
            stats.bytes_enqueued += size
            cache = self._ser_cache
            tx = cache.get(size)
            if tx is None:
                tx = cache[size] = (size * BITS_PER_BYTE) / self._rate
            self._busy = True
            self._tx_start = now
            self._tx_pkt = pkt
            self._tx_time = tx
            free_at = self._free_at = now + tx
            counter = sim._counter
            self._tx_seq = next(counter)
            heappush(sim._heap, (free_at + self.delay, next(counter),
                                 self._deliver, (pkt,)))
            self._armed = False
            return True
        trace = self._trace
        if not self._admin_up and self._down_mode == "drop":
            stats.dropped += 1
            if trace:
                self._tracer.emit(
                    now, "drop", port=self.name, flow=pkt.flow_id,
                    seq=pkt.seq, is_ack=pkt.is_ack, reason="link_down",
                )
            return False
        if self._loss_rate > 0.0 and self._loss_rng.random() < self._loss_rate:
            stats.dropped += 1
            if trace:
                self._tracer.emit(
                    now, "drop", port=self.name, flow=pkt.flow_id,
                    seq=pkt.seq, is_ack=pkt.is_ack, injected=True,
                )
            return False
        queue = self._queue
        qlen = len(queue)
        if qlen >= self.buffer_packets:
            stats.dropped += 1
            if trace:
                self._tracer.emit(
                    now, "drop", port=self.name, flow=pkt.flow_id, seq=pkt.seq,
                    is_ack=pkt.is_ack,
                )
            return False
        # DCTCP-style marking on the instantaneous queue at enqueue time.
        # Only *fresh* marks are counted and traced: a packet that
        # arrives already CE-marked from an upstream hop keeps its mark,
        # but crediting it again here would double-count one congestion
        # signal across every congested hop it crosses.
        ecn_threshold = self.ecn_threshold
        if (
            ecn_threshold is not None
            and qlen >= ecn_threshold
            and pkt.ecn_capable
            and not pkt.is_ack
            and not pkt.ecn_marked
        ):
            pkt.ecn_marked = True
            stats.ecn_marked += 1
            if trace:
                self._tracer.emit(
                    now, "mark", port=self.name, flow=pkt.flow_id,
                    seq=pkt.seq, qlen=qlen,
                )
        pkt.enqueued_at = now
        stats.enqueued += 1
        size = pkt.size
        stats.bytes_enqueued += size
        if trace:
            # ``head`` names the flow whose packet currently holds the
            # transmitter: the flow this packet is queued *behind*.  The
            # span forensics layer aggregates waits by head flow to say
            # "spent 2.1 ms queued behind long flow 317".
            self._tracer.emit(
                now, "enqueue", port=self.name, flow=pkt.flow_id,
                seq=pkt.seq, qlen=qlen, is_ack=pkt.is_ack,
                head=self._tx_pkt.flow_id if busy else None,
            )
        if busy:
            queue.append(pkt)
            self.queue_bytes += size
            if not self._armed:
                # Something now waits for this serialisation to end: the
                # completion becomes an event, at its reserved position.
                self._armed = True
                heappush(sim._heap, (self._free_at, self._tx_seq,
                                     self._transmission_done, ()))
        elif self._admin_up:
            # Idle and up means nothing is queued: straight to the wire.
            self._transmit(pkt)
        else:
            queue.append(pkt)  # parked until recover()
            self.queue_bytes += size
        return True

    def _transmit(self, pkt: "Packet") -> None:
        """Start serialising ``pkt`` and schedule its delivery."""
        sim = self.sim
        now = sim._now
        size = pkt.size
        cache = self._ser_cache
        tx = cache.get(size)
        if tx is None:
            tx = cache[size] = (size * BITS_PER_BYTE) / self._rate
        self._busy = True
        self._tx_start = now
        self._tx_pkt = pkt
        self._tx_time = tx
        free_at = self._free_at = now + tx
        counter = sim._counter
        seq = self._tx_seq = next(counter)
        if self._trace:
            self._tracer.emit(
                now, "dequeue", port=self.name, flow=pkt.flow_id,
                seq=pkt.seq, wait=now - pkt.enqueued_at, is_ack=pkt.is_ack,
            )
        heap = sim._heap
        # Propagation pipelines: the delivery needs no completion event.
        # It takes the number after ``seq``, which is how fail() finds it.
        heappush(heap, (free_at + self.delay, next(counter),
                        self._deliver, (pkt,)))
        if self._queue:
            self._armed = True
            heappush(heap, (free_at, seq, self._transmission_done, ()))
        else:
            self._armed = False

    def _transmission_done(self) -> None:
        """The completion as an event: only when a packet waits behind
        the transmitter or the link was cut mid-serialisation."""
        self._armed = False
        stats = self._stats
        pkt = self._tx_pkt
        if not self._admin_up:
            # The link was cut mid-serialisation: the packet is lost and
            # no further transmission starts until recover().  fail()
            # already credited the busy fraction up to the cut.
            self._busy = False
            stats.dropped += 1
            if self._trace:
                self._tracer.emit(
                    self.sim.now, "drop", port=self.name, flow=pkt.flow_id,
                    seq=pkt.seq, is_ack=pkt.is_ack, reason="link_down",
                )
            return
        stats.transmitted += 1
        stats.bytes_transmitted += pkt.size
        # Busy time is credited at serialisation *completion*: a
        # utilization sample taken mid-serialisation must not already
        # include the whole packet (use busy_time_now() to pro-rate).
        # _tx_start is None only when a fail()/recover() pair raced this
        # completion — fail() credited the pre-cut fraction already and
        # revoked the delivery; the link is back, so the packet made it
        # after all.
        if self._tx_start is not None:
            stats.busy_time += self._tx_time
        else:
            self.sim.call_later_fast(self.delay, self._deliver, pkt)
        queue = self._queue
        if not queue:
            self._busy = False
            return
        pkt = queue.popleft()
        size = pkt.size
        self.queue_bytes -= size
        if self._trace:
            self._transmit(pkt)
            return
        # Untraced: start the next serialisation as _transmit would,
        # without the frame (``_busy`` is still set).
        sim = self.sim
        now = sim._now
        cache = self._ser_cache
        tx = cache.get(size)
        if tx is None:
            tx = cache[size] = (size * BITS_PER_BYTE) / self._rate
        self._tx_start = now
        self._tx_pkt = pkt
        self._tx_time = tx
        free_at = self._free_at = now + tx
        counter = sim._counter
        seq = self._tx_seq = next(counter)
        heap = sim._heap
        heappush(heap, (free_at + self.delay, next(counter),
                        self._deliver, (pkt,)))
        if queue:
            self._armed = True
            heappush(heap, (free_at, seq, self._transmission_done, ()))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "" if self._admin_up else f" DOWN({self._down_mode})"
        return f"<Port {self.name} qlen={self.queue_length} busy={self.busy}{state}>"
