"""A window-based TCP Reno/NewReno-style sender.

This is the NS2 ``Agent/TCP`` substitute.  The model is packet-granular:
sequence numbers count MSS-sized packets, the congestion window is a float
number of packets, and ACKs are cumulative.  Behaviours that matter to the
paper are implemented faithfully:

* **slow start** doubling from an initial window of 2 packets — Eq. 3's
  2, 4, 8, ... rounds for short flows;
* a **receive-window cap** (64 KB by default, the Linux default the paper
  cites) that pins long flows at ``W_L`` — the quantity in Eq. 1;
* **fast retransmit** on 3 duplicate ACKs with NewReno partial-ACK
  recovery — how path-change reordering is (mis)interpreted as loss;
* **RTO** with exponential backoff and go-back-N recovery.

DCTCP (the paper's default transport) extends this class in
:mod:`repro.transport.dctcp`.

Header prediction
-----------------
Most ACKs of a healthy flow are the *predicted* one: the connection is
established, the ACK acknowledges new data short of the last packet
(``snd_una < ack < n``) and the sender is not in fast recovery.
:meth:`TcpSender._handle_ack` finishes that ACK in its own frame — RTT
sample, window growth, RTO deadline push, new segments at the full wire
size (``Flow.payload_of`` is asked for the last one only) — computing
what ``_arm_rto``, ``_try_send`` and ``_transmit`` compute, by the same
operations in the same order.  Duplicate ACKs, fast recovery, the final
ACK, SYN-ACK/FIN-ACK and timeouts go through those methods, which stay
the single general implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import ConfigError, TransportError
from repro.net.packet import Packet
from repro.sim.engine import Event, Simulator
from repro.transport.flow import Flow, FlowStats
from repro.transport.rto import RtoEstimator
from repro.units import DEFAULT_HEADER, KiB

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host

__all__ = ["TcpConfig", "TcpSender"]


@dataclass(frozen=True)
class TcpConfig:
    """Tunables shared by all TCP-family senders.

    ``rwnd_bytes`` is the receiver-buffer cap: the paper's ``W_L``
    (64 KB by default in Linux, §4.1).  ``min_rto`` defaults to 10 ms —
    the conventional reduced floor for 1 Gbps data-center simulation;
    testbed-scale experiments (20 Mbps, 1 ms links) raise it.
    """

    initial_cwnd: float = 2.0
    rwnd_bytes: int = KiB(64)
    dupack_threshold: int = 3
    min_rto: float = 0.010
    max_rto: float = 2.0
    #: initial slow-start threshold, in packets ("infinite" by default)
    initial_ssthresh: float = 1e9
    ecn_capable: bool = False

    def __post_init__(self) -> None:
        if self.initial_cwnd < 1:
            raise ConfigError("initial_cwnd must be >= 1 packet")
        if self.rwnd_bytes < 1:
            raise ConfigError("rwnd_bytes must be positive")
        if self.dupack_threshold < 1:
            raise ConfigError("dupack_threshold must be >= 1")

    def max_cwnd_packets(self, mss: int) -> float:
        """The receive-window cap expressed in packets of ``mss`` bytes."""
        return max(1.0, self.rwnd_bytes / mss)

    def scaled(self, **changes) -> "TcpConfig":
        """A copy with some fields replaced (convenience for experiments)."""
        return replace(self, **changes)


# Sender states.
_SLOW_START = 0
_CONG_AVOID = 1
_FAST_RECOVERY = 2


class TcpSender:
    """Active side of one flow.

    Parameters
    ----------
    sim, host:
        The simulator and the host this sender lives on (``host.name``
        must equal ``flow.src``).
    flow:
        What to transfer.
    stats:
        The shared stats record (normally from the
        :class:`~repro.transport.flow.FlowRegistry`).
    config:
        TCP tunables.
    on_close:
        Optional callback invoked when the connection fully closes.
    """

    def __init__(
        self,
        sim: Simulator,
        host: "Host",
        flow: Flow,
        stats: FlowStats,
        config: Optional[TcpConfig] = None,
        on_close: Optional[Callable[["TcpSender"], None]] = None,
    ):
        if host.name != flow.src:
            raise TransportError(
                f"sender for flow {flow.id} placed on {host.name}, expected {flow.src}"
            )
        self.sim = sim
        self.host = host
        self.flow = flow
        self.stats = stats
        self.config = config if config is not None else TcpConfig()
        self.on_close = on_close

        self.n = flow.n_packets
        self.snd_una = 0          # lowest unacknowledged data seq
        self.snd_nxt = 0          # next new data seq to send
        self.cwnd = self.config.initial_cwnd
        self.ssthresh = self.config.initial_ssthresh
        self.max_cwnd = self.config.max_cwnd_packets(flow.mss)
        self.state = _SLOW_START
        self.dupacks = 0
        self.recover = 0          # NewReno: highest seq sent when loss detected
        self.established = False
        self.fin_sent = False
        self.closed = False

        self.rto = RtoEstimator(self.config.min_rto, self.config.max_rto)
        self._rto_event: Optional[Event] = None
        self._rto_deadline = 0.0
        self._send_times: dict[int, float] = {}
        self._retransmitted: set[int] = set()

        host.register_sender(flow.id, self)

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Open the connection by sending the SYN."""
        self.stats.syn_sent = self.sim._now
        self._send_syn()

    def _send_syn(self) -> None:
        pkt = Packet(
            self.flow.id, self.flow.src, self.flow.dst, 0, DEFAULT_HEADER,
            syn=True, ecn_capable=self.config.ecn_capable,
            deadline=self.flow.deadline,
        )
        self.host.send(pkt)
        self._arm_rto()

    @property
    def effective_window(self) -> float:
        """min(cwnd, receiver window), in packets."""
        return min(self.cwnd, self.max_cwnd)

    @property
    def in_flight(self) -> int:
        """Outstanding (sent, unacked) packets."""
        return self.snd_nxt - self.snd_una

    @property
    def done(self) -> bool:
        """All data acknowledged."""
        return self.snd_una >= self.n

    # -- inbound --------------------------------------------------------

    def handle(self, pkt: Packet) -> None:
        """Consume an ACK-direction packet addressed to this sender."""
        if self.closed:
            return
        if pkt.syn:  # SYN-ACK completes the handshake
            if not self.established:
                self.established = True
                now = self.stats.established = self.sim._now
                self.rto.sample(now - self.stats.syn_sent)
                self._arm_rto()
                self._try_send()
            return
        if pkt.fin:  # FIN-ACK: connection fully closed
            self._close()
            return
        self._handle_ack(pkt)

    def _handle_ack(self, pkt: Packet) -> None:
        # Once per ACK: ``done`` is read as ``snd_una >= n`` in place.
        ack = pkt.seq  # cumulative: next expected data seq
        n = self.n
        if ack > n:
            raise TransportError(f"flow {self.flow.id}: ack {ack} beyond {n}")
        self._on_ecn_feedback(pkt)
        snd_una = self.snd_una
        if ack > snd_una:
            newly = ack - snd_una
            self.snd_una = ack
            self.dupacks = 0
            # RTT sampling (Karn's rule: skip retransmitted segments).
            now = self.sim._now
            sample_seq = ack - 1
            send_times = self._send_times
            sent_at = send_times.pop(sample_seq, None)
            if newly > 1:
                for s in range(snd_una, sample_seq):
                    send_times.pop(s, None)
            if sent_at is not None and sample_seq not in self._retransmitted:
                self.rto.sample(now - sent_at)

            if self.state != _FAST_RECOVERY:
                cwnd = self.cwnd
                if self.state == _SLOW_START:
                    cwnd += newly
                    if cwnd >= self.ssthresh:
                        self.state = _CONG_AVOID
                else:
                    cwnd += newly / cwnd
                if cwnd > self.max_cwnd:
                    cwnd = self.max_cwnd
                self.cwnd = cwnd
                if ack < n and self.established:
                    # The predicted ACK (module docstring) ends here, in
                    # this frame: what _arm_rto, _try_send and _transmit
                    # would do, by the same operations in the same order.
                    deadline = self._rto_deadline = now + self.rto.rto
                    ev = self._rto_event
                    if ev is None or ev.cancelled or ev.time > deadline:
                        self._arm_rto()  # no live check fires by the deadline
                    snd_nxt = self.snd_nxt
                    budget = int(cwnd) - (snd_nxt - ack)
                    if budget > 0 and snd_nxt < n:
                        flow = self.flow
                        flow_id, src, dst = flow.id, flow.src, flow.dst
                        ecn_capable = self.config.ecn_capable
                        stats = self.stats
                        send = self.host.send
                        # Flow.payload_of without its bounds check: every
                        # packet but the last carries a full MSS
                        full_size = flow.mss + DEFAULT_HEADER
                        last = n - 1
                        while budget > 0 and snd_nxt < n:
                            stats.packets_sent += 1
                            send_times[snd_nxt] = now
                            send(Packet(
                                flow_id, src, dst, snd_nxt,
                                full_size if snd_nxt < last
                                else flow.payload_of(snd_nxt) + DEFAULT_HEADER,
                                ecn_capable=ecn_capable,
                            ))
                            snd_nxt += 1
                            budget -= 1
                        self.snd_nxt = snd_nxt
                    return
            elif ack >= self.recover:
                # Full recovery: deflate to ssthresh and resume CA.
                self.cwnd = self.ssthresh
                self.state = _CONG_AVOID
            else:
                # NewReno partial ACK: the next hole is also lost.
                self._retransmit(self.snd_una)
                self.cwnd = max(1.0, self.cwnd - newly + 1)

            if ack >= n:
                self._cancel_rto()
            else:
                self._arm_rto()
        elif snd_una < n:
            self._on_dup_ack()
        self._try_send()
        if self.snd_una >= n and not self.fin_sent:
            self.stats.acked = self.sim._now
            self._send_fin()

    def _on_dup_ack(self) -> None:
        self.dupacks += 1
        self.stats.dup_acks_received += 1
        if self.state == _FAST_RECOVERY:
            self.cwnd += 1  # window inflation per extra dup
            self.cwnd = min(self.cwnd, self.max_cwnd + self.config.dupack_threshold)
            return
        if self.dupacks >= self.config.dupack_threshold and self.snd_una < self.n:
            self._enter_fast_recovery()

    def _enter_fast_recovery(self) -> None:
        self.ssthresh = max(self.effective_window / 2.0, 2.0)
        self.cwnd = self.ssthresh + self.config.dupack_threshold
        self.recover = self.snd_nxt
        self.state = _FAST_RECOVERY
        self.stats.fast_recoveries += 1
        self._retransmit(self.snd_una)
        self._arm_rto()

    # -- ECN hook (overridden by DCTCP) ----------------------------------

    def _on_ecn_feedback(self, pkt: Packet) -> None:
        """Plain TCP ignores ECN echoes; DCTCP overrides."""

    # -- outbound ----------------------------------------------------------

    def _try_send(self) -> None:
        if not self.established or self.closed:
            return
        # effective_window and in_flight, read in place
        budget = int(min(self.cwnd, self.max_cwnd)) - (self.snd_nxt - self.snd_una)
        n = self.n
        while budget > 0 and self.snd_nxt < n:
            self._transmit(self.snd_nxt, retransmission=False)
            self.snd_nxt += 1
            budget -= 1

    def _transmit(self, seq: int, *, retransmission: bool) -> None:
        flow = self.flow
        pkt = Packet(
            flow.id, flow.src, flow.dst, seq,
            flow.payload_of(seq) + DEFAULT_HEADER,
            ecn_capable=self.config.ecn_capable,
        )
        self.stats.packets_sent += 1
        if retransmission:
            self.stats.retransmits += 1
            self._retransmitted.add(seq)
            # Trace via the NIC's sink (absent on test doubles).
            nic = getattr(self.host, "nic", None)
            if nic is not None and nic.tracer.enabled:
                nic.tracer.emit(
                    self.sim.now, "retransmit", node=self.host.name,
                    flow=self.flow.id, seq=seq,
                )
        else:
            self._send_times[seq] = self.sim._now
        self.host.send(pkt)

    def _retransmit(self, seq: int) -> None:
        self._transmit(seq, retransmission=True)

    def _send_fin(self) -> None:
        self.fin_sent = True
        pkt = Packet(
            self.flow.id, self.flow.src, self.flow.dst, self.n, DEFAULT_HEADER,
            fin=True, ecn_capable=self.config.ecn_capable,
        )
        self.host.send(pkt)
        self._arm_rto()

    # -- timers ------------------------------------------------------------
    #
    # One re-armed event per flow instead of cancel+reschedule per ACK:
    # arming only pushes the *deadline* forward; the already-scheduled
    # check event (which by construction fires no later than any newer
    # deadline) re-arms itself to the true deadline when it goes off
    # early.  A healthy ACK clock therefore costs one float store per
    # ACK and one heap event per RTO period, instead of a heap push plus
    # a lazily-deleted cancelled entry per ACK.

    def _arm_rto(self) -> None:
        deadline = self.sim._now + self.rto.rto
        self._rto_deadline = deadline
        ev = self._rto_event
        if ev is not None and not ev.cancelled:
            if ev.time <= deadline:
                return  # pending check fires first and will re-arm
            # Deadline moved *earlier* (RTO shrank after an RTT sample):
            # the pending check would fire late, so replace it.
            ev.cancel()
        self._rto_event = self.sim.schedule(deadline, self._check_rto)

    def _cancel_rto(self) -> None:
        if self._rto_event is not None:
            self._rto_event.cancel()
            self._rto_event = None

    def _check_rto(self) -> None:
        self._rto_event = None
        if self.closed:
            return
        deadline = self._rto_deadline
        if self.sim._now < deadline:
            # ACKs pushed the deadline past this check: re-arm, no timeout.
            self._rto_event = self.sim.schedule(deadline, self._check_rto)
            return
        self._on_rto()

    def _on_rto(self) -> None:
        # The duration just spent waiting (before backoff doubles it):
        # the span layer sums these into per-flow retransmit-wait time.
        waited = self.rto.rto
        nic = getattr(self.host, "nic", None)
        if nic is not None and nic.tracer.enabled:
            nic.tracer.emit(
                self.sim.now, "rto", node=self.host.name,
                flow=self.flow.id, waited=waited,
                established=self.established,
            )
        self.rto.on_timeout()
        if not self.established:
            self._send_syn()  # SYN lost: retry
            return
        if self.fin_sent:
            self._send_fin()  # FIN or FIN-ACK lost: retry
            return
        self.stats.timeouts += 1
        # Go-back-N: collapse the window and resend from the hole.
        self.ssthresh = max(self.effective_window / 2.0, 2.0)
        self.cwnd = self.config.initial_cwnd
        self.state = _SLOW_START
        self.dupacks = 0
        self.snd_nxt = self.snd_una
        self._retransmitted.update(self._send_times)
        self._send_times.clear()
        self._try_send()
        self._arm_rto()

    def _close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self.stats.closed = self.sim.now
        self._cancel_rto()
        self.host.unregister_flow(self.flow.id)
        if self.on_close is not None:
            self.on_close(self)
