"""Passive (receiver) side of a flow: cumulative ACKs and dup-ACK generation.

The receiver is where the paper's reordering metrics come from: every
out-of-order arrival is buffered and answered with a duplicate cumulative
ACK (Fig. 3b counts these), and in-order delivery progress feeds the
throughput time series (Fig. 9b).  ACKs are sent per data packet (no
delayed ACK), which is what makes three dup ACKs a reliable reordering
signal in the paper's experiments.

Header prediction: a data segment with ``seq == rcv_nxt`` that finds the
reorder buffer empty is delivered, checked for completion and answered
with its cumulative ACK inside :meth:`TcpReceiver.handle`; anything else
(a gap, a non-empty buffer, a spurious retransmission, SYN/FIN) takes
``_advance`` / ``_send_data_ack``, which compute the same values.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.net.packet import ACK_SIZE, Packet
from repro.sim.engine import Simulator
from repro.transport.flow import Flow, FlowRegistry, FlowStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host

__all__ = ["TcpReceiver", "make_listener"]


class TcpReceiver:
    """Reassembles one flow and generates cumulative ACKs."""

    __slots__ = (
        "sim", "host", "flow", "stats", "registry",
        "rcv_nxt", "_ooo_buffer", "_last_ack_value", "finished",
        "_last_seq",
    )

    def __init__(self, sim: Simulator, host: "Host", flow: Flow, stats: FlowStats,
                 registry: FlowRegistry):
        self.sim = sim
        self.host = host
        self.flow = flow
        self.stats = stats
        self.registry = registry
        self.rcv_nxt = 0
        self._ooo_buffer: set[int] = set()
        self._last_ack_value = -1
        self.finished = False
        #: every segment below this one carries a full MSS
        self._last_seq = flow.n_packets - 1

    def handle(self, pkt: Packet) -> None:
        """Consume one data-direction packet."""
        if pkt.syn:
            self._send_control_ack(syn=True, echo=pkt.ecn_marked)
            return
        if pkt.fin:
            if self.rcv_nxt >= self.flow.n_packets:
                self._send_control_ack(fin=True, echo=pkt.ecn_marked)
            else:
                # FIN raced ahead of retransmitted data; re-assert our hole.
                self._send_data_ack(echo=pkt.ecn_marked)
            return
        stats = self.stats
        stats.packets_received += 1
        if pkt.ecn_marked:
            stats.ecn_marks += 1
        seq = pkt.seq
        if seq == self.rcv_nxt and not self._ooo_buffer:
            # The predicted segment (module docstring): _advance with
            # nothing to drain and _send_data_ack in one frame.  The ACK
            # value just advanced, so it cannot be a duplicate.
            flow = self.flow
            last = self._last_seq
            delivered = flow.mss if seq < last else flow.payload_of(seq)
            rcv_nxt = self.rcv_nxt = seq + 1
            stats.bytes_delivered += delivered
            registry = self.registry
            if registry._delivery_observers:
                registry.notify_delivery(flow, self.sim._now, delivered)
            if seq == last and not self.finished:
                self.finished = True
                stats.completed = self.sim._now
                registry.notify_completion(stats)
            stats.acks_sent += 1
            self._last_ack_value = rcv_nxt
            self.host.send(Packet(
                flow.id, flow.dst, flow.src, rcv_nxt, ACK_SIZE,
                is_ack=True, ecn_echo=pkt.ecn_marked,
            ))
            return
        if seq == self.rcv_nxt:
            delivered = self._advance(seq)
            stats.bytes_delivered += delivered
            now = self.sim._now
            self.registry.notify_delivery(self.flow, now, delivered)
            if self.rcv_nxt >= self.flow.n_packets and not self.finished:
                self.finished = True
                stats.completed = now
                self.registry.notify_completion(stats)
        elif seq > self.rcv_nxt:
            stats.out_of_order += 1
            self._ooo_buffer.add(seq)
            # Reorder causality for span forensics: when this arrival
            # gap was opened by a path change, the span timeline shows
            # the reroute/flowlet switch immediately preceding it.
            nic = getattr(self.host, "nic", None)
            if nic is not None and nic.tracer.enabled:
                nic.tracer.emit(
                    self.sim.now, "ooo", node=self.host.name,
                    flow=self.flow.id, seq=seq, expected=self.rcv_nxt,
                )
        # else: spurious retransmission of already-delivered data.
        self._send_data_ack(echo=pkt.ecn_marked)

    def _advance(self, seq: int) -> int:
        """Deliver ``seq`` plus any now-contiguous buffered packets;
        returns the number of payload bytes delivered in order."""
        flow = self.flow
        delivered = flow.payload_of(seq)
        nxt = seq + 1
        ooo = self._ooo_buffer
        while nxt in ooo:
            ooo.discard(nxt)
            delivered += flow.payload_of(nxt)
            nxt += 1
        self.rcv_nxt = nxt
        return delivered

    # -- ACK construction -------------------------------------------------

    def _send_data_ack(self, *, echo: bool) -> None:
        flow = self.flow
        rcv_nxt = self.rcv_nxt
        stats = self.stats
        ack = Packet(
            flow.id, flow.dst, flow.src, rcv_nxt, ACK_SIZE,
            is_ack=True, ecn_echo=echo,
        )
        stats.acks_sent += 1
        if rcv_nxt == self._last_ack_value:
            stats.dup_acks_sent += 1
            if self.registry._dupack_observers:
                self.registry.notify_dupack(flow, self.sim._now)
        self._last_ack_value = rcv_nxt
        self.host.send(ack)

    def _send_control_ack(self, *, syn: bool = False, fin: bool = False,
                          echo: bool = False) -> None:
        ack = Packet(
            self.flow.id, self.flow.dst, self.flow.src, self.rcv_nxt, ACK_SIZE,
            is_ack=True, syn=syn, fin=fin, ecn_echo=echo,
        )
        self.host.send(ack)


def make_listener(
    sim: Simulator, registry: FlowRegistry
) -> Callable[["Host", Packet], TcpReceiver]:
    """Passive-open factory to install on every host.

    When a host sees the first packet of an unknown flow (its SYN), this
    builds the matching :class:`TcpReceiver` from the registry's flow
    descriptor.
    """

    def listener(host: "Host", pkt: Packet) -> TcpReceiver:
        flow = registry.flow(pkt.flow_id)
        return TcpReceiver(sim, host, flow, registry.stats(pkt.flow_id), registry)

    return listener
