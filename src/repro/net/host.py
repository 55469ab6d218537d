"""Hosts: the endpoints where transport agents live.

A host has exactly one NIC (an output :class:`~repro.net.port.Port`
towards its leaf switch) and a demultiplexer that hands arriving packets
to transport agents:

* ACK-direction packets go to the *sender* registered for the flow;
* data-direction packets go to the *receiver*, which is created on demand
  by the host's listener when the flow's SYN arrives — mirroring a passive
  TCP accept.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Protocol

from repro.errors import TransportError
from repro.net.node import Node
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import Packet
    from repro.net.port import Port

__all__ = ["Host", "PacketHandler"]


class PacketHandler(Protocol):
    """Anything that can consume a packet delivered to a host."""

    def handle(self, pkt: "Packet") -> None:  # pragma: no cover - protocol
        ...


class Host(Node):
    """An end host with one NIC and a per-flow transport demux."""

    __slots__ = ("sim", "nic", "senders", "receivers", "listener", "packets_received")

    def __init__(self, sim: Simulator, name: str):
        super().__init__(name)
        self.sim = sim
        self.nic: Optional["Port"] = None
        #: flow_id -> sender agent (consumes ACK-direction packets)
        self.senders: dict[int, PacketHandler] = {}
        #: flow_id -> receiver agent (consumes data-direction packets)
        self.receivers: dict[int, PacketHandler] = {}
        #: factory invoked on an unknown flow's first data packet (its SYN)
        self.listener: Optional[Callable[["Host", "Packet"], PacketHandler]] = None
        self.packets_received = 0

    # -- wiring -----------------------------------------------------------

    def attach_nic(self, port: "Port") -> None:
        """Connect this host's single NIC."""
        if self.nic is not None:
            raise TransportError(f"{self.name}: NIC already attached")
        self.nic = port

    def set_listener(self, listener: Callable[["Host", "Packet"], PacketHandler]) -> None:
        """Install the passive-open factory for inbound flows."""
        self.listener = listener

    def register_sender(self, flow_id: int, agent: PacketHandler) -> None:
        """Register the agent that consumes this flow's ACK stream."""
        if flow_id in self.senders:
            raise TransportError(f"{self.name}: sender for flow {flow_id} already registered")
        self.senders[flow_id] = agent

    def unregister_flow(self, flow_id: int) -> None:
        """Drop both directions' agents once a flow fully completes."""
        self.senders.pop(flow_id, None)
        self.receivers.pop(flow_id, None)

    # -- data path ----------------------------------------------------------

    def send(self, pkt: "Packet") -> None:
        """Hand a packet to the NIC (transport agents call this)."""
        if self.nic is None:
            raise TransportError(f"{self.name}: no NIC attached")
        pkt.sent_time = self.sim._now
        self.nic.enqueue(pkt)

    def receive(self, pkt: "Packet") -> None:
        self.packets_received += 1
        if pkt.is_ack:
            agent = self.senders.get(pkt.flow_id)
            # ACKs for flows already torn down are silently dropped, like a
            # RST-less close in the real stack.
            if agent is not None:
                agent.handle(pkt)
            return
        agent = self.receivers.get(pkt.flow_id)
        if agent is None:
            if self.listener is None:
                raise TransportError(
                    f"{self.name}: data packet for unknown flow {pkt.flow_id} "
                    f"and no listener installed"
                )
            agent = self.listener(self, pkt)
            self.receivers[pkt.flow_id] = agent
        agent.handle(pkt)
