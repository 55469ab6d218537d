"""The switch: routing table + load-balancer hook.

A switch owns one output :class:`~repro.net.port.Port` per neighbour and a
routing table mapping destination host → candidate output ports.  When a
destination has several equal-cost candidates (the uplinks of a leaf
switch, in a leaf–spine fabric) the decision is delegated to the attached
load balancer — which is exactly the hook the paper's schemes (§2, §8) and
TLB itself (§3) occupy.

The switch never reorders packets itself; any reordering observed by
receivers is caused purely by path-change decisions of the balancer, as in
the paper's analysis.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro.errors import RoutingError, TopologyError
from repro.net.node import Node
from repro.sim.engine import Simulator
from repro.sim.trace import NullTracer, Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.lb.base import LoadBalancer
    from repro.net.packet import Packet
    from repro.net.port import Port

__all__ = ["Switch"]

_NULL_TRACER = NullTracer()


class Switch(Node):
    """A store-and-forward switch with per-destination ECMP port sets.

    The switch carries the fabric's trace sink so control-plane code
    attached to it — load balancers, monitors — can emit trace points
    (e.g. TLB's ``reroute``) with node attribution.
    """

    __slots__ = ("sim", "ports", "routes", "lb", "packets_forwarded", "tracer",
                 "blackholed", "packets_blackholed")

    def __init__(self, sim: Simulator, name: str, *, tracer: Tracer | None = None):
        super().__init__(name)
        self.sim = sim
        #: neighbour name -> output port towards that neighbour
        self.ports: dict[str, "Port"] = {}
        #: destination host name -> tuple of candidate output ports
        self.routes: dict[str, tuple["Port", ...]] = {}
        self.lb: Optional["LoadBalancer"] = None
        self.packets_forwarded = 0
        self.tracer = tracer if tracer is not None else _NULL_TRACER
        #: fault injection: a blackholed switch silently eats every packet
        self.blackholed = False
        self.packets_blackholed = 0

    # -- wiring -----------------------------------------------------------

    def add_port(self, neighbour: str, port: "Port") -> None:
        """Register the output port towards ``neighbour``."""
        if neighbour in self.ports:
            raise TopologyError(f"{self.name}: duplicate port to {neighbour}")
        self.ports[neighbour] = port

    def set_route(self, dst_host: str, ports: Sequence["Port"]) -> None:
        """Install the candidate output ports for ``dst_host``."""
        if not ports:
            raise TopologyError(f"{self.name}: empty port set for {dst_host}")
        self.routes[dst_host] = tuple(ports)

    def attach_lb(self, lb: "LoadBalancer") -> None:
        """Attach the multi-path decision maker.

        The balancer is told about its switch so schemes that need
        periodic work (TLB's granularity updates) can install timers.
        """
        self.lb = lb
        lb.bind(self)

    # -- data path ----------------------------------------------------------

    def receive(self, pkt: "Packet") -> None:
        """Forward ``pkt`` towards ``pkt.dst``.

        Single-candidate destinations bypass the balancer entirely
        (down-direction traffic in a leaf–spine fabric); multi-candidate
        destinations ask the balancer.  While the control plane reports
        dead uplinks the call goes through
        :meth:`~repro.lb.base.LoadBalancer.pick`, which excludes them;
        with none reported — every packet of a fault-free run — ``pick``
        would hand the candidates over unchanged, so the switch calls
        :meth:`~repro.lb.base.LoadBalancer.select_port` itself and saves
        the frame.

        A blackholed switch (see :meth:`set_blackhole`) silently drops
        everything: the fault the :mod:`repro.faults` injector uses to
        model a crashed/misprogrammed spine.
        """
        if self.blackholed:
            self.packets_blackholed += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    self.sim.now, "drop", node=self.name, flow=pkt.flow_id,
                    seq=pkt.seq, is_ack=pkt.is_ack, reason="blackhole",
                )
            return
        try:
            candidates = self.routes[pkt.dst]
        except KeyError:
            raise RoutingError(f"{self.name}: no route to {pkt.dst!r}") from None
        self.packets_forwarded += 1
        if len(candidates) == 1:
            candidates[0].enqueue(pkt)
            return
        lb = self.lb
        if lb is None:
            raise RoutingError(
                f"{self.name}: {len(candidates)} candidate ports for "
                f"{pkt.dst!r} but no load balancer attached"
            )
        if lb.down_ports:
            lb.pick(pkt, candidates).enqueue(pkt)
        else:
            lb.select_port(pkt, candidates).enqueue(pkt)

    def set_blackhole(self, on: bool) -> None:
        """Start or stop silently dropping every received packet."""
        self.blackholed = bool(on)

    # -- introspection helpers (used by experiments/metrics) ---------------

    def lb_flow_counts(self) -> Optional[tuple[int, int]]:
        """The attached balancer's live ``(m_short, m_long)`` flow counts.

        ``None`` when no balancer is attached or the scheme keeps no flow
        table (stateless schemes like RPS/Presto).  This keeps samplers
        (the flight recorder) free of scheme-specific attribute access.
        """
        table = getattr(self.lb, "table", None)
        if table is None:
            return None
        m_short = getattr(table, "m_short", None)
        m_long = getattr(table, "m_long", None)
        if m_short is None or m_long is None:
            return None
        return int(m_short), int(m_long)
