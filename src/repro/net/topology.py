"""Topology builders: leaf–spine fabrics (the paper's setting).

Two builders cover every experiment in the paper:

* :func:`build_two_leaf_fabric` — the microbenchmark fabric of §2.2/§4.2:
  two leaves joined by *n* spines, i.e. *n* equal-cost paths between any
  sender on leaf 0 and receiver on leaf 1.
* :func:`build_leaf_spine` — the general fabric of §6.2: ``n_leaves``
  leaves, ``n_spines`` spines, ``hosts_per_leaf`` hosts each.

Both return a :class:`Network`, which owns the simulator handles the rest
of the library needs (nodes, ports, rng streams, tracer) and exposes the
introspection the metrics layer uses (uplink ports per leaf, host→leaf
mapping).

Round-trip propagation delay: a one-way path crosses four links
(host→leaf→spine→leaf→host), so each link's one-way delay is
``rtt / 8`` to realise the paper's 100 µs round-trip propagation delay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import TopologyError
from repro.net.host import Host
from repro.net.port import Port
from repro.net.switch import Switch
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import NullTracer, Tracer
from repro.units import Gbps, microseconds

__all__ = ["LeafSpineConfig", "Network", "build_leaf_spine", "build_two_leaf_fabric"]


@dataclass
class LeafSpineConfig:
    """Parameters of a leaf–spine fabric.

    Defaults correspond to the paper's §4.2 microbenchmark: 1 Gbps links,
    100 µs round-trip propagation delay, 256-packet buffers, DCTCP marking
    threshold of 20 packets (the DCTCP paper's 1 Gbps recommendation).
    """

    n_leaves: int = 2
    n_spines: int = 15
    hosts_per_leaf: int = 8
    link_rate: float = Gbps(1)
    #: Leaf–spine links may run at a different rate (0 means "same").
    fabric_rate: float = 0.0
    rtt: float = microseconds(100)
    buffer_packets: int = 256
    ecn_threshold: Optional[int] = 20
    seed: int = 1

    def __post_init__(self) -> None:
        if self.n_leaves < 1 or self.n_spines < 1 or self.hosts_per_leaf < 1:
            raise TopologyError("leaf/spine/host counts must be positive")
        if self.link_rate <= 0:
            raise TopologyError("link_rate must be positive")
        if self.rtt <= 0:
            raise TopologyError("rtt must be positive")

    @property
    def effective_fabric_rate(self) -> float:
        """Leaf–spine rate, defaulting to the edge rate."""
        return self.fabric_rate if self.fabric_rate > 0 else self.link_rate

    @property
    def per_link_delay(self) -> float:
        """One-way propagation delay per link (4 links per one-way path)."""
        return self.rtt / 8.0

    @property
    def n_paths(self) -> int:
        """Equal-cost paths between hosts on different leaves."""
        return self.n_spines


class Network:
    """A built fabric plus the shared simulation services.

    Attributes
    ----------
    sim, tracer, rngs:
        The simulator, trace sink and seeded RNG registry every component
        of this network shares.
    hosts, switches:
        Name-keyed node maps.  ``leaves``/``spines`` are the tier split.
    leaf_of:
        host name → its leaf switch name.
    """

    def __init__(self, sim: Simulator, config: LeafSpineConfig, tracer: Tracer,
                 rngs: RngRegistry):
        self.sim = sim
        self.config = config
        self.tracer = tracer
        self.rngs = rngs
        self.hosts: dict[str, Host] = {}
        self.switches: dict[str, Switch] = {}
        self.leaves: list[Switch] = []
        self.spines: list[Switch] = []
        self.leaf_of: dict[str, str] = {}
        #: (src_node_name, dst_node_name) -> Port, for asymmetry overrides
        self.ports: dict[tuple[str, str], Port] = {}

    # -- introspection ------------------------------------------------------

    def node(self, name: str):
        """Look up any node by name."""
        if name in self.hosts:
            return self.hosts[name]
        if name in self.switches:
            return self.switches[name]
        raise TopologyError(f"unknown node {name!r}")

    def host_list(self) -> list[Host]:
        """Hosts in deterministic (name-sorted by index) order."""
        return [self.hosts[name] for name in sorted(self.hosts, key=_host_index)]

    def uplink_ports(self, leaf: Switch) -> list[Port]:
        """The leaf's ports towards the tier above.

        In a leaf–spine fabric this is one port per spine, in spine
        order.  In multi-tier fabrics (fat tree) where leaves do not
        connect to the top tier directly, it is every port from the leaf
        to another switch, in name order.
        """
        direct = [
            self.ports[(leaf.name, sp.name)]
            for sp in self.spines
            if (leaf.name, sp.name) in self.ports
        ]
        if direct:
            return direct
        return [
            port for (src, dst), port in sorted(self.ports.items())
            if src == leaf.name and dst in self.switches
        ]

    def port_between(self, src: str, dst: str) -> Port:
        """The directed port carrying ``src → dst`` traffic."""
        try:
            return self.ports[(src, dst)]
        except KeyError:
            raise TopologyError(f"no link {src} -> {dst}") from None

    def hosts_under(self, leaf: Switch) -> list[Host]:
        """Hosts attached to a given leaf."""
        return [
            self.hosts[h] for h in sorted(self.leaf_of, key=_host_index)
            if self.leaf_of[h] == leaf.name
        ]

    def all_leaf_uplink_ports(self) -> list[Port]:
        """Every leaf uplink port in the fabric (utilisation metrics)."""
        return [p for leaf in self.leaves for p in self.uplink_ports(leaf)]


def _host_index(name: str) -> tuple[str, int]:
    """Sort helper: 'h10' after 'h9'."""
    prefix = name.rstrip("0123456789")
    digits = name[len(prefix):]
    return (prefix, int(digits) if digits else -1)


def _link(
    net: Network,
    src_name: str,
    dst_name: str,
    rate: float,
    delay: float,
    buffer_packets: int,
    ecn_threshold: Optional[int],
) -> None:
    """Create the two directed ports of one physical link and register it."""
    src = net.node(src_name)
    dst = net.node(dst_name)
    fwd = Port(
        net.sim, f"{src_name}->{dst_name}", rate, delay, dst,
        buffer_packets=buffer_packets, ecn_threshold=ecn_threshold, tracer=net.tracer,
    )
    rev = Port(
        net.sim, f"{dst_name}->{src_name}", rate, delay, src,
        buffer_packets=buffer_packets, ecn_threshold=ecn_threshold, tracer=net.tracer,
    )
    net.ports[(src_name, dst_name)] = fwd
    net.ports[(dst_name, src_name)] = rev
    for node, port, neighbour in ((src, fwd, dst_name), (dst, rev, src_name)):
        if isinstance(node, Switch):
            node.add_port(neighbour, port)
        else:
            node.attach_nic(port)


def build_leaf_spine(
    config: LeafSpineConfig,
    *,
    sim: Optional[Simulator] = None,
    tracer: Optional[Tracer] = None,
    rngs: Optional[RngRegistry] = None,
) -> Network:
    """Build a full leaf–spine fabric and install ECMP-set routes.

    Routing is the standard two-tier scheme: hosts forward everything to
    their leaf; a leaf forwards locally-attached destinations straight
    down, and everything else over the set of all spine uplinks (the
    multi-path decision point); spines forward to the destination's leaf.
    """
    sim = sim if sim is not None else Simulator()
    tracer = tracer if tracer is not None else NullTracer()
    rngs = rngs if rngs is not None else RngRegistry(config.seed)
    net = Network(sim, config, tracer, rngs)

    # Nodes.
    for s in range(config.n_spines):
        sw = Switch(sim, f"spine{s}", tracer=tracer)
        net.switches[sw.name] = sw
        net.spines.append(sw)
    host_idx = 0
    for le in range(config.n_leaves):
        leaf = Switch(sim, f"leaf{le}", tracer=tracer)
        net.switches[leaf.name] = leaf
        net.leaves.append(leaf)
        for _ in range(config.hosts_per_leaf):
            h = Host(sim, f"h{host_idx}")
            net.hosts[h.name] = h
            net.leaf_of[h.name] = leaf.name
            host_idx += 1

    # Links: host<->leaf at edge rate, leaf<->spine at fabric rate.
    delay = config.per_link_delay
    for h_name, leaf_name in net.leaf_of.items():
        _link(net, h_name, leaf_name, config.link_rate, delay,
              config.buffer_packets, config.ecn_threshold)
    for leaf in net.leaves:
        for sp in net.spines:
            _link(net, leaf.name, sp.name, config.effective_fabric_rate, delay,
                  config.buffer_packets, config.ecn_threshold)

    # Routes.
    for leaf in net.leaves:
        local = {h.name for h in net.hosts_under(leaf)}
        uplinks = net.uplink_ports(leaf)
        for h_name in net.hosts:
            if h_name in local:
                leaf.set_route(h_name, [net.ports[(leaf.name, h_name)]])
            else:
                leaf.set_route(h_name, uplinks)
    for sp in net.spines:
        for h_name, leaf_name in net.leaf_of.items():
            sp.set_route(h_name, [net.ports[(sp.name, leaf_name)]])
    # Hosts implicitly route everything via their NIC (Host.send).

    return net


def build_two_leaf_fabric(
    n_paths: int = 15,
    hosts_per_leaf: int = 16,
    *,
    link_rate: float = Gbps(1),
    rtt: float = microseconds(100),
    buffer_packets: int = 256,
    ecn_threshold: Optional[int] = 20,
    seed: int = 1,
    sim: Optional[Simulator] = None,
    tracer: Optional[Tracer] = None,
    rngs: Optional[RngRegistry] = None,
) -> Network:
    """The §2.2/§4.2 microbenchmark fabric.

    Two leaves joined by ``n_paths`` spines; senders live on leaf 0 and
    receivers on leaf 1, giving exactly ``n_paths`` equal-cost paths
    between any sender/receiver pair.
    """
    config = LeafSpineConfig(
        n_leaves=2,
        n_spines=n_paths,
        hosts_per_leaf=hosts_per_leaf,
        link_rate=link_rate,
        rtt=rtt,
        buffer_packets=buffer_packets,
        ecn_threshold=ecn_threshold,
        seed=seed,
    )
    return build_leaf_spine(config, sim=sim, tracer=tracer, rngs=rngs)
