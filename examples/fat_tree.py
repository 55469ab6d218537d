#!/usr/bin/env python3
"""A k-ary fat tree (Al-Fares et al.) built from the library's parts.

The paper evaluates TLB on leaf–spine only; its introduction frames TLB
for "multi-rooted tree networks such as Fat-tree and Clos".  This
example is the template for a new topology: it wires the standard
3-tier k-ary fat tree — (k/2)² cores, k pods of k/2 aggregation + k/2
edge switches, (k/2)² hosts per pod — into the same
:class:`~repro.net.topology.Network` container, derives ECMP candidate
sets with a shortest-path router over :mod:`networkx`, attaches each
scheme unchanged (any switch with a multi-path route gets a balancer)
and prints the FCT of a few inter-pod flows.

Note the tiering: ``Network.leaves`` maps to the edge switches and
``Network.spines`` to the cores, so fabric-wide helpers (uplink
utilisation, asymmetry injection between "leaf" and "spine") keep
working where they make sense; pod-internal aggregation switches are in
``Network.switches`` like everything else.

Usage::

    python examples/fat_tree.py
    python examples/fat_tree.py --k 6 --flows 12 --schemes ecmp rps tlb
"""

import argparse
from typing import Iterable, Optional

import networkx as nx

from repro.errors import RoutingError, TopologyError
from repro.experiments.report import format_table
from repro.lb import attach_scheme
from repro.net.host import Host
from repro.net.switch import Switch
from repro.net.topology import LeafSpineConfig, Network, _link
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import NullTracer
from repro.transport.flow import Flow, FlowRegistry, FlowStats
from repro.units import Gbps, microseconds
from repro.workload.generator import install_flows


def ecmp_next_hops(graph: nx.Graph, dst: str) -> dict[str, list[str]]:
    """For one destination, map every other node to its ECMP next hops.

    A neighbour ``v`` of node ``u`` is a valid next hop towards ``dst``
    iff ``dist(v, dst) == dist(u, dst) - 1`` (it lies on a shortest path).
    Next-hop lists are sorted for determinism.

    Raises
    ------
    RoutingError
        If ``dst`` is not in the graph or some node cannot reach it.
    """
    if dst not in graph:
        raise RoutingError(f"destination {dst!r} not in topology")
    dist = nx.single_source_shortest_path_length(graph, dst)
    hops: dict[str, list[str]] = {}
    for u in graph.nodes:
        if u == dst:
            continue
        if u not in dist:
            raise RoutingError(f"{u!r} cannot reach {dst!r}")
        du = dist[u]
        hops[u] = sorted(v for v in graph.neighbors(u) if dist.get(v, float("inf")) == du - 1)
    return hops


def install_ecmp_routes(net: Network, host_names: Optional[Iterable[str]] = None) -> None:
    """Install ECMP routes on every switch of a built :class:`Network`.

    Computes shortest-path next-hop sets over the graph of ``net.ports``
    and installs them via :meth:`Switch.set_route`.  Only destinations in
    ``host_names`` (default: all hosts) get routes.
    """
    targets = list(host_names) if host_names is not None else list(net.hosts)
    graph = nx.Graph(list(net.ports))  # once, not per destination
    for dst in targets:
        hops = ecmp_next_hops(graph, dst)
        for sw_name, sw in net.switches.items():
            nexts = hops.get(sw_name)
            if not nexts:
                continue
            ports = [net.ports[(sw_name, nh)] for nh in nexts]
            sw.set_route(dst, ports)


def build_fat_tree(
    k: int = 4,
    *,
    link_rate: float = Gbps(1),
    rtt: float = microseconds(100),
    buffer_packets: int = 256,
    ecn_threshold: Optional[int] = 20,
    seed: int = 1,
) -> Network:
    """Build a k-ary fat tree (k even, >= 2) with ECMP routes installed.

    Hosts are named ``h0 .. h{k^3/4 - 1}``; switches ``edge{p}_{i}``,
    ``agg{p}_{i}`` and ``core{i}``.  The per-link one-way delay is
    ``rtt / 12`` (a worst-case inter-pod path crosses six links each
    way).
    """
    if k < 2 or k % 2 != 0:
        raise TopologyError(f"fat tree arity must be even and >= 2, got {k}")
    half = k // 2
    sim = Simulator()
    tracer = NullTracer()

    # Reuse the Network container; its config records the coarse shape
    # (n_paths = equal-cost core paths between pods = (k/2)^2).
    config = LeafSpineConfig(
        n_leaves=k * half,       # edge switches
        n_spines=half * half,    # cores
        hosts_per_leaf=half,
        link_rate=link_rate,
        rtt=rtt,
        buffer_packets=buffer_packets,
        ecn_threshold=ecn_threshold,
        seed=seed,
    )
    net = Network(sim, config, tracer, RngRegistry(seed))
    delay = rtt / 12.0

    cores = [Switch(sim, f"core{i}", tracer=tracer) for i in range(half * half)]
    for c in cores:
        net.switches[c.name] = c
        net.spines.append(c)

    host_idx = 0
    for p in range(k):
        aggs = [Switch(sim, f"agg{p}_{i}", tracer=tracer) for i in range(half)]
        edges = [Switch(sim, f"edge{p}_{i}", tracer=tracer) for i in range(half)]
        for s in aggs + edges:
            net.switches[s.name] = s
        net.leaves.extend(edges)
        for e in edges:
            for _ in range(half):
                h = Host(sim, f"h{host_idx}")
                net.hosts[h.name] = h
                net.leaf_of[h.name] = e.name
                host_idx += 1
                _link(net, h.name, e.name, link_rate, delay,
                      buffer_packets, ecn_threshold)
            for a in aggs:
                _link(net, e.name, a.name, link_rate, delay,
                      buffer_packets, ecn_threshold)
        for i, a in enumerate(aggs):
            for j in range(half):
                core = cores[i * half + j]
                _link(net, a.name, core.name, link_rate, delay,
                      buffer_packets, ecn_threshold)

    install_ecmp_routes(net)
    return net


def run_inter_pod_flows(scheme: str, *, k: int = 4, n_flows: int = 4,
                        size: int = 200_000, horizon: float = 0.5) -> list[FlowStats]:
    """Start ``n_flows`` flows at t=0 under ``scheme`` and run to ``horizon``.

    Flow ``i`` goes from a host in pod ``i % k`` to the host in the same
    position of pod ``(i + k/2) % k``, so every flow crosses the cores.
    """
    net = build_fat_tree(k)
    attach_scheme(net, scheme)
    registry = FlowRegistry()
    per_pod = (k // 2) ** 2
    flows = []
    for i in range(n_flows):
        j = (i // k) % per_pod
        src = (i % k) * per_pod + j
        dst = ((i + k // 2) % k) * per_pod + j
        flows.append(Flow(id=i + 1, src=f"h{src}", dst=f"h{dst}",
                          size=size, start_time=0.0))
    install_flows(net, registry, flows)
    net.sim.run(until=horizon)
    return registry.all_stats()


def parse_args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--schemes", nargs="+", default=["ecmp", "tlb"])
    p.add_argument("--k", type=int, default=4, help="fat-tree arity (even)")
    p.add_argument("--flows", type=int, default=4)
    p.add_argument("--size-kb", type=float, default=200.0)
    return p.parse_args()


def main() -> None:
    args = parse_args()
    runs = {s: run_inter_pod_flows(s, k=args.k, n_flows=args.flows,
                                   size=int(args.size_kb * 1e3))
            for s in args.schemes}
    rows = []
    for n, st in enumerate(runs[args.schemes[0]]):
        fcts = [runs[s][n].fct for s in args.schemes]
        rows.append([st.flow.id, st.flow.src, st.flow.dst,
                     *(f * 1e3 if f is not None else "-" for f in fcts)])
    print(format_table(
        ["flow", "src", "dst", *(f"{s}_fct_ms" for s in args.schemes)], rows,
        title=f"k={args.k} fat tree: {args.flows} inter-pod flows of "
              f"{args.size_kb:g} KB"))


if __name__ == "__main__":
    main()
