"""Generic ECMP route computation for arbitrary topologies.

The leaf–spine builders install their routes directly, but the library
also supports arbitrary fabrics (e.g. the k-ary fat tree builder used in
tests and the ``custom_scheme`` example).  This module derives, for every
switch and destination host, the set of next-hop neighbours that lie on
*some* shortest path — the classic ECMP candidate set — using
:mod:`networkx` BFS layering.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import RoutingError

__all__ = ["ecmp_next_hops", "install_ecmp_routes"]


def ecmp_next_hops(graph, dst: str) -> dict[str, list[str]]:
    """For one destination, map every other node to its ECMP next hops.

    A neighbour ``v`` of node ``u`` is a valid next hop towards ``dst``
    iff ``dist(v, dst) == dist(u, dst) - 1`` (it lies on a shortest path).
    Next-hop lists are sorted for determinism.

    Raises
    ------
    RoutingError
        If ``dst`` is not in the graph or some node cannot reach it.
    """
    import networkx as nx

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


def install_ecmp_routes(net, host_names: Iterable[str] | None = None) -> None:
    """Install ECMP routes on every switch of a built :class:`Network`.

    Computes shortest-path next-hop sets over ``net.graph`` and installs
    them via :meth:`Switch.set_route`.  Only destinations in
    ``host_names`` (default: all hosts) get routes.
    """
    targets = list(host_names) if host_names is not None else list(net.hosts)
    graph = net.graph  # built on demand: once, not per destination
    for dst in targets:
        hops = ecmp_next_hops(graph, dst)
        for sw_name, sw in net.switches.items():
            nexts = hops.get(sw_name)
            if not nexts:
                continue
            ports = [net.ports[(sw_name, nh)] for nh in nexts]
            sw.set_route(dst, ports)
