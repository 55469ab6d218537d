"""Tests for the k-ary fat tree and its generic ECMP router
(``examples/fat_tree.py``, loaded as a module)."""

import importlib.util
import pathlib

import networkx as nx
import pytest

from repro.errors import RoutingError, TopologyError
from repro.lb import attach_scheme
from repro.net.topology import build_two_leaf_fabric

_SPEC = importlib.util.spec_from_file_location(
    "fat_tree",
    pathlib.Path(__file__).resolve().parent.parent / "examples" / "fat_tree.py")
fat_tree = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fat_tree)
build_fat_tree = fat_tree.build_fat_tree
ecmp_next_hops = fat_tree.ecmp_next_hops
install_ecmp_routes = fat_tree.install_ecmp_routes


def test_k4_shape():
    net = build_fat_tree(4)
    # k=4: 4 cores, 4 pods x (2 agg + 2 edge), 16 hosts
    assert len(net.spines) == 4
    assert len(net.leaves) == 8  # edge switches
    assert len(net.switches) == 4 + 4 * 4
    assert len(net.hosts) == 16


def test_odd_or_small_arity_rejected():
    with pytest.raises(TopologyError):
        build_fat_tree(3)
    with pytest.raises(TopologyError):
        build_fat_tree(0)


def test_ecmp_route_multiplicity():
    net = build_fat_tree(4)
    # Edge switch: a host in another pod is reachable via both aggs.
    edge = net.switches["edge0_0"]
    remote_host = net.hosts_under(net.switches["edge3_1"])[0].name
    assert len(edge.routes[remote_host]) == 2
    # Aggregation switch: remote pods via both its cores.
    agg = net.switches["agg0_0"]
    assert len(agg.routes[remote_host]) == 2
    # Same-edge host: single downlink.
    local_host = net.hosts_under(edge)[0].name
    assert len(edge.routes[local_host]) == 1


def test_lb_attaches_to_multipath_switches_only():
    net = build_fat_tree(4)
    balancers = attach_scheme(net, "ecmp")
    # every edge and agg balances; cores have single next hops
    assert all(name.startswith(("edge", "agg")) for name in balancers)
    assert len(balancers) == 16


def test_uplink_ports_fallback():
    net = build_fat_tree(4)
    edge = net.switches["edge0_0"]
    ups = net.uplink_ports(edge)
    assert [p.name for p in ups] == ["edge0_0->agg0_0", "edge0_0->agg0_1"]
    assert len(net.all_leaf_uplink_ports()) == 16


@pytest.mark.parametrize("scheme", ["ecmp", "rps", "tlb"])
def test_traffic_completes_across_pods(scheme):
    # flow 1 runs h0 (edge0_0, pod 0) -> h8 (edge2_0, pod 2)
    (stats,) = fat_tree.run_inter_pod_flows(scheme, n_flows=1)
    assert (stats.flow.src, stats.flow.dst) == ("h0", "h8")
    assert stats.completed is not None
    assert stats.bytes_delivered == 200_000


def test_fat_tree_deterministic_per_seed():
    a = build_fat_tree(4, seed=9)
    b = build_fat_tree(4, seed=9)
    assert sorted(a.ports) == sorted(b.ports)
    assert sorted(a.hosts) == sorted(b.hosts)


# -- the generic ECMP router ----------------------------------------------

def test_next_hops_on_leaf_spine():
    net = build_two_leaf_fabric(n_paths=4, hosts_per_leaf=2)
    hops = ecmp_next_hops(nx.Graph(list(net.ports)), "h2")
    # leaf0 has all four spines as next hops towards a remote host
    assert hops["leaf0"] == [f"spine{i}" for i in range(4)]
    # spines forward to leaf1
    assert hops["spine0"] == ["leaf1"]
    # the destination's leaf goes straight down
    assert hops["leaf1"] == ["h2"]
    # the source host's only next hop is its leaf
    assert hops["h0"] == ["leaf0"]


def test_unknown_destination_raises():
    g = nx.path_graph(3)
    with pytest.raises(RoutingError):
        ecmp_next_hops(g, 99)


def test_unreachable_node_raises():
    g = nx.Graph()
    g.add_edge("a", "b")
    g.add_node("island")
    with pytest.raises(RoutingError):
        ecmp_next_hops(g, "a")


def test_install_matches_builtin_routes():
    """Generic ECMP derivation must agree with the builder's routes."""
    net = build_two_leaf_fabric(n_paths=3, hosts_per_leaf=2)
    builtin = {
        (sw.name, dst): tuple(p.name for p in ports)
        for sw in net.switches.values()
        for dst, ports in sw.routes.items()
    }
    # wipe and reinstall
    for sw in net.switches.values():
        sw.routes.clear()
    install_ecmp_routes(net)
    regenerated = {
        (sw.name, dst): tuple(p.name for p in ports)
        for sw in net.switches.values()
        for dst, ports in sw.routes.items()
    }
    assert regenerated == builtin


def test_install_subset_of_hosts():
    net = build_two_leaf_fabric(n_paths=2, hosts_per_leaf=2)
    for sw in net.switches.values():
        sw.routes.clear()
    install_ecmp_routes(net, host_names=["h0"])
    assert "h0" in net.leaves[1].routes
    assert "h1" not in net.leaves[1].routes
