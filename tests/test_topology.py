"""Tests for leaf–spine topology construction."""

import pytest

from repro.errors import TopologyError
from repro.net.packet import Packet
from repro.net.topology import LeafSpineConfig, build_leaf_spine, build_two_leaf_fabric
from repro.units import Gbps, microseconds


def test_two_leaf_fabric_shape():
    net = build_two_leaf_fabric(n_paths=15, hosts_per_leaf=4)
    assert len(net.spines) == 15
    assert len(net.leaves) == 2
    assert len(net.hosts) == 8
    assert net.config.n_paths == 15


def test_host_naming_and_leaf_mapping():
    net = build_two_leaf_fabric(n_paths=2, hosts_per_leaf=3)
    assert net.leaf_of["h0"] == "leaf0"
    assert net.leaf_of["h2"] == "leaf0"
    assert net.leaf_of["h3"] == "leaf1"
    assert net.leaf_of["h5"] == "leaf1"


def test_uplink_ports_in_spine_order():
    net = build_two_leaf_fabric(n_paths=3, hosts_per_leaf=2)
    ports = net.uplink_ports(net.leaves[0])
    assert [p.name for p in ports] == [
        "leaf0->spine0", "leaf0->spine1", "leaf0->spine2"]


def test_leaf_routes_local_vs_remote():
    net = build_two_leaf_fabric(n_paths=4, hosts_per_leaf=2)
    leaf0 = net.leaves[0]
    assert len(leaf0.routes["h0"]) == 1  # local: direct down port
    assert len(leaf0.routes["h2"]) == 4  # remote: all uplinks


def test_spine_routes_single_downlink():
    net = build_two_leaf_fabric(n_paths=2, hosts_per_leaf=2)
    spine = net.spines[0]
    for h in net.hosts:
        assert len(spine.routes[h]) == 1


def test_per_link_delay_realises_rtt():
    cfg = LeafSpineConfig(rtt=microseconds(100))
    # 4 links each way -> one-way path delay = rtt/2 (propagation only)
    assert cfg.per_link_delay * 8 == pytest.approx(microseconds(100))


def test_packet_traverses_fabric(small_fabric):
    net = small_fabric
    leaf0 = net.leaves[0]
    pkt = Packet(1, "h0", "h4", 0, 1500)
    received = []
    net.hosts["h4"].set_listener(
        lambda host, p: type("R", (), {"handle": lambda self, q: received.append(q)})())
    from repro.lb import attach_scheme
    attach_scheme(net, "ecmp")
    net.hosts["h0"].send(pkt)
    net.sim.run()
    assert received == [pkt]


def test_graph_mirrors_links():
    net = build_two_leaf_fabric(n_paths=3, hosts_per_leaf=2)
    import networkx as nx
    graph = nx.Graph(list(net.ports))
    # 4 host links + 2 leaves * 3 spines = 10 edges
    assert graph.number_of_edges() == 10
    # 15 equal-cost paths claim: paths h0 -> h2 through distinct spines
    paths = list(nx.all_shortest_paths(graph, "h0", "h2"))
    assert len(paths) == 3


def test_fabric_rate_override():
    cfg = LeafSpineConfig(link_rate=Gbps(1), fabric_rate=Gbps(10))
    net = build_leaf_spine(cfg)
    up = net.uplink_ports(net.leaves[0])[0]
    assert up.rate == Gbps(10)
    nic_port = net.ports[("h0", "leaf0")]
    assert nic_port.rate == Gbps(1)


def test_port_between_unknown_raises():
    net = build_two_leaf_fabric(n_paths=2, hosts_per_leaf=2)
    with pytest.raises(TopologyError):
        net.port_between("h0", "spine0")


def test_hosts_under():
    net = build_two_leaf_fabric(n_paths=2, hosts_per_leaf=3)
    names = [h.name for h in net.hosts_under(net.leaves[1])]
    assert names == ["h3", "h4", "h5"]


def test_host_list_numeric_order():
    net = build_leaf_spine(LeafSpineConfig(n_leaves=2, n_spines=2, hosts_per_leaf=6))
    names = [h.name for h in net.host_list()]
    assert names == [f"h{i}" for i in range(12)]


def test_invalid_configs_rejected():
    with pytest.raises(TopologyError):
        LeafSpineConfig(n_leaves=0)
    with pytest.raises(TopologyError):
        LeafSpineConfig(link_rate=0)
    with pytest.raises(TopologyError):
        LeafSpineConfig(rtt=0)


def test_all_leaf_uplink_ports_count():
    net = build_leaf_spine(LeafSpineConfig(n_leaves=3, n_spines=4, hosts_per_leaf=1))
    assert len(net.all_leaf_uplink_ports()) == 12


def test_node_lookup():
    net = build_two_leaf_fabric(n_paths=2, hosts_per_leaf=1)
    assert net.node("h0").name == "h0"
    assert net.node("spine1").name == "spine1"
    with pytest.raises(TopologyError):
        net.node("nope")
