"""Tests for asymmetry injection."""

import pytest

from repro.errors import TopologyError
from repro.lb.base import shortest_queue_index
from repro.net.asymmetry import LinkOverride, apply_asymmetry, random_degraded_links
from repro.net.packet import Packet
from repro.net.topology import build_two_leaf_fabric
from repro.units import Gbps


def test_override_applies_to_both_directions():
    net = build_two_leaf_fabric(n_paths=4, hosts_per_leaf=2)
    apply_asymmetry(net, [LinkOverride("leaf0", "spine1", rate_factor=0.1,
                                       extra_delay=1e-3)])
    fwd = net.port_between("leaf0", "spine1")
    rev = net.port_between("spine1", "leaf0")
    base = net.port_between("leaf0", "spine0")
    assert fwd.rate == pytest.approx(Gbps(0.1))
    assert rev.rate == pytest.approx(Gbps(0.1))
    assert fwd.delay == pytest.approx(base.delay + 1e-3)
    assert base.rate == Gbps(1)


def test_invalid_override_values():
    with pytest.raises(TopologyError):
        LinkOverride("leaf0", "spine0", rate_factor=0.0)
    with pytest.raises(TopologyError):
        LinkOverride("leaf0", "spine0", extra_delay=-1e-3)


def test_unknown_endpoint_rejected():
    net = build_two_leaf_fabric(n_paths=2, hosts_per_leaf=2)
    with pytest.raises(TopologyError):
        apply_asymmetry(net, [LinkOverride("leaf0", "spine99")])


def test_random_degraded_links_deterministic_per_seed():
    net1 = build_two_leaf_fabric(n_paths=8, hosts_per_leaf=2, seed=5)
    net2 = build_two_leaf_fabric(n_paths=8, hosts_per_leaf=2, seed=5)
    ov1 = random_degraded_links(net1, 2, rate_factor=0.5)
    ov2 = random_degraded_links(net2, 2, rate_factor=0.5)
    assert [(o.leaf, o.spine) for o in ov1] == [(o.leaf, o.spine) for o in ov2]


def test_random_degraded_links_distinct():
    net = build_two_leaf_fabric(n_paths=8, hosts_per_leaf=2)
    ovs = random_degraded_links(net, 4, extra_delay=1e-3)
    pairs = [(o.leaf, o.spine) for o in ovs]
    assert len(set(pairs)) == 4


def test_cannot_degrade_more_links_than_exist():
    net = build_two_leaf_fabric(n_paths=2, hosts_per_leaf=1)
    with pytest.raises(TopologyError):
        random_degraded_links(net, 5)


def test_rate_change_is_seen_by_the_next_shortest_queue_pick():
    """Schemes read the ``_rate`` slot; ``port.rate = ...`` is what keeps
    it and the serialisation-delay cache in step."""
    net = build_two_leaf_fabric(n_paths=2, hosts_per_leaf=2)
    uplinks = [net.port_between("leaf0", f"spine{i}") for i in range(2)]
    for seq in range(2):                         # one on the wire, one queued
        uplinks[0].enqueue(Packet(1, "h0", "h2", seq, 1500))
    for seq in range(4):                         # one on the wire, three queued
        uplinks[1].enqueue(Packet(2, "h0", "h2", seq, 1500))
    assert shortest_queue_index(uplinks) == 0    # 1500 B against 4500 B
    rate = uplinks[0].rate
    assert uplinks[0].serialization_delay(1500) in uplinks[0]._ser_cache.values()
    uplinks[0].rate = rate / 5                   # 1500 B now drain like 7500 B
    assert uplinks[0]._rate == uplinks[0].rate == rate / 5
    assert uplinks[0]._ser_cache == {}
    assert shortest_queue_index(uplinks) == 1
    assert shortest_queue_index(uplinks[::-1]) == 0
