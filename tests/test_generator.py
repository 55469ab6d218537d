"""Tests for workload generators."""

import pytest

from repro.errors import ConfigError
from repro.net.topology import build_two_leaf_fabric, LeafSpineConfig, build_leaf_spine
from repro.transport.flow import FlowRegistry
from repro.workload.distributions import WEB_SEARCH
from repro.workload.generator import PoissonWorkload, StaticWorkload


def fabric(**kw):
    base = dict(n_paths=4, hosts_per_leaf=8)
    base.update(kw)
    return build_two_leaf_fabric(**base)


def test_static_workload_counts_and_direction():
    net = fabric()
    reg = FlowRegistry()
    res = StaticWorkload(net, reg, n_short=10, n_long=2).install()
    assert res.n_flows == 12
    assert len(reg) == 12
    senders = {h.name for h in net.hosts_under(net.leaves[0])}
    receivers = {h.name for h in net.hosts_under(net.leaves[1])}
    for f in res.flows:
        assert f.src in senders
        assert f.dst in receivers


def test_static_long_flows_start_first_and_have_no_deadline():
    net = fabric()
    reg = FlowRegistry()
    res = StaticWorkload(net, reg, n_short=5, n_long=2,
                         short_window=0.05).install()
    longs = [f for f in res.flows if f.size >= 1_000_000]
    shorts = [f for f in res.flows if f.size < 1_000_000]
    assert len(longs) == 2
    for f in longs:
        assert f.start_time == 0.0
        assert f.deadline is None
    for f in shorts:
        assert f.start_time > 0.0
        assert f.deadline is not None
        assert f.size < 100_000


def test_static_workload_reproducible_across_schemes():
    """Same seed -> identical flows, regardless of later scheme draws."""
    def flows_for():
        net = fabric(seed=42)
        reg = FlowRegistry()
        res = StaticWorkload(net, reg, n_short=8, n_long=1).install()
        return [(f.src, f.dst, f.size, f.start_time) for f in res.flows]

    assert flows_for() == flows_for()


def test_static_validation():
    net = fabric()
    reg = FlowRegistry()
    with pytest.raises(ConfigError):
        StaticWorkload(net, reg, n_short=0, n_long=0)
    with pytest.raises(ConfigError):
        StaticWorkload(net, reg, n_short=-1)
    with pytest.raises(ConfigError):
        StaticWorkload(net, reg, short_window=0.0)


def test_static_requires_two_leaves():
    cfg = LeafSpineConfig(n_leaves=1, n_spines=2, hosts_per_leaf=2)
    net = build_leaf_spine(cfg)
    with pytest.raises(ConfigError):
        StaticWorkload(net, FlowRegistry())


def test_poisson_arrival_rate_matches_load():
    net = fabric(hosts_per_leaf=16)
    reg = FlowRegistry()
    wl = PoissonWorkload(net, reg, sizes=WEB_SEARCH, load=0.5, n_flows=10)
    cfg = net.config
    fabric_bps = cfg.link_rate * cfg.n_leaves * cfg.n_spines
    assert wl.arrival_rate() == pytest.approx(
        0.5 * fabric_bps / (8 * WEB_SEARCH.mean()))


def test_poisson_flows_cross_leaves():
    net = fabric(hosts_per_leaf=16)
    reg = FlowRegistry()
    res = PoissonWorkload(net, reg, sizes=WEB_SEARCH, load=0.5,
                          n_flows=100).install()
    for f in res.flows:
        assert net.leaf_of[f.src] != net.leaf_of[f.dst]


def test_poisson_arrivals_increase():
    net = fabric()
    reg = FlowRegistry()
    res = PoissonWorkload(net, reg, sizes=WEB_SEARCH, load=0.3,
                          n_flows=50).install()
    arrivals = [f.start_time for f in res.flows]
    assert arrivals == sorted(arrivals)
    assert arrivals[0] > 0


def test_poisson_validation():
    net = fabric()
    reg = FlowRegistry()
    with pytest.raises(ConfigError):
        PoissonWorkload(net, reg, sizes=WEB_SEARCH, load=0.0, n_flows=10)
    with pytest.raises(ConfigError):
        PoissonWorkload(net, reg, sizes=WEB_SEARCH, load=0.5, n_flows=0)


def test_workload_result_aggregates():
    net = fabric()
    reg = FlowRegistry()
    res = StaticWorkload(net, reg, n_short=5, n_long=1,
                         long_size=2_000_000).install()
    assert res.total_bytes == sum(f.size for f in res.flows)
    assert res.last_arrival == max(f.start_time for f in res.flows)
    assert set(res.senders) == {f.id for f in res.flows}


def test_flows_actually_complete_when_run():
    net = fabric()
    reg = FlowRegistry()
    from repro.lb import attach_scheme
    attach_scheme(net, "ecmp")
    StaticWorkload(net, reg, n_short=5, n_long=1,
                   long_size=500_000, short_window=0.005).install()
    net.sim.run(until=1.0)
    assert all(s.completed is not None for s in reg.all_stats())


def test_poisson_workload_draws_what_run_scenario_installs():
    # the ladder's calibrated_seed generates cells' flows this way
    # without simulating them
    from repro.experiments.common import ScenarioConfig, run_scenario

    config = ScenarioConfig(workload="poisson", scheme="ecmp", n_leaves=4,
                            n_paths=4, hosts_per_leaf=8, n_flows=50,
                            load=0.6, sizes="data_mining", seed=5,
                            horizon=1e-3)
    direct = PoissonWorkload(
        build_leaf_spine(config.fabric_config()), FlowRegistry(),
        sizes=config.size_distribution(), load=config.load,
        n_flows=config.n_flows).install()
    assert direct.flows == run_scenario(config).workload.flows
