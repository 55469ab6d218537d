"""Tests for flow-trace I/O and replay through the ``trace`` kind."""

import pytest

from repro.cache.key import config_digest
from repro.errors import ConfigError
from repro.experiments.common import ScenarioConfig
from repro.lb import attach_scheme
from repro.net.topology import build_two_leaf_fabric
from repro.transport.flow import Flow, FlowRegistry
from repro.workload.generator import StaticWorkload
from repro.workload.scenarios import canonical_workload, parse_scenario
from repro.workload.traces import read_trace, write_trace


def make_flows():
    return [
        Flow(id=1, src="h0", dst="h4", size=50_000, start_time=0.001,
             deadline=0.010),
        Flow(id=2, src="h1", dst="h5", size=2_000_000, start_time=0.0),
        Flow(id=3, src="h2", dst="h6", size=70_000, start_time=0.0005,
             deadline=0.025),
    ]


def test_round_trip(tmp_path):
    path = write_trace(tmp_path / "t.csv", make_flows())
    flows = read_trace(path)
    # sorted by start time on write
    assert [f.id for f in flows] == [2, 3, 1]
    by_id = {f.id: f for f in flows}
    orig = {f.id: f for f in make_flows()}
    for fid in orig:
        assert by_id[fid].src == orig[fid].src
        assert by_id[fid].size == orig[fid].size
        assert by_id[fid].start_time == orig[fid].start_time
        assert by_id[fid].deadline == orig[fid].deadline


def test_deadline_none_round_trips(tmp_path):
    path = write_trace(tmp_path / "t.csv", make_flows())
    flows = read_trace(path)
    assert {f.id: f.deadline for f in flows}[2] is None


def test_read_missing_columns(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("flow_id,src\n1,h0\n")
    with pytest.raises(ConfigError):
        read_trace(p)


def test_read_malformed_row_reports_line(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text(
        "flow_id,src,dst,size_bytes,start_time_s,deadline_s\n"
        "1,h0,h4,notanumber,0.0,\n")
    with pytest.raises(ConfigError, match=":2:"):
        read_trace(p)


def test_replay_matches_generated_workload(tmp_path):
    """Generate a workload, save it, replay it: identical metrics."""
    def run(trace_path=None):
        net = build_two_leaf_fabric(n_paths=4, hosts_per_leaf=8, seed=3)
        attach_scheme(net, "ecmp")
        reg = FlowRegistry()
        if trace_path is None:
            wl = StaticWorkload(net, reg, n_short=6, n_long=1,
                                long_size=300_000, short_window=0.005)
            result = wl.install()
        else:
            result = parse_scenario(f"trace:file={trace_path}").install(
                net, reg)
        net.sim.run(until=1.0)
        fcts = sorted(s.fct for s in reg.all_stats())
        return [f for f in result.flows], fcts

    flows, fcts1 = run()
    _, fcts2 = run(write_trace(tmp_path / "wl.csv", flows))
    assert fcts1 == fcts2


def test_replay_renumbers_ids_from_base(tmp_path):
    path = write_trace(tmp_path / "t.csv", make_flows())
    net = build_two_leaf_fabric(n_paths=2, hosts_per_leaf=8)
    flows = parse_scenario(f"trace:file={path}").generate(net, base_id=100)
    # file order (by start time), every field but the id kept
    assert [f.id for f in flows] == [100, 101, 102]
    assert [(f.src, f.size, f.deadline) for f in flows] == [
        (f.src, f.size, f.deadline) for f in read_trace(path)]


def test_replay_unknown_host_rejected(tmp_path):
    net = build_two_leaf_fabric(n_paths=2, hosts_per_leaf=2)
    path = write_trace(tmp_path / "t.csv", [
        Flow(id=1, src="h0", dst="h99", size=1000, start_time=0.0)])
    scenario = parse_scenario(f"trace:file={path}")
    with pytest.raises(ConfigError, match="unknown hosts"):
        scenario.install(net, FlowRegistry())


def test_replay_empty_rejected(tmp_path):
    path = write_trace(tmp_path / "t.csv", [])
    with pytest.raises(ConfigError, match="no flows"):
        parse_scenario(f"trace:file={path}")
    path.write_text("")
    with pytest.raises(ConfigError, match="missing columns"):
        parse_scenario(f"trace:file={path}")
    with pytest.raises(ConfigError, match="cannot read"):
        parse_scenario(f"trace:file={tmp_path / 'missing.csv'}")


def test_editing_the_trace_changes_the_key(tmp_path):
    path = write_trace(tmp_path / "t.csv", make_flows())
    spec = f"trace:file={path}"
    key = canonical_workload(spec)
    digest = config_digest(ScenarioConfig(workload=spec))
    assert canonical_workload(spec) == key  # stable while untouched
    write_trace(path, make_flows()[:2])
    assert canonical_workload(spec) != key
    assert config_digest(ScenarioConfig(workload=spec)) != digest
