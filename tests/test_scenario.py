"""Tests for the scenario harness (experiments.common) and sweep runner."""

import math

import pytest

from repro.errors import ConfigError
from repro.experiments.common import ScenarioConfig, run_scenario, run_scenario_metrics
from repro.experiments.report import format_table, fmt
from repro.experiments.runner import run_many
from repro.units import KB


SMALL = dict(n_paths=4, hosts_per_leaf=12, n_short=8, n_long=1,
             long_size=400_000, short_window=0.005, horizon=0.5)


def test_static_scenario_runs_to_completion():
    res = run_scenario(ScenarioConfig(scheme="ecmp", **SMALL))
    assert res.completed_all
    m = res.metrics
    assert m.short_fct.n_completed == 8
    assert m.long_fct.n_completed == 1
    assert m.extras["completed_all"] is True
    assert m.horizon < 0.5  # stopped early once all flows were done


def test_poisson_scenario_runs():
    cfg = ScenarioConfig(
        scheme="tlb", workload="poisson", sizes="web_search", load=0.3,
        n_flows=20, n_paths=4, hosts_per_leaf=8, truncate_tail=KB(500),
        horizon=2.0)
    m = run_scenario_metrics(cfg)
    assert m.all_fct.n_flows == 20
    assert m.all_fct.n_completed >= 18


def test_scenario_metrics_is_picklable():
    import pickle

    m = run_scenario_metrics(ScenarioConfig(scheme="rps", **SMALL))
    blob = pickle.dumps(m)
    m2 = pickle.loads(blob)
    assert m2.scheme == "rps"
    assert m2.short_fct.mean == m.short_fct.mean


def test_same_seed_same_workload_across_schemes():
    a = run_scenario(ScenarioConfig(scheme="ecmp", **SMALL))
    b = run_scenario(ScenarioConfig(scheme="rps", **SMALL))
    fa = [(f.src, f.dst, f.size, f.start_time) for f in a.workload.flows]
    fb = [(f.src, f.dst, f.size, f.start_time) for f in b.workload.flows]
    assert fa == fb


def test_same_config_bit_reproducible():
    m1 = run_scenario_metrics(ScenarioConfig(scheme="tlb", **SMALL))
    m2 = run_scenario_metrics(ScenarioConfig(scheme="tlb", **SMALL))
    assert m1.short_fct.mean == m2.short_fct.mean
    assert m1.long_goodput_bps == m2.long_goodput_bps


def test_different_seed_different_result():
    m1 = run_scenario_metrics(ScenarioConfig(scheme="tlb", seed=1, **SMALL))
    m2 = run_scenario_metrics(ScenarioConfig(scheme="tlb", seed=2, **SMALL))
    assert m1.short_fct.mean != m2.short_fct.mean


def test_link_overrides_applied():
    cfg = ScenarioConfig(
        scheme="ecmp", link_overrides=(("leaf0", "spine0", 0.1, 0.0),), **SMALL)
    res = run_scenario(cfg)
    assert res.net.port_between("leaf0", "spine0").rate == pytest.approx(1e8)


def test_timeseries_collection():
    cfg = ScenarioConfig(scheme="tlb", timeseries=True, bin_width=0.005, **SMALL)
    res = run_scenario(cfg)
    assert res.collector.throughput is not None
    assert res.collector.throughput.long_series().sums.sum() > 0


def test_trace_kinds_enable_tracer():
    cfg = ScenarioConfig(scheme="rps", trace_kinds=("enqueue",), **SMALL)
    res = run_scenario(cfg)
    assert res.tracer.count("enqueue") > 0
    assert res.tracer.count("dequeue") == 0  # not requested


def test_config_validation():
    with pytest.raises(ConfigError):
        ScenarioConfig(workload="bogus")
    with pytest.raises(ConfigError):
        ScenarioConfig(transport="bogus")
    with pytest.raises(ConfigError):
        ScenarioConfig(workload="poisson", sizes="bogus")
    with pytest.raises(ConfigError):
        ScenarioConfig(horizon=0)


def test_with_override():
    cfg = ScenarioConfig()
    cfg2 = cfg.with_(scheme="rps", load=0.7)
    assert cfg2.scheme == "rps"
    assert cfg2.load == 0.7
    assert cfg.scheme == "tlb"  # original untouched


def test_auto_min_rto_scales_with_rtt():
    fast = ScenarioConfig(rtt=100e-6).tcp_config()
    slow = ScenarioConfig(rtt=8e-3).tcp_config()
    assert fast.min_rto == pytest.approx(0.010)
    assert slow.min_rto == pytest.approx(0.024)


def test_plain_tcp_transport():
    m = run_scenario_metrics(ScenarioConfig(scheme="ecmp", transport="tcp",
                                            **SMALL))
    assert m.short_fct.n_completed == 8


# -- runner -------------------------------------------------------------------

def test_run_many_serial_preserves_order():
    cfgs = [ScenarioConfig(scheme=s, **SMALL) for s in ("ecmp", "rps")]
    out = run_many(cfgs, processes=0)
    assert [m.scheme for m in out] == ["ecmp", "rps"]


def test_run_many_parallel_matches_serial():
    cfgs = [ScenarioConfig(scheme=s, **SMALL) for s in ("ecmp", "tlb")]
    serial = run_many(cfgs, processes=0)
    parallel = run_many(cfgs, processes=2)
    for a, b in zip(serial, parallel):
        assert a.scheme == b.scheme
        assert a.short_fct.mean == b.short_fct.mean


def test_run_many_empty():
    assert run_many([]) == []


# -- report --------------------------------------------------------------------

def test_fmt():
    assert fmt(1.23456) == "1.235"
    assert fmt(float("nan")) == "-"
    assert fmt(42) == "42"
    assert fmt("x") == "x"
    assert "e" in fmt(1.5e9)


def test_format_table_alignment():
    table = format_table(["name", "value"], [["a", 1.0], ["long-name", 2.5]],
                         title="T")
    lines = table.splitlines()
    assert lines[0] == "T"
    assert lines[1].startswith("name")
    assert len(lines) == 5
    # columns aligned: every row same width
    assert len(set(len(l) for l in lines[2:])) <= 2


def test_running_a_scenario_does_not_import_scipy():
    """scipy serves only the CI half-width in ``experiments.stats``; every
    run, pool worker and fleet worker would otherwise pay its import.
    networkx is a test-only dependency (``examples/fat_tree.py``), so no
    module under ``src/`` may import it, not even inside a function."""
    import ast
    import os
    import pathlib
    import subprocess
    import sys

    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
    paths = sorted(src.rglob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "networkx" for n in names), \
                f"{path} imports networkx"

    code = (
        "import sys\n"
        "import repro.experiments.common, repro.experiments.runner\n"
        "import repro.cache\n"
        "from repro.experiments.common import ScenarioConfig, run_scenario\n"
        f"run_scenario(ScenarioConfig(scheme='ecmp', **{SMALL!r}))\n"
        "sys.exit(any(m in sys.modules for m in ('scipy', 'networkx')))\n")
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    assert subprocess.run([sys.executable, "-c", code], env=env,
                          timeout=120).returncode == 0
