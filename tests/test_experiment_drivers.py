"""Tests for the per-figure experiment drivers (scaled far down)."""

import math

import numpy as np
import pytest

from repro.experiments import motivation, basic, largescale, deadline_agnostic
from repro.experiments import testbed, overhead as overhead_exp, asymmetry
from repro.experiments.common import ScenarioConfig


TINY_MOTIVATION = motivation.default_config(
    n_paths=4, hosts_per_leaf=16, n_short=12, n_long=2,
    long_size=500_000, short_window=0.005, horizon=0.5)


@pytest.fixture(scope="module")
def motivation_rows():
    return motivation.run_motivation(TINY_MOTIVATION)


def test_motivation_covers_all_granularities(motivation_rows):
    assert [r.granularity for r in motivation_rows] == ["flow", "flowlet", "packet"]


def test_motivation_fig3_shapes(motivation_rows):
    by = {r.granularity: r for r in motivation_rows}
    # Fig. 3b: packet-level reorders most; flow-level not at all.
    assert by["flow"].short_dup_ack_ratio == 0.0
    assert by["packet"].short_dup_ack_ratio > by["flowlet"].short_dup_ack_ratio
    # Fig. 3a: queue-length CDF exists and is within the buffer.
    for r in motivation_rows:
        assert not math.isnan(r.qlen_p99)
        assert 0 <= r.qlen_p99 <= TINY_MOTIVATION.buffer_packets


def test_motivation_fig4_shapes(motivation_rows):
    by = {r.granularity: r for r in motivation_rows}
    # Fig. 4a: finer granularity spreads load more evenly.
    assert by["packet"].util_min >= by["flow"].util_min
    # Fig. 4c: all long goodputs positive and below capacity.
    for r in motivation_rows:
        assert 0 < r.long_goodput_bps < TINY_MOTIVATION.link_rate


def test_motivation_main_renders(motivation_rows, monkeypatch):
    monkeypatch.setattr(motivation, "run_figure", lambda: motivation_rows)
    text = motivation.main()
    assert "Fig. 3" in text and "Fig. 4" in text
    assert "flowlet" in text


def test_basic_series_align():
    cfg = basic.default_config(
        n_paths=4, hosts_per_leaf=16, n_short=10, n_long=1,
        long_size=400_000, short_window=0.005, horizon=0.5,
        bin_width=0.005)
    series = basic.run_basic(schemes=("rps", "tlb"), config=cfg)
    assert [s.scheme for s in series] == ["rps", "tlb"]
    for s in series:
        n = len(s.times)
        assert len(s.short_dupack_rate) == n
        assert len(s.long_throughput_bps) == n
        assert s.long_goodput_bps > 0
    # TLB's long flows reorder no more than RPS's.
    assert series[1].long_dup_ratio <= series[0].long_dup_ratio


def test_largescale_row_extraction():
    cfg = largescale.default_config(
        "web_search", n_leaves=2, n_paths=2, hosts_per_leaf=8,
        n_flows=15, truncate_tail=300_000, horizon=1.0)
    rows = largescale.run_load_sweep(cfg, schemes=("ecmp",), loads=(0.3,),
                                     processes=0)
    assert len(rows) == 1
    r = rows[0]
    assert r.scheme == "ecmp" and r.load == 0.3
    assert r.short_afct > 0


def test_largescale_tabulate():
    rows = [
        largescale.LoadSweepRow("ecmp", 0.4, 1e-3, 5e-3, 0.1, 5e8, True),
        largescale.LoadSweepRow("tlb", 0.4, 8e-4, 4e-3, 0.0, 6e8, True),
    ]
    text = largescale.tabulate(rows, "web_search")
    assert "Fig. 10" in text
    assert "ecmp" in text and "tlb" in text


def test_deadline_agnostic_sweep_structure():
    cfg = largescale.default_config(
        "web_search", n_leaves=2, n_paths=2, hosts_per_leaf=8,
        n_flows=12, truncate_tail=300_000, horizon=1.0)
    rows = deadline_agnostic.run_percentile_sweep(
        cfg, percentiles=(25.0,), loads=(0.3,), processes=0)
    assert len(rows) == 1
    assert rows[0].assumed_deadline == pytest.approx(0.010)
    text = deadline_agnostic.tabulate(rows)
    assert "TLB-25th" in text


def test_testbed_sweep_and_normalisation():
    cfg = testbed.testbed_config(n_short=10, n_long=1, hosts_per_leaf=12,
                                 long_size=500_000, short_window=0.5,
                                 horizon=30.0)
    rows = testbed.run_flowcount_sweep(
        "n_short", [10], config=cfg, schemes=("ecmp", "tlb"), processes=0)
    assert {r.scheme for r in rows} == {"ecmp", "tlb"}
    norm = testbed.normalise_to(rows, "tlb")
    assert norm[("tlb", 10)] == pytest.approx(1.0)
    text = testbed.tabulate(rows, "n_short")
    assert "Fig. 13" in text


def test_testbed_axis_validation():
    with pytest.raises(ValueError):
        testbed.run_flowcount_sweep("bogus", [1],
                                    config=testbed.testbed_config())


def test_scheme_params_for():
    assert testbed.scheme_params_for("tlb")["update_interval"] == pytest.approx(0.015)
    assert testbed.scheme_params_for("letflow")["flowlet_timeout"] == pytest.approx(0.015)
    assert testbed.scheme_params_for("ecmp") == {}


def test_overhead_orders_schemes():
    cfg = testbed.testbed_config(n_short=8, n_long=1, hosts_per_leaf=10,
                                 long_size=300_000, short_window=0.3,
                                 horizon=20.0)
    rows = overhead_exp.run_overhead(cfg, schemes=("ecmp", "rps", "tlb"))
    by = {r.scheme: r for r in rows}
    # Fig. 15 shape: TLB costs more than stateless schemes, but same
    # order of magnitude.
    assert by["tlb"].cpu_score > by["ecmp"].cpu_score
    assert by["tlb"].mem_score > by["ecmp"].mem_score
    assert by["tlb"].ops_per_decision < 100
    text = overhead_exp.tabulate(rows)
    assert "Fig. 15" in text


def test_asymmetry_degraded_pair_deterministic():
    cfg = testbed.testbed_config(seed=4)
    assert asymmetry.degraded_pair(cfg) == asymmetry.degraded_pair(cfg)
    assert len(asymmetry.degraded_pair(cfg)) == 2


def test_asymmetry_sweep_structure():
    cfg = testbed.testbed_config(n_short=8, n_long=1, hosts_per_leaf=10,
                                 long_size=300_000, short_window=0.3,
                                 horizon=20.0)
    rows = asymmetry.run_asymmetry_sweep(
        "bandwidth", [1.0, 0.5], config=cfg, schemes=("ecmp", "tlb"),
        processes=0)
    assert len(rows) == 4
    text = asymmetry.tabulate(rows, "bandwidth")
    assert "Fig. 17" in text
    with pytest.raises(ValueError):
        asymmetry.run_asymmetry_sweep("bogus", [1.0], config=cfg)


def test_workloads_grid_structure():
    from repro.experiments import workloads

    cfg = workloads.workloads_config(
        n_leaves=2, hosts_per_leaf=4, n_flows=12, horizon=0.5)
    rows = workloads.run_workload_grid(
        ("zipf:s=1.2", "incast:fanin=3,period=10ms"),
        schemes=("ecmp",), config=cfg, processes=0)
    assert [(r.scheme, r.workload) for r in rows] == [
        ("ecmp", "zipf:s=1.2"), ("ecmp", "incast:fanin=3,period=10ms")]
    text = workloads.tabulate(rows)
    assert "Workload scenarios" in text
    assert "zipf:s=1.2" in text


def test_workloads_tabulate_shape():
    from repro.experiments import workloads

    rows = [
        workloads.WorkloadRow("ecmp", "zipf:s=1.2", 1e-3, 5e-3, 0.1, 5e8, True),
        workloads.WorkloadRow("tlb", "zipf:s=1.2", 8e-4, 4e-3, 0.0, 6e8, True),
    ]
    text = workloads.tabulate(rows)
    assert text.count("zipf:s=1.2") == 4  # one row in each of 4 panels
