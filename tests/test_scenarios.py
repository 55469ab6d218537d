"""Workload scenario registry: spec grammar, canonical forms, cache-key
axes, and statistical conformance of the generated traffic."""

import numpy as np
import pytest

from repro.cache.key import config_digest
from repro.errors import ConfigError
from repro.experiments.common import ScenarioConfig
from repro.net.topology import LeafSpineConfig, build_leaf_spine
from repro.transport.flow import Flow, FlowRegistry
from repro.workload.generator import WorkloadResult
from repro.workload.traces import write_trace
from repro.workload.scenarios import (
    EXAMPLE_SPECS,
    SCENARIO_ALIASES,
    SCENARIO_KINDS,
    MixScenario,
    ZipfScenario,
    available_scenarios,
    canonical_workload,
    load_cdf_file,
    parse_scenario,
    register_scenario,
)


def fabric(n_leaves=4, n_spines=4, hosts_per_leaf=8, seed=1):
    return build_leaf_spine(LeafSpineConfig(
        n_leaves=n_leaves, n_spines=n_spines,
        hosts_per_leaf=hosts_per_leaf, seed=seed))


# --- grammar and canonical forms -------------------------------------------


def test_example_specs_parse_and_canonicalise():
    for kind, spec in EXAMPLE_SPECS.items():
        sc = parse_scenario(spec)
        assert sc.kind == kind
        # canonical() is a fixed point of parse
        assert parse_scenario(sc.canonical()).canonical() == sc.canonical()


def test_aliases_expand_and_share_canonical_form():
    for alias, expansion in SCENARIO_ALIASES.items():
        assert canonical_workload(alias) == canonical_workload(expansion)


def test_canonical_is_parameter_order_insensitive():
    assert (canonical_workload("zipf:load=0.5,s=1.2")
            == canonical_workload("zipf:s=1.2,load=0.5"))
    assert (canonical_workload("incast:period=10ms,fanin=8")
            == canonical_workload("incast:fanin=8,period=0.01"))


def test_legacy_workloads_pass_through():
    # the paper's two workloads are kinds whose bare name is canonical
    assert canonical_workload("static") == "static"
    assert canonical_workload("poisson") == "poisson"
    assert canonical_workload(" poisson") == canonical_workload("poisson:")


def test_time_and_byte_suffixes():
    sc = parse_scenario("incast:period=10ms,jitter=200us,size=64KB")
    assert sc.period == pytest.approx(0.010)
    assert sc.jitter == pytest.approx(200e-6)
    assert sc.size == 64_000
    assert parse_scenario("incast:size=1MB").size == 1_000_000
    assert parse_scenario("incast:size=4KiB").size == 4096
    assert parse_scenario("hotspot:dwell=0.25").dwell == pytest.approx(0.25)


def test_spec_errors():
    with pytest.raises(ConfigError, match="unknown workload scenario"):
        parse_scenario("nosuchkind:x=1")
    with pytest.raises(ConfigError, match="unknown parameter"):
        parse_scenario("zipf:shape=1.2")
    with pytest.raises(ConfigError, match="duplicate parameter"):
        parse_scenario("zipf:s=1.2,s=1.3")
    with pytest.raises(ConfigError, match="key=value"):
        parse_scenario("zipf:s")
    with pytest.raises(ConfigError):
        parse_scenario("zipf:s=abc")
    with pytest.raises(ConfigError):
        parse_scenario("")
    with pytest.raises(ConfigError, match="s must be in"):
        parse_scenario("zipf:s=9")
    with pytest.raises(ConfigError, match="load must be in"):
        parse_scenario("poisson:load=2.0")
    with pytest.raises(ConfigError, match="NAME@WEIGHT"):
        parse_scenario("mix:tenantA")
    with pytest.raises(ConfigError, match="needs file"):
        parse_scenario("cdf:load=0.4")


def test_mix_rejects_nested_mixes_and_bad_weights():
    with pytest.raises(ConfigError, match="cannot be mixes"):
        MixScenario([("m", 1.0, parse_scenario("mix:tenantA@1"))])
    with pytest.raises(ConfigError, match="fixed flow list"):
        parse_scenario("mix:static@0.5+tenantA@0.5")
    with pytest.raises(ConfigError, match="weight"):
        MixScenario.parse("tenantA@0", "mix:tenantA@0")
    with pytest.raises(ConfigError, match="at least one"):
        MixScenario.parse("", "mix:")


def test_register_scenario_extends_vocabulary():
    class Probe(ZipfScenario):
        kind = "probe"

    register_scenario("probe", Probe)
    try:
        assert "probe" in available_scenarios()
        assert isinstance(parse_scenario("probe:s=1.5"), Probe)
    finally:
        del SCENARIO_KINDS["probe"]


# --- empirical CDF files ----------------------------------------------------

TRACE = """\
# size_bytes, cdf
1000, 0.0
10000, 0.5
100000 1.0
"""


def test_load_cdf_file(tmp_path):
    p = tmp_path / "trace.csv"
    p.write_text(TRACE)
    points, digest = load_cdf_file(p)
    assert points == [(1000.0, 0.0), (10000.0, 0.5), (100000.0, 1.0)]
    assert len(digest) == 16
    with pytest.raises(ConfigError, match="cannot read"):
        load_cdf_file(tmp_path / "missing.csv")


def test_load_cdf_file_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1000\n")
    with pytest.raises(ConfigError, match="expected"):
        load_cdf_file(bad)
    bad.write_text("1000, abc\n2000, 1.0\n")
    with pytest.raises(ConfigError, match="bad number"):
        load_cdf_file(bad)
    bad.write_text("1000, 1.0\n")
    with pytest.raises(ConfigError, match="two CDF knots"):
        load_cdf_file(bad)
    bad.write_text("1000, 0.5\n2000, 0.9\n")
    with pytest.raises(ConfigError, match="last CDF knot"):
        load_cdf_file(bad)


def test_cdf_spec_fingerprints_file_content(tmp_path):
    p = tmp_path / "trace.csv"
    p.write_text(TRACE)
    spec = f"cdf:file={p}"
    first = canonical_workload(spec)
    assert "#files[" in first
    assert canonical_workload(spec) == first  # stable
    # an edit (even a comment) changes the content digest
    p.write_text(TRACE + "# touched\n")
    assert canonical_workload(spec) != first


# --- the workload axis in cache keys ----------------------------------------


def cfg(workload):
    return ScenarioConfig(workload=workload, n_leaves=4, hosts_per_leaf=8)


def test_workload_axis_alias_shares_cache_cell():
    assert config_digest(cfg("websearch")) == config_digest(
        cfg("poisson:sizes=web_search"))
    assert config_digest(cfg("zipf:s=1.2,load=0.4")) == config_digest(
        cfg("zipf:load=0.4,s=1.2"))


def test_workload_axis_distinguishes_parameters():
    digests = {config_digest(cfg(w)) for w in (
        "zipf:s=1.2", "zipf:s=1.4", "incast:fanin=8", "incast:fanin=16",
        "poisson", "websearch")}
    assert len(digests) == 6


def test_workload_axis_tracks_trace_file_content(tmp_path):
    p = tmp_path / "trace.csv"
    p.write_text(TRACE)
    before = config_digest(cfg(f"cdf:file={p}"))
    assert before == config_digest(cfg(f"cdf:file={p}"))
    p.write_text(TRACE + "# edited\n")
    assert config_digest(cfg(f"cdf:file={p}")) != before


def run_flows(workload, **fields):
    """The flows ``run_scenario`` installs (the horizon only bounds the run)."""
    from repro.experiments.common import run_scenario

    config = cfg(workload).with_(scheme="ecmp", horizon=1e-3, **fields)
    return [(f.id, f.src, f.dst, f.size, f.start_time, f.deadline)
            for f in run_scenario(config).workload.flows]


def test_spellings_of_one_workload_share_key_and_flows():
    # one canonical form, one cache cell — and so one flow list
    for spellings in (("poisson", "poisson:", " poisson"),
                      ("static", "static:", " static")):
        digests = {config_digest(cfg(w)) for w in spellings}
        assert len(digests) == 1, spellings
        flows = [run_flows(w, n_flows=40) for w in spellings]
        assert flows[0] and all(f == flows[0] for f in flows), spellings


def test_config_values_pass_the_spec_checks():
    # a value the spec leaves to the config is held to the check the
    # same value would meet in the spec
    for spec, fields, what in (
            ("zipf:s=1.2", dict(load=5.0), "load"),
            ("poisson:", dict(load=5.0), "load"),
            ("poisson", dict(load=0.0), "load"),
            ("zipf:s=1.2", dict(n_flows=0), "n_flows"),
            ("incast:fanin=4", dict(n_flows=0), "n_flows"),
            ("mix:tenantA@0.5+incast@0.5", dict(n_flows=0), "n_flows")):
        config = cfg(spec).with_(**fields)
        with pytest.raises(ConfigError,
                           match=f"{what} \\(from the config\\) must be in"):
            parse_scenario(spec).install(fabric(), FlowRegistry(), config)
    # a spec's own value wins, so the config's is never read
    config = cfg("static").with_(load=5.0, n_flows=0)
    assert parse_scenario("zipf:load=0.5,flows=10").install(
        fabric(), FlowRegistry(), config).n_flows == 10
    assert parse_scenario("incast:fanin=4,requests=2").install(
        fabric(), FlowRegistry(), config).n_flows == 8


def test_config_rejects_bad_workload_spec_eagerly():
    with pytest.raises(ConfigError):
        ScenarioConfig(workload="nosuchkind:x=1")
    with pytest.raises(ConfigError):
        ScenarioConfig(workload="zipf:s=banana")


# --- statistical conformance ------------------------------------------------


def test_poisson_scenario_sampled_sizes_match_distribution():
    net = fabric()
    sc = parse_scenario("poisson:sizes=web_search,load=0.4")
    flows = sc.generate(net, None, n_flows=4000)
    sizes = np.array([f.size for f in flows], dtype=float)
    dist = sc._distribution(None)
    assert sizes.mean() == pytest.approx(dist.mean(), rel=0.25)
    for t in (10_000, 100_000, 1_000_000):
        assert (sizes <= t).mean() == pytest.approx(
            dist.fraction_below(t), abs=0.03)


def test_poisson_scenario_arrival_rate_matches_load():
    net = fabric()
    sc = parse_scenario("poisson:sizes=web_search,load=0.4")
    n = 4000
    flows = sc.generate(net, None, n_flows=n)
    dist = sc._distribution(None)
    cfg_ = net.config
    fabric_bps = (cfg_.link_rate if cfg_.fabric_rate == 0 else
                  cfg_.fabric_rate) * cfg_.n_leaves * cfg_.n_spines
    lam = 0.4 * fabric_bps / (8.0 * dist.mean())
    span = max(f.start_time for f in flows)
    assert n / span == pytest.approx(lam, rel=0.1)


def test_zipf_rank_frequency_slope():
    net = fabric(hosts_per_leaf=16)
    sc = parse_scenario("zipf:s=1.2")
    rng = np.random.default_rng(3)
    dsts = sc.draw_destinations(net, rng, 60_000)
    _, counts = np.unique(dsts, return_counts=True)
    counts = np.sort(counts)[::-1]
    top = counts[:8].astype(float)
    ranks = np.arange(1, len(top) + 1, dtype=float)
    slope = np.polyfit(np.log(ranks), np.log(top), 1)[0]
    assert slope == pytest.approx(-1.2, abs=0.25)


def test_zipf_flows_cross_leaves_and_keep_skew():
    net = fabric()
    flows = parse_scenario("zipf:s=1.4").generate(net, None, n_flows=2000)
    leaf_of = net.leaf_of
    assert all(leaf_of[f.src] != leaf_of[f.dst] for f in flows)
    _, counts = np.unique([f.dst for f in flows], return_counts=True)
    # the hottest host should dominate a uniform share by a wide margin
    assert counts.max() > 4 * counts.mean()


def test_incast_fanin_counts_and_epochs():
    net = fabric()
    sc = parse_scenario("incast:fanin=12,period=10ms,requests=6,size=32KB")
    flows = sc.generate(net, None)
    assert len(flows) == 72
    leaf_of = net.leaf_of
    by_epoch = {}
    for f in flows:
        rid = int(f.start_time // sc.period)
        by_epoch.setdefault(rid, []).append(f)
    assert len(by_epoch) == 6
    for rid, group in by_epoch.items():
        assert len(group) == 12                      # exact fan-in
        dsts = {f.dst for f in group}
        assert len(dsts) == 1                        # one aggregator
        agg = dsts.pop()
        assert len({f.src for f in group}) == 12     # distinct workers
        for f in group:
            assert leaf_of[f.src] != leaf_of[agg]
            assert f.size == 32_000
            assert 0 <= f.start_time - rid * sc.period <= sc.jitter


def test_incast_fanin_exceeding_hosts_raises():
    net = fabric(n_leaves=2, hosts_per_leaf=4)  # 4 cross-leaf hosts
    with pytest.raises(ConfigError, match="exceeds"):
        parse_scenario("incast:fanin=5,requests=1").generate(net, None)


def test_diurnal_load_curve_shapes_arrivals():
    net = fabric()
    sc = parse_scenario("diurnal:peak=0.9,trough=0.1,period=200ms")
    flows = sc.generate(net, None, n_flows=3000)
    phases = np.array([(f.start_time % sc.period) / sc.period
                       for f in flows])
    peak_half = ((phases > 0.25) & (phases < 0.75)).sum()
    trough_half = len(phases) - peak_half
    assert peak_half > 2 * trough_half


def test_hotspot_bias_concentrates_destinations():
    net = fabric()
    sc = parse_scenario("hotspot:leaves=1,dwell=50ms,bias=0.9")
    flows = sc.generate(net, None, n_flows=3000)
    leaf_of = net.leaf_of
    n_leaves = len(net.leaves)
    leaf_names = [leaf.name for leaf in net.leaves]
    hot_hits = 0
    for f in flows:
        epoch = int(f.start_time // sc.dwell)
        hot = {leaf_names[j] for j in sc.hot_leaves(epoch, n_leaves)}
        hot_hits += leaf_of[f.dst] in hot
    # bias + (1-bias)/n_leaves of traffic lands on the hot leaf
    expected = 0.9 + 0.1 / n_leaves
    assert hot_hits / len(flows) == pytest.approx(expected, abs=0.03)


def test_mix_shares_and_disjoint_ids():
    net = fabric()
    sc = parse_scenario("mix:tenantA@0.7+incast@0.3")
    assert sc.shares(100) == [70, 30]
    assert sum(sc.shares(7)) == 7
    assert all(s >= 1 for s in sc.shares(2))
    flows = sc.generate(net, None, n_flows=100, base_id=500)
    ids = [f.id for f in flows]
    assert len(ids) == len(set(ids))
    assert min(ids) == 500
    assert sorted(ids) == list(range(500, 500 + len(ids)))
    starts = [f.start_time for f in flows]
    assert starts == sorted(starts)


# --- determinism and installs ----------------------------------------------


def flow_tuples(spec, seed=7, n=60):
    net = fabric(seed=seed)
    flows = parse_scenario(spec).generate(net, None, n_flows=n)
    return [(f.id, f.src, f.dst, f.size, f.start_time, f.deadline)
            for f in flows]


@pytest.mark.parametrize("spec", sorted(EXAMPLE_SPECS.values()))
def test_generate_is_seed_deterministic(spec):
    assert flow_tuples(spec) == flow_tuples(spec)


def test_generate_varies_with_seed():
    assert flow_tuples("zipf:s=1.2", seed=1) != flow_tuples("zipf:s=1.2",
                                                            seed=2)


def test_install_registers_flows_and_senders():
    net = fabric()
    reg = FlowRegistry()
    res = parse_scenario("incast:fanin=4,requests=3").install(net, reg)
    assert res.n_flows == 12
    assert len(reg) == 12
    assert set(res.senders) == {f.id for f in res.flows}


def test_duplicate_flow_id_rejected_on_install():
    net = fabric()
    reg = FlowRegistry()
    sc = parse_scenario("poisson:load=0.4")
    sc.install(net, reg)  # ids 0..n-1
    with pytest.raises(ConfigError):
        sc.install(net, reg)  # same ids again


def test_workload_result_merge_rejects_id_overlap():
    a, b = WorkloadResult(), WorkloadResult()
    a.senders = {1: object(), 2: object()}
    b.senders = {2: object(), 3: object()}
    with pytest.raises(ConfigError, match="disjoint"):
        a.merge(b)
    c = WorkloadResult()
    c.senders = {4: object()}
    merged = a.merge(c)
    assert set(merged.senders) == {1, 2, 4}


# --- end to end through run_scenario ----------------------------------------


def test_run_scenario_with_scenario_workload():
    from repro.experiments.common import run_scenario

    config = ScenarioConfig(
        workload="incast:fanin=4,period=5ms", scheme="ecmp",
        n_leaves=2, n_paths=2, hosts_per_leaf=4, n_flows=16, horizon=0.5)
    result = run_scenario(config)
    assert result.metrics.short_fct.n_flows == 16
    assert result.metrics.short_fct.n_completed > 0


# --- every PARAMS table, walked ----------------------------------------------

#: per parameter name: (a spec-form value inside its range, one its check
#: must reject).  A kind's new table row without an entry here fails
#: test_every_params_row_parses_canonicalises_and_checks, so it cannot
#: ship untested.
PARAM_EXAMPLES = {
    "sizes": ("data_mining", "nosuchdist"),
    "load": ("0.7", "2.0"),
    "flows": ("40", "0"),
    "file": (None, "/nonexistent/trace.csv"),  # good value: a tmp file
    "s": ("0.9", "9"),
    "fanin": ("6", "0"),
    "period": ("20ms", "0"),
    "size": ("16KB", "0"),
    "requests": ("3", "0"),
    "jitter": ("250us", "-1us"),
    "peak": ("0.9", "1.6"),
    "trough": ("0.3", "0"),
    "leaves": ("2", "0"),
    "dwell": ("50ms", "0"),
    "bias": ("0.75", "1.5"),
}


@pytest.mark.parametrize("kind", sorted(SCENARIO_KINDS))
def test_every_params_row_parses_canonicalises_and_checks(kind, tmp_path):
    # ``file`` is a size CDF for ``cdf`` and a flow list for ``trace``
    files = {"cdf": tmp_path / "cdf.csv", "trace": tmp_path / "flows.csv"}
    files["cdf"].write_text(TRACE)
    write_trace(files["trace"], [
        Flow(id=0, src="h0", dst="h9", size=1000, start_time=0.0)])
    params = SCENARIO_KINDS[kind].PARAMS
    missing = set(params) - set(PARAM_EXAMPLES)
    assert not missing, f"{kind}: add PARAM_EXAMPLES for {sorted(missing)}"
    good = {name: PARAM_EXAMPLES[name][0] or str(files.get(kind))
            for name in params}

    def spec_of(values):
        if "file" in params:  # the one required parameter
            values = {"file": good["file"], **values}
        return f"{kind}:" + ",".join(f"{n}={v}" for n, v in values.items())

    for name, (parse, _, _) in params.items():
        sc = parse_scenario(spec_of({name: good[name]}))
        assert getattr(sc, name) == parse(good[name], "spec")
        for other in params.keys() - {name, "file"}:
            assert getattr(sc, other) == params[other][1]  # the table default
        with pytest.raises(ConfigError):
            parse_scenario(spec_of({name: PARAM_EXAMPLES[name][1]}))
    if params:
        canonical = parse_scenario(spec_of(good)).canonical()
        assert all(f"{name}=" in canonical for name in params)
        assert parse_scenario(canonical).canonical() == canonical
        backwards = dict(reversed(good.items()))
        assert parse_scenario(spec_of(backwards)).canonical() == canonical


def test_range_errors_name_kind_parameter_and_interval():
    with pytest.raises(ConfigError, match=r"zipf s must be in \(0, 4\], got 9"):
        parse_scenario("zipf:s=9")
    with pytest.raises(ConfigError,
                       match=r"incast fanin must be in \[1, inf\], got 0"):
        parse_scenario("incast:fanin=0")
    with pytest.raises(ConfigError, match="trough <= peak"):
        parse_scenario("diurnal:peak=0.3,trough=0.5")


# --- canonical forms are lossless --------------------------------------------


def test_canonical_form_is_lossless():
    # %g keeps six significant digits: these pairs used to share one
    # canonical string — and with it one cache cell
    for a, b in (("zipf:s=1.2,load=0.5000001", "zipf:s=1.2,load=0.5000004"),
                 ("incast:period=1.0000004ms", "incast:period=1ms"),
                 ("mix:tenantA@0.7000001+incast@0.3", "mix:tenantA@0.7+incast@0.3")):
        assert canonical_workload(a) != canonical_workload(b)
        assert config_digest(cfg(a)) != config_digest(cfg(b))
    # a unit suffix scales in floating point, so 100us (= 100 * 1e-6) is
    # not the float 0.0001; the canonical form says so instead of merging
    sc = parse_scenario("incast:jitter=100us")
    assert sc.jitter != 0.0001
    assert parse_scenario(sc.canonical()).jitter == sc.jitter
    assert sc.canonical() != parse_scenario("incast:jitter=0.0001").canonical()
    # values %g renders exactly keep the short form they always had
    assert canonical_workload("incast:period=10ms,jitter=500us") == (
        "incast:fanin=16,jitter=0.0005,period=0.01,size=32000")


def test_reads_load_axis():
    assert parse_scenario("zipf:s=1.2").reads_load_axis()
    assert not parse_scenario("zipf:s=1.2,load=0.5").reads_load_axis()
    assert not parse_scenario("incast:fanin=8").reads_load_axis()
    assert not parse_scenario("diurnal:peak=0.8").reads_load_axis()
    assert parse_scenario("mix:tenantA@0.7+zipf@0.3").reads_load_axis()
    assert not parse_scenario("mix:tenantA@0.7+incast@0.3").reads_load_axis()
