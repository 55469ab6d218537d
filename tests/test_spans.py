"""Tests for per-flow span forensics (repro.obs.spans)."""

import json
from types import SimpleNamespace

import pytest

from repro.errors import ConfigError
from repro.experiments.common import ScenarioConfig, run_scenario
from repro.metrics.export import metrics_to_dict
from repro.obs.spans import (
    COMPONENTS,
    SpanBuffer,
    _sample_fraction,
    explain_payload,
    format_explain,
    load_spans,
    summary_row,
    tail_flows,
)


def _config(**overrides) -> ScenarioConfig:
    base = dict(scheme="tlb", seed=5, n_short=10, n_long=1, n_paths=4,
                hosts_per_leaf=11, horizon=0.2, spans=True)
    base.update(overrides)
    return ScenarioConfig(**base)


FAULTED = dict(
    faults="0.0005:link_down:leaf0-spine0;0.05:link_up:leaf0-spine0")


def _fake_stats(flow_id: int, size: int, fct: float):
    return SimpleNamespace(flow=SimpleNamespace(id=flow_id, size=size),
                           fct=fct)


# -- determinism ---------------------------------------------------------


def test_span_files_byte_identical_across_seeded_runs(tmp_path):
    paths = []
    for name in ("a", "b"):
        result = run_scenario(_config(**FAULTED))
        paths.append(result.spans.save(tmp_path / f"{name}.spans.json"))
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_gzip_span_files_byte_identical_and_roundtrip(tmp_path):
    datas, blobs = [], []
    for name in ("a", "b"):
        result = run_scenario(_config(**FAULTED))
        p = result.spans.save(tmp_path / f"{name}.spans.json.gz")
        blobs.append(p.read_bytes())
        datas.append(load_spans(p))
    assert blobs[0] == blobs[1]
    plain = run_scenario(_config(**FAULTED)).spans.save(
        tmp_path / "c.spans.json")
    assert load_spans(plain) == datas[0]


def test_span_size_class_agrees_with_run_metrics():
    # flows of exactly short_threshold bytes: the paper's "<100 KB" makes
    # them long everywhere — FCT panels, deadlines, and the span file
    from repro.metrics.fct import split_by_size
    from repro.units import KB, MB

    result = run_scenario(ScenarioConfig(
        scheme="ecmp", n_paths=4, hosts_per_leaf=4, n_short=6, n_long=1,
        long_size=MB(1), short_size_lo=KB(100), short_size_hi=KB(100),
        short_window=0.01, seed=3, spans=True))
    short, long_ = split_by_size(result.registry.all_stats(), KB(100))
    assert (len(short), len(long_)) == (0, 7)
    assert result.metrics.short_fct.n_flows == 0
    flows = result.spans.data["flows"]
    assert len(flows) == 7
    for side, stats in (("short", short), ("long", long_)):
        for s in stats:
            assert flows[str(s.flow.id)]["class"] == side


def test_tail_sampler_retains_the_same_flow_set():
    retained = []
    for _ in range(2):
        result = run_scenario(_config(**FAULTED))
        retained.append({
            fid: doc["retained"]
            for fid, doc in result.spans.data["flows"].items()
            if doc["retained"] is not None
        })
    assert retained[0] == retained[1]
    assert retained[0]  # something was kept in full


def test_sample_fraction_is_seeded_and_order_independent():
    a = [_sample_fraction(9, fid) for fid in (3, 1, 2)]
    b = [_sample_fraction(9, fid) for fid in (3, 1, 2)]
    assert a == b
    assert all(0.0 <= f < 1.0 for f in a)
    assert _sample_fraction(10, 3) != _sample_fraction(9, 3)


# -- spans never change the simulation -----------------------------------


def test_spans_off_run_is_event_identical():
    on = run_scenario(_config())
    off = run_scenario(_config(spans=False))
    assert on.net.sim.events_processed == off.net.sim.events_processed
    assert on.net.sim.now == off.net.sim.now

    def outcome(metrics):
        return {k: v for k, v in metrics_to_dict(metrics).items()
                if not any(t in k for t in ("wall", "rss", "per_s", "ratio"))}

    assert outcome(on.metrics) == outcome(off.metrics)


# -- retention policy ----------------------------------------------------


def test_fault_affected_flows_are_retained():
    result = run_scenario(_config(**FAULTED))
    flows = result.spans.data["flows"]
    assert any(doc["retained"] == "fault" for doc in flows.values())
    for doc in flows.values():
        if doc["retained"] == "fault":
            assert doc["fault_affected"]


def test_sample_rate_one_retains_everything():
    buf = SpanBuffer(seed=3, sample_rate=1.0)
    for fid in range(4):
        buf.emit(0.1 * fid, "enqueue", flow=fid, port="p", qlen=0)
        buf._on_completion(_fake_stats(fid, 1000, 0.01 * (fid + 1)))
    data = buf.finalize()
    assert all(doc["retained"] == "sampled"
               for doc in data["flows"].values())


def test_top_k_keeps_slowest_per_class_and_downgrades_evicted():
    buf = SpanBuffer(seed=3, sample_rate=0.0, top_k=2)
    for fid, fct in enumerate((0.01, 0.03, 0.02, 0.05)):
        buf.emit(0.0, "enqueue", flow=fid, port="p", qlen=0)
        buf._on_completion(_fake_stats(fid, 1000, fct))
    data = buf.finalize()
    kept = {int(fid) for fid, doc in data["flows"].items()
            if doc["retained"] == "tail"}
    assert kept == {1, 3}  # the two slowest shorts
    evicted = data["flows"]["0"]
    assert evicted["retained"] is None and "hops" not in evicted


def test_hop_timeline_is_bounded():
    buf = SpanBuffer(seed=3, sample_rate=1.0, max_hops=4)
    for i in range(10):
        buf.emit(0.001 * i, "enqueue", flow=1, port="p", qlen=i)
    buf._on_completion(_fake_stats(1, 1000, 0.5))
    data = buf.finalize()
    doc = data["flows"]["1"]
    assert len(doc["hops"]) == 4
    assert doc["truncated_hops"] == 6
    assert doc["enqueues"] == 10  # skeleton still counts everything


def test_ack_direction_records_are_counted_not_timelined():
    buf = SpanBuffer(seed=3, sample_rate=1.0)
    buf.emit(0.0, "enqueue", flow=1, port="p", qlen=0)
    buf.emit(0.1, "enqueue", flow=1, port="q", qlen=0, is_ack=True)
    buf._on_completion(_fake_stats(1, 1000, 0.2))
    doc = buf.finalize()["flows"]["1"]
    assert doc["ack_events"] == 1
    assert doc["enqueues"] == 1
    assert len(doc["hops"]) == 1


def test_constructor_validates():
    with pytest.raises(ConfigError):
        SpanBuffer(seed=1, sample_rate=1.5)
    with pytest.raises(ConfigError):
        SpanBuffer(seed=1, top_k=-1)
    with pytest.raises(ConfigError):
        SpanBuffer(seed=1, max_hops=0)


# -- attribution ---------------------------------------------------------


def test_queueing_uses_wall_clock_union_not_packet_seconds():
    buf = SpanBuffer(seed=3, sample_rate=1.0)
    # Three packets dequeue at t=0.010 after overlapping 10 ms waits:
    # packet-seconds sum to 30 ms, but the wall-clock union is 10 ms.
    for seq in range(3):
        buf.emit(0.010, "dequeue", flow=1, port="p", wait=0.010, seq=seq)
    buf._on_completion(_fake_stats(1, 1000, 0.012))
    doc = buf.finalize()["flows"]["1"]
    assert doc["queue_wait_s"] == pytest.approx(0.030)
    assert doc["queue_busy_s"] == pytest.approx(0.010)
    attr = doc["attribution"]
    assert attr["components"]["queueing"] == pytest.approx(0.010)
    assert attr["dominant"] == "queueing"


def test_attribution_components_shape_and_residual():
    result = run_scenario(_config(**FAULTED))
    checked = 0
    for doc in result.spans.data["flows"].values():
        if doc["fct"] is None:
            continue
        checked += 1
        attr = doc["attribution"]
        assert set(attr["components"]) == set(COMPONENTS)
        assert all(v >= 0.0 for v in attr["components"].values())
        assert attr["dominant"] in COMPONENTS + ("transfer",)
        comp_sum = sum(attr["components"].values())
        assert attr["transfer"] == pytest.approx(
            max(0.0, doc["fct"] - comp_sum), abs=1e-12)
        if attr["shares"] is not None:
            for c in COMPONENTS:
                assert attr["shares"][c] == pytest.approx(
                    attr["components"][c] / doc["fct"])
    assert checked > 0


def test_recovery_labeled_retransmit_when_flow_dropped():
    buf = SpanBuffer(seed=3, sample_rate=1.0)
    buf.emit(0.0, "drop", flow=1, port="p", reason="buffer_overflow")
    buf.emit(0.01, "rto", flow=1, node="h0", waited=0.2)
    buf._on_completion(_fake_stats(1, 1000, 0.5))
    attr = buf.finalize()["flows"]["1"]["attribution"]
    assert attr["components"]["retransmit"] == pytest.approx(0.2)
    assert attr["dominant"] == "retransmit"


def test_fault_timeline_and_port_matching():
    buf = SpanBuffer(seed=3, sample_rate=0.0, top_k=0)
    buf.emit(0.02, "link_down", node="leaf0-spine1", mode="drop",
             ports=["leaf0->spine1", "spine1->leaf0"])
    buf.emit(0.03, "dequeue", flow=7, port="leaf0->spine1", wait=0.0, seq=0)
    buf._on_completion(_fake_stats(7, 1000, 0.1))
    data = buf.finalize()
    assert data["events"][0]["kind"] == "link_down"
    assert data["flows"]["7"]["fault_affected"]
    assert data["flows"]["7"]["retained"] == "fault"


# -- presentation --------------------------------------------------------


def test_explain_names_dominant_component_per_tail_flow(tmp_path):
    result = run_scenario(_config(**FAULTED))
    path = result.spans.save(tmp_path / "r.spans.json")
    data = load_spans(path)
    text = format_explain(data, tail=5)
    for fid, doc in tail_flows(data, 5):
        assert f"flow {fid} " in text
        assert f"dominant={doc['attribution']['dominant']}" in text
    assert "FCT shares:" in text
    assert "faults (" in text  # the fault timeline is shown


def test_explain_single_flow_and_missing_flow(tmp_path):
    result = run_scenario(_config(**FAULTED))
    data = load_spans(result.spans.save(tmp_path / "r.spans.json"))
    fid, _doc = tail_flows(data, 1)[0]
    assert f"flow {fid} " in format_explain(data, flow=fid)
    payload = explain_payload(data, flow=fid)
    assert payload["flows"][0]["flow"] == fid
    with pytest.raises(ConfigError):
        format_explain(data, flow=999_999)
    with pytest.raises(ConfigError):
        explain_payload(data, flow=999_999)


@pytest.mark.parametrize("content", [
    None,
    "not json {",
    json.dumps([1, 2]),
    json.dumps({"format": "other"}),
], ids=["missing", "not-json", "json-list", "wrong-format"])
def test_load_spans_rejects_non_span_json(tmp_path, content):
    bogus = tmp_path / "x.spans.json"
    if content is not None:
        bogus.write_text(content)
    with pytest.raises(ConfigError, match="x.spans.json"):
        load_spans(bogus)


def test_summary_row_shapes_for_diff():
    result = run_scenario(_config())
    row = summary_row(result.spans.data)
    assert row["name"] == "spans"
    assert row["n_flows"] >= row["n_completed"] > 0
    for c in COMPONENTS:
        assert 0.0 <= row[f"{c}_share"] <= 1.0
    assert row["retained_full"] > 0


def test_extras_are_scalar_safe_for_flat_export():
    result = run_scenario(_config())
    extras = result.metrics.extras["spans"]
    assert extras["flows"] == result.spans.data["totals"]["flows"]
    flat = metrics_to_dict(result.metrics)
    assert "extra_spans" not in flat  # nested dict stays out of flat rows
