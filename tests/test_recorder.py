"""Tests for the flight recorder: bounded sampling, audit, determinism."""

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.experiments.common import ScenarioConfig, run_scenario
from repro.metrics.export import metrics_to_dict
from repro.obs.recorder import FlightRecorder, RecordedRun

SMALL = dict(n_paths=4, hosts_per_leaf=12, n_short=8, n_long=1,
             long_size=400_000, short_window=0.005, horizon=0.5)


def _record(seed=1, scheme="tlb", **rec_kwargs):
    rec = FlightRecorder(**rec_kwargs)
    res = run_scenario(ScenarioConfig(scheme=scheme, seed=seed, **SMALL),
                       recorder=rec)
    return rec, res


@pytest.fixture(scope="module")
def recorded():
    return _record(seed=3)


def test_samples_every_leaf_uplink(recorded):
    rec, res = recorded
    assert rec.n_samples > 10
    arrays = rec.to_arrays()
    n_ports = len(rec.port_names)
    assert n_ports == len(res.net.all_leaf_uplink_ports())
    for key in ("qdepth", "busy_time", "bytes_tx", "ecn_marked", "drops"):
        assert arrays[key].shape == (rec.n_samples, n_ports)
    # cumulative counters never decrease
    assert (np.diff(arrays["bytes_tx"], axis=0) >= 0).all()
    assert (np.diff(arrays["busy_time"], axis=0) >= -1e-12).all()
    assert (np.diff(arrays["times"]) > 0).all()


def test_qth_audit_captures_decisions_with_inputs(recorded):
    rec, res = recorded
    arrays = rec.to_arrays()
    assert arrays["audit_t"].size > 0
    # every leaf switch that runs TLB shows up
    assert set(str(s) for s in arrays["audit_switches"]) == \
        {name for name, lb in res.balancers.items() if lb.name == "tlb"}
    assert set(str(r) for r in arrays["audit_regime"]) <= {
        "adaptive", "clamped_min", "clamped_max", "infeasible", "no_long"}
    assert (arrays["audit_qth"] >= 1).all()
    assert (arrays["audit_m_short"] >= 0).all()
    assert (arrays["audit_load_bps"] >= 0).all()


def test_fct_and_wait_histograms_fed(recorded):
    rec, _ = recorded
    assert rec.fct_short.count == SMALL["n_short"]
    assert rec.fct_long.count == SMALL["n_long"]
    assert rec.queue_wait.count > 0
    assert rec.fct_short.percentile(50) > 0


def test_same_seed_and_cadence_is_byte_identical(recorded):
    rec_a, _ = recorded
    rec_b, _ = _record(seed=3)
    arrays_a, arrays_b = rec_a.to_arrays(), rec_b.to_arrays()
    assert set(arrays_a) == set(arrays_b)
    for key in arrays_a:
        assert arrays_a[key].tobytes() == arrays_b[key].tobytes(), key


def test_recording_does_not_perturb_flow_metrics(recorded):
    rec, res = recorded
    plain = run_scenario(ScenarioConfig(scheme="tlb", seed=3, **SMALL))
    a = metrics_to_dict(plain.metrics)
    b = metrics_to_dict(res.metrics)
    # the recorder's own timer ticks are not simulation events, so
    # every exported number, the event count included, is unchanged
    for key in a:
        assert a[key] == b[key], key


def test_disabled_recorder_exports_stay_identical(tmp_path):
    from repro.metrics.export import write_metrics_json

    paths = []
    for name in ("a.json", "b.json"):
        res = run_scenario(ScenarioConfig(scheme="tlb", seed=5, **SMALL))
        paths.append(write_metrics_json(tmp_path / name, [res.metrics]))
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_cap_bounds_memory_and_doubles_cadence():
    rec, _ = _record(cadence=50e-6, max_samples=32)
    assert rec.n_samples < 32
    assert rec.cadence_now > rec.cadence
    assert rec.cadence_now / rec.cadence == 2 ** round(
        np.log2(rec.cadence_now / rec.cadence))
    times = rec.to_arrays()["times"]
    assert (np.diff(times) > 0).all()
    # decimation keeps the newest row and re-arms at the doubled
    # interval, so surviving samples stay uniformly spaced
    assert np.allclose(np.diff(times), rec.cadence_now, rtol=1e-9)


def test_audit_ring_is_bounded():
    rec, _ = _record(max_samples=16)
    arrays = rec.to_arrays()
    for i in range(arrays["audit_switches"].size):
        assert np.sum(arrays["audit_switch_idx"] == i) < 16


def test_save_load_roundtrip(recorded, tmp_path):
    rec, _ = recorded
    path = rec.save(tmp_path / "run.npz")
    run = RecordedRun.load(path)
    assert run.meta["scheme"] == "tlb"
    assert run.meta["seed"] == 3
    assert run.n_samples == rec.n_samples
    assert run.port_names == rec.port_names
    assert run.times.tobytes() == rec.to_arrays()["times"].tobytes()
    h = run.histogram("fct_short")
    assert h.count == rec.fct_short.count
    assert h.percentile(99) == rec.fct_short.percentile(99)
    with pytest.raises(ConfigError):
        run.histogram("nope")


def test_derived_series_shapes_and_ranges(recorded, tmp_path):
    rec, _ = recorded
    run = RecordedRun.load(rec.save(tmp_path / "run.npz"))
    util = run.utilization()
    assert util.shape == (run.n_samples - 1, len(run.port_names))
    assert (util >= 0).all() and (util <= 1).all()
    assert (run.throughput_bps() >= 0).all()
    assert run.mid_times().size == run.n_samples - 1
    for key in ("ecn_marked", "drops", "retransmits"):
        assert run.rate_per_second(key).size == run.n_samples - 1
    row = run.summary_row()
    assert row["scheme"] == "tlb"
    assert row["fct_short_p99_s"] > 0
    assert 0 <= row["mean_utilization"] <= 1


def test_audit_filter_by_switch(recorded, tmp_path):
    rec, _ = recorded
    run = RecordedRun.load(rec.save(tmp_path / "run.npz"))
    switches = run.audit_switches()
    assert switches
    one = run.audit(switches[0])
    assert one["t"].size > 0
    assert one["t"].size <= run.audit()["t"].size
    with pytest.raises(ConfigError):
        run.audit("no-such-switch")


def test_non_tlb_scheme_records_without_audit(tmp_path):
    rec, _ = _record(scheme="ecmp")
    run = RecordedRun.load(rec.save(tmp_path / "e.npz"))
    assert run.audit_switches() == []
    assert run.audit()["t"].size == 0
    assert run.n_samples > 0
    assert run.histogram("fct_short").count == SMALL["n_short"]


def test_load_rejects_non_recordings(tmp_path):
    with pytest.raises(ConfigError):
        RecordedRun.load(tmp_path / "missing.npz")
    junk = tmp_path / "junk.npz"
    junk.write_bytes(b"not a zipfile")
    with pytest.raises(ConfigError):
        RecordedRun.load(junk)
    other = tmp_path / "other.npz"
    np.savez(other, foo=np.arange(3))
    with pytest.raises(ConfigError):
        RecordedRun.load(other)


def test_recorder_validates_params_and_double_attach(recorded):
    with pytest.raises(ConfigError):
        FlightRecorder(cadence=0.0)
    with pytest.raises(ConfigError):
        FlightRecorder(max_samples=2)
    rec, res = recorded
    with pytest.raises(ConfigError):
        rec.attach(res.net)


def test_one_decision_stream_three_consumers(tmp_path):
    """TLB's ``qth`` records, as a teed tracer sees them, are the
    recorder's audit rows and the span file's decision rows, row for
    row."""
    from repro.core.granularity_calculator import DECISION_FIELDS as keys
    from repro.obs.spans import load_spans
    from repro.sim.trace import RecordingTracer
    from tests.test_outcome_pins import _cells

    tap = RecordingTracer(kinds={"qth"})
    rec = FlightRecorder()
    res = run_scenario(replace(_cells()["tlb"], spans=True),
                       tracer=tap, recorder=rec)
    records = tap.of_kind("qth")
    assert records
    assert {r.fields["node"] for r in records} == set(res.balancers)
    assert all(set(r.fields) == {"node", *keys, "load_bps"} for r in records)

    arrays = rec.to_arrays()
    switches = [str(s) for s in arrays["audit_switches"]]
    # the audit groups rows by switch (name-sorted), in time order within
    by_switch = sorted(records, key=lambda r: switches.index(r.fields["node"]))
    assert [r.time for r in by_switch] == arrays["audit_t"].tolist()
    assert [switches.index(r.fields["node"]) for r in by_switch] \
        == arrays["audit_switch_idx"].tolist()
    for key in (*keys, "load_bps"):
        assert [r.fields[key] for r in by_switch] \
            == arrays[f"audit_{key}"].tolist(), key

    expected: dict = {}
    for r in records:
        row = {"t": r.time}
        row.update((key, r.fields[key]) for key in keys)
        expected.setdefault(r.fields["node"], []).append(row)
    spans = load_spans(res.spans.save(tmp_path / "run.spans.json"))
    assert spans["decisions"] == expected
