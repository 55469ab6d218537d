"""Tests for the observability layer (repro.obs)."""

import io
import json

import pytest

from repro.errors import ConfigError
from repro.experiments.common import _peak_rss_bytes
from repro.obs import (
    JsonlTracer,
    ProgressReporter,
    TeeTracer,
    build_manifest,
    format_trace_summary,
    summarize_trace,
    write_manifest,
)
from repro.sim.engine import Simulator
from repro.sim.trace import NullTracer, RecordingTracer


# -- JsonlTracer ---------------------------------------------------------


def test_jsonl_tracer_writes_one_object_per_line(tmp_path):
    path = tmp_path / "t.jsonl"
    with JsonlTracer(path) as t:
        t.emit(0.5, "enqueue", port="leaf0->spine1", flow=7, qlen=3)
        t.emit(0.6, "drop", port="leaf0->spine1", flow=8)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first == {"t": 0.5, "kind": "enqueue", "port": "leaf0->spine1",
                     "flow": 7, "qlen": 3}


def test_jsonl_tracer_bounded_buffering(tmp_path):
    path = tmp_path / "t.jsonl"
    t = JsonlTracer(path, flush_every=10)
    for i in range(9):
        t.emit(float(i), "enqueue", port="p")
    assert path.read_text() == ""  # still buffered
    t.emit(9.0, "enqueue", port="p")
    assert len(path.read_text().splitlines()) == 10  # hit the bound
    t.close()


def test_jsonl_tracer_kind_filter(tmp_path):
    path = tmp_path / "t.jsonl"
    with JsonlTracer(path, kinds={"drop"}) as t:
        t.emit(0.0, "enqueue", port="p")
        t.emit(0.1, "drop", port="p")
    assert t.records_written == 1
    assert json.loads(path.read_text())["kind"] == "drop"


def test_jsonl_tracer_close_is_idempotent_and_final(tmp_path):
    t = JsonlTracer(tmp_path / "t.jsonl")
    t.emit(0.0, "enqueue", port="p")
    t.close()
    t.close()  # idempotent
    assert t.closed
    with pytest.raises(ConfigError):
        t.emit(1.0, "enqueue", port="p")


def test_jsonl_tracer_creates_parent_dirs(tmp_path):
    path = tmp_path / "deep" / "dir" / "t.jsonl"
    with JsonlTracer(path) as t:
        t.emit(0.0, "enqueue", port="p")
    assert path.exists()


def test_jsonl_tracer_rejects_bad_flush_every(tmp_path):
    with pytest.raises(ConfigError):
        JsonlTracer(tmp_path / "t.jsonl", flush_every=0)


def test_jsonl_tracer_counts_per_kind(tmp_path):
    with JsonlTracer(tmp_path / "t.jsonl") as t:
        t.emit(0.0, "enqueue", port="a")
        t.emit(0.1, "enqueue", port="a")
        t.emit(0.2, "enqueue", port="b")
        t.emit(0.3, "drop", port="a")
        t.emit(0.4, "reroute", node="leaf0")
        t.emit(0.5, "tick")  # no node attribution
    assert t.totals() == {"drop": 1, "enqueue": 3, "reroute": 1, "tick": 1}
    assert list(t.totals()) == sorted(t.totals())
    assert t.records_written == 6


def test_jsonl_tracer_kind_filter_counts(tmp_path):
    with JsonlTracer(tmp_path / "t.jsonl", kinds={"drop"}) as t:
        t.emit(0.0, "enqueue", port="a")
        t.emit(0.1, "drop", port="a")
    assert t.totals() == {"drop": 1}


# -- TeeTracer -----------------------------------------------------------


def test_tee_tracer_fans_out_and_reports_enabled():
    rec, other = RecordingTracer(), RecordingTracer()
    tee = TeeTracer(rec, other)
    assert tee.enabled
    tee.emit(1.0, "drop", port="p")
    assert rec.count("drop") == 1
    assert other.count("drop") == 1


def test_tee_of_disabled_tracers_is_disabled():
    assert not TeeTracer(NullTracer(), NullTracer()).enabled
    assert not TeeTracer().enabled


def test_tee_close_propagates(tmp_path):
    jsonl = JsonlTracer(tmp_path / "t.jsonl")
    tee = TeeTracer(jsonl, RecordingTracer())
    tee.emit(0.0, "enqueue", port="p")
    tee.close()
    assert jsonl.closed
    assert (tmp_path / "t.jsonl").read_text().strip() != ""


# -- telemetry -----------------------------------------------------------


def test_peak_rss_is_positive_when_available():
    rss = _peak_rss_bytes()
    assert rss is None or rss > 1_000_000


# -- manifests -----------------------------------------------------------


def test_build_manifest_records_provenance_and_config(tmp_path):
    from repro.experiments.common import ScenarioConfig

    config = ScenarioConfig(scheme="ecmp", seed=42)
    counters = JsonlTracer(tmp_path / "t.jsonl")
    counters.emit(0.0, "enqueue", port="p")
    counters.close()
    manifest = build_manifest(config, counters=counters,
                              extra={"note": "unit test"})
    assert manifest["package"] == "repro"
    assert manifest["version"]
    assert manifest["seed"] == 42
    assert manifest["scheme"] == "ecmp"
    assert manifest["config"]["n_paths"] == 15
    assert manifest["trace_counters"] == {"enqueue": 1}
    assert manifest["note"] == "unit test"
    json.dumps(manifest)  # fully serialisable


def test_write_manifest_beside_export(tmp_path):
    export = tmp_path / "runs.csv"
    export.write_text("a,b\n")
    path = write_manifest(export, {"schema": 1})
    assert path == tmp_path / "manifest.json"
    payload = json.loads(path.read_text())
    assert payload["export"] == "runs.csv"


def test_write_manifest_into_directory(tmp_path):
    path = write_manifest(tmp_path, {"schema": 1})
    assert path == tmp_path / "manifest.json"
    assert "export" not in json.loads(path.read_text())


# -- trace summarize -----------------------------------------------------


def test_summarize_round_trips_jsonl_counts(tmp_path):
    path = tmp_path / "t.jsonl"
    tracer = JsonlTracer(path)
    tracer.emit(0.1, "enqueue", port="a", flow=1)
    tracer.emit(0.2, "enqueue", port="b", flow=1)
    tracer.emit(0.3, "drop", port="a", flow=2)
    tracer.emit(0.4, "reroute", node="leaf0", flow=3)
    tracer.close()
    summary = summarize_trace(path)
    assert summary.n_records == 4
    assert summary.by_kind == tracer.totals()
    assert summary.nodes_for("enqueue") == {"a": 1, "b": 1}
    assert summary.t_min == pytest.approx(0.1)
    assert summary.t_max == pytest.approx(0.4)


def test_summarize_missing_and_malformed(tmp_path):
    with pytest.raises(ConfigError):
        summarize_trace(tmp_path / "absent.jsonl")
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"t": 0.0, "kind": "x"}\nnot json\n')
    with pytest.raises(ConfigError, match="bad.jsonl:2"):
        summarize_trace(bad)


def test_format_trace_summary_tables(tmp_path):
    path = tmp_path / "t.jsonl"
    with JsonlTracer(path) as t:
        for i in range(3):
            t.emit(float(i), "enqueue", port=f"p{i}")
        t.emit(3.0, "drop", port="p0")
    text = format_trace_summary(summarize_trace(path), per_node=True, top=2)
    assert "4 records" in text
    assert "enqueue" in text and "drop" in text
    assert "p0" in text
    assert "1 more" in text  # top=2 elides the third enqueue node


# -- progress ------------------------------------------------------------


def test_progress_reporter_heartbeat_and_eta():
    out = io.StringIO()
    rep = ProgressReporter(4, label="unit", stream=out)
    rep.task_done()
    rep.task_done(info="scheme=tlb")
    lines = out.getvalue().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("[unit] 1/4 (25%)")
    assert "eta" in lines[0]
    assert lines[1].endswith("scheme=tlb")
    assert rep.eta() >= 0.0


def test_progress_reporter_rate_limit_keeps_final_line():
    out = io.StringIO()
    rep = ProgressReporter(3, stream=out, min_interval=3600.0)
    rep.task_done()  # first line prints (elapsed >> -inf)
    rep.task_done()  # suppressed
    rep.task_done()  # final: always prints
    lines = out.getvalue().splitlines()
    assert len(lines) == 2
    assert "3/3 (100%)" in lines[-1]
    assert "eta" not in lines[-1]


def test_progress_reporter_rejects_empty_batch():
    with pytest.raises(ConfigError):
        ProgressReporter(0)


def test_run_many_drives_reporter_serially():
    from repro.experiments.runner import run_many

    out = io.StringIO()
    rep = ProgressReporter(3, stream=out)
    results = run_many([1, 2, 3], processes=0, runner=lambda c: c * 10,
                       progress=rep)
    assert results == [10, 20, 30]
    assert rep.done == 3
    assert "3/3" in out.getvalue()


# -- end-to-end through the scenario harness -----------------------------


def test_scenario_trace_and_telemetry_end_to_end(tmp_path):
    """The acceptance path: run → JSONL + counters → summarize agreement."""
    from repro.experiments.common import ScenarioConfig, run_scenario

    trace_path = tmp_path / "run.jsonl"
    tracer = JsonlTracer(trace_path)
    config = ScenarioConfig(
        scheme="tlb", seed=3, n_paths=4, n_short=4, n_long=1,
        hosts_per_leaf=5, short_window=0.005, distinct_hosts=True,
        horizon=0.5, telemetry=True)
    result = run_scenario(config, tracer=tracer)
    tracer.close()

    extras = result.metrics.extras
    assert extras["wall_time_s"] > 0
    assert extras["events_per_sec"] > 0
    assert extras["events"] > 0
    assert "telemetry:" in result.metrics.summary()

    summary = summarize_trace(trace_path)
    assert summary.n_records == tracer.records_written > 0
    assert summary.by_kind == tracer.totals()
    assert {"enqueue", "qth"} <= set(summary.by_kind)


# -- gzip trace support ------------------------------------------------------

def test_jsonl_tracer_gzip_by_suffix(tmp_path):
    import gzip
    import json

    from repro.obs import JsonlTracer

    path = tmp_path / "t.jsonl.gz"
    with JsonlTracer(path) as t:
        t.emit(0.0, "enqueue", port="a", qlen=1)
        t.emit(0.5, "drop", port="b")
    # really gzip on disk (magic bytes), and records round-trip
    assert path.read_bytes()[:2] == b"\x1f\x8b"
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    assert [r["kind"] for r in records] == ["enqueue", "drop"]
    assert records[0]["qlen"] == 1


def test_summarize_reads_gzip_and_plain_identically(tmp_path):
    from repro.obs import JsonlTracer, summarize_trace

    events = [(0.0, "enqueue", {"port": "a"}), (0.1, "enqueue", {"port": "b"}),
              (0.2, "drop", {"port": "a"})]
    plain, gz = tmp_path / "t.jsonl", tmp_path / "t.jsonl.gz"
    for path in (plain, gz):
        with JsonlTracer(path) as t:
            for when, kind, fields in events:
                t.emit(when, kind, **fields)
    a, b = summarize_trace(plain), summarize_trace(gz)
    assert a.n_records == b.n_records == 3
    assert a.by_kind == b.by_kind
    assert a.by_kind_node == b.by_kind_node


def test_gzip_trace_end_to_end_run(tmp_path):
    from repro.experiments.common import ScenarioConfig, run_scenario
    from repro.obs import JsonlTracer, summarize_trace

    path = tmp_path / "run.jsonl.gz"
    tracer = JsonlTracer(path, kinds={"drop", "reroute"})
    try:
        run_scenario(ScenarioConfig(
            scheme="tlb", n_paths=4, hosts_per_leaf=12, n_short=6, n_long=1,
            long_size=200_000, short_window=0.005, horizon=0.5),
            tracer=tracer)
    finally:
        tracer.close()
    summary = summarize_trace(path)
    assert summary.n_records == tracer.records_written


# -- summarize filters -------------------------------------------------------


def test_summarize_flow_and_kind_filters(tmp_path):
    path = tmp_path / "t.jsonl"
    with JsonlTracer(path) as t:
        t.emit(0.1, "enqueue", port="a", flow=1)
        t.emit(0.2, "enqueue", port="a", flow=2)
        t.emit(0.3, "drop", port="a", flow=1)
        t.emit(0.4, "reroute", node="leaf0")  # no flow field

    by_flow = summarize_trace(path, flow=1)
    assert by_flow.n_records == 2
    assert by_flow.by_kind == {"drop": 1, "enqueue": 1}
    assert by_flow.n_filtered_out == 2
    assert by_flow.filters == "flow=1"
    assert by_flow.t_min == pytest.approx(0.1)
    assert by_flow.t_max == pytest.approx(0.3)

    by_kind = summarize_trace(path, kind="enqueue")
    assert by_kind.n_records == 2
    assert by_kind.by_kind == {"enqueue": 2}

    both = summarize_trace(path, flow=2, kind="enqueue")
    assert both.n_records == 1
    assert both.filters == "flow=2 kind=enqueue"

    text = format_trace_summary(by_flow)
    assert "flow=1" in text and "2 records filtered out" in text


def test_summarize_filters_work_on_gzip(tmp_path):
    path = tmp_path / "t.jsonl.gz"
    with JsonlTracer(path) as t:
        t.emit(0.1, "enqueue", port="a", flow=1)
        t.emit(0.2, "drop", port="a", flow=2)
    assert summarize_trace(path, kind="drop").n_records == 1


# -- cleanup-hook flush on abnormal engine exit ------------------------------


def test_jsonl_tracer_flushes_on_engine_crash(tmp_path):
    """Regression: a crashed run must not lose its buffered trace tail."""
    path = tmp_path / "crash.jsonl"
    tracer = JsonlTracer(path, flush_every=10_000)  # never flushes by count
    sim = Simulator()
    sim.add_cleanup_hook(tracer.flush)

    def emit_one(i):
        tracer.emit(sim.now, "enqueue", port="p", flow=i)

    for i in range(5):
        sim.call_later(0.001 * (i + 1), emit_one, i)

    def boom():
        raise RuntimeError("mid-run crash")

    sim.call_later(0.01, boom)
    with pytest.raises(RuntimeError):
        sim.run()
    lines = path.read_text().splitlines()
    assert len(lines) == 5  # everything emitted before the crash is on disk
    tracer.close()


def test_run_scenario_wires_tracer_flush_hook(tmp_path):
    from repro.experiments.common import ScenarioConfig, run_scenario
    from repro.sim.trace import Tracer

    class Bomb(Tracer):
        enabled = True

        def __init__(self, fuse):
            self.fuse = fuse

        def emit(self, time, kind, **fields):
            self.fuse -= 1
            if self.fuse <= 0:
                raise RuntimeError("sink crashed mid-run")

    path = tmp_path / "run.jsonl"
    jsonl = JsonlTracer(path, flush_every=10_000)  # never flushes by count
    tracer = TeeTracer(jsonl, Bomb(fuse=50))
    try:
        with pytest.raises(RuntimeError, match="sink crashed"):
            run_scenario(ScenarioConfig(
                scheme="tlb", n_paths=4, hosts_per_leaf=5, n_short=4,
                n_long=1, short_window=0.005, horizon=0.5), tracer=tracer)
    finally:
        jsonl.close()
    # run_scenario's cleanup hook flushed the buffered tail to disk
    assert len(path.read_text().splitlines()) == 50
