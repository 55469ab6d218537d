"""Tests for the command-line interface."""

import pytest

from repro.cli import FIGURES, build_parser, main


def test_schemes_command(capsys):
    assert main(["schemes"]) == 0
    out = capsys.readouterr().out.split()
    for s in ("ecmp", "rps", "presto", "letflow", "tlb", "hermes"):
        assert s in out


def test_model_command(capsys):
    assert main(["model", "--short-flows", "100", "--long-flows", "3",
                 "--paths", "15", "--deadline", "0.01"]) == 0
    out = capsys.readouterr().out
    assert "q_th" in out
    assert "m_S=100" in out


def test_run_command_static_small(capsys, tmp_path):
    csv_path = tmp_path / "out.csv"
    assert main(["run", "--scheme", "ecmp", "--short-flows", "6",
                 "--long-flows", "1", "--paths", "4",
                 "--csv", str(csv_path)]) == 0
    out = capsys.readouterr().out
    assert "scheme=ecmp" in out
    assert csv_path.exists()


def test_sweep_command_tiny(capsys, tmp_path):
    csv_path = tmp_path / "sweep.csv"
    assert main(["sweep", "--schemes", "ecmp", "--loads", "0.3",
                 "--flows", "10", "--csv", str(csv_path)]) == 0
    out = capsys.readouterr().out
    assert "Fig. 10" in out
    content = csv_path.read_text()
    assert "swept_scheme" in content and "ecmp" in content


def test_run_command_trace_telemetry_and_manifest(capsys, tmp_path):
    import json

    trace = tmp_path / "t.jsonl"
    json_path = tmp_path / "out" / "m.json"
    assert main(["run", "--scheme", "tlb", "--short-flows", "6",
                 "--long-flows", "1", "--paths", "4",
                 "--trace", str(trace), "--telemetry",
                 "--json", str(json_path)]) == 0
    out = capsys.readouterr().out
    assert "telemetry:" in out
    assert "trace records" in out
    assert trace.exists() and json_path.exists()
    manifest = json.loads((json_path.parent / "manifest.json").read_text())
    assert manifest["scheme"] == "tlb"
    assert manifest["export"] == "m.json"
    assert sum(manifest["trace_counters"].values()) > 0


def test_run_command_warns_on_poisson_only_flags(capsys):
    assert main(["run", "--scheme", "ecmp", "--workload", "static",
                 "--short-flows", "6", "--long-flows", "1", "--paths", "4",
                 "--load", "0.7"]) == 0
    err = capsys.readouterr().err
    assert "warning: --load applies only to --workload poisson" in err


def test_trace_summarize_command(capsys, tmp_path):
    from repro.obs import JsonlTracer

    path = tmp_path / "t.jsonl"
    with JsonlTracer(path) as t:
        t.emit(0.0, "enqueue", port="a")
        t.emit(0.1, "drop", port="a")
    assert main(["trace", "summarize", str(path), "--per-node"]) == 0
    out = capsys.readouterr().out
    assert "2 records" in out
    assert "drop" in out and "enqueue" in out


def test_sweep_progress_flag_parses():
    args = build_parser().parse_args(
        ["sweep", "--schemes", "ecmp", "--loads", "0.3", "--progress"])
    assert args.progress is True


def test_figure_choices_cover_all_paper_figures():
    expected = {f"fig{i}" for i in [3, 4, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17]}
    expected.add("faults")     # beyond the paper: dynamic-failure comparison
    expected.add("workloads")  # beyond the paper: scenario grid
    assert set(FIGURES) == expected


def test_run_command_with_faults(capsys):
    assert main(["run", "--scheme", "tlb", "--short-flows", "6",
                 "--long-flows", "1", "--paths", "4",
                 "--faults",
                 "0.001:link_down:leaf0-spine1;0.01:link_up:leaf0-spine1"]) == 0
    out = capsys.readouterr().out
    assert "scheme=tlb" in out


def _usage_error(capsys, argv) -> str:
    """Run ``argv``, expecting exit 2 and one ``repro: error:`` line."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("repro: error: ")
    return line


def test_run_command_rejects_malformed_fault_spec(capsys):
    line = _usage_error(capsys, [
        "run", "--short-flows", "6", "--long-flows", "1",
        "--paths", "4", "--faults", "0.1:meteor:leaf0-spine1"])
    assert "unknown fault kind 'meteor'" in line


@pytest.mark.parametrize("command", [
    ["run", "--short-flows", "6", "--long-flows", "1", "--paths", "4"],
    ["sweep", "--schemes", "ecmp", "--loads", "0.3", "--flows", "10"],
], ids=["run", "sweep"])
@pytest.mark.parametrize("flag,spec,message", [
    ("--faults", "0.1:meteor_strike:leaf0-spine1",
     "unknown fault kind 'meteor_strike'"),
    ("--workload", "zipf:s=-1", "zipf s must be in (0, 4], got -1.0"),
], ids=["faults", "workload"])
def test_bad_spec_is_one_usage_error_line(capsys, command, flag, spec,
                                          message):
    assert message in _usage_error(capsys, [*command, flag, spec])


def test_sweep_command_with_faults_and_retries(capsys, tmp_path):
    csv_path = tmp_path / "sweep.csv"
    assert main(["sweep", "--schemes", "ecmp", "--loads", "0.3",
                 "--flows", "10", "--retries", "0", "--faults",
                 "0.001:link_down:leaf0-spine1;0.01:link_up:leaf0-spine1",
                 "--csv", str(csv_path)]) == 0
    out = capsys.readouterr().out
    assert "Fig. 10" in out
    assert csv_path.exists()


def test_parser_rejects_unknown_figure():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["figure", "fig99"])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["--version"])
    assert exc.value.code == 0


# -- flight recorder commands ------------------------------------------------

def test_run_record_then_report_html(capsys, tmp_path):
    rec_path = tmp_path / "run.npz"
    html_path = tmp_path / "out.html"
    assert main(["run", "--scheme", "tlb", "--short-flows", "6",
                 "--long-flows", "1", "--paths", "4",
                 "--record", str(rec_path)]) == 0
    out = capsys.readouterr().out
    assert "samples" in out and rec_path.exists()
    assert main(["report", str(rec_path), "--html", str(html_path)]) == 0
    html = html_path.read_text(encoding="utf-8")
    assert 'id="panel-qth"' in html and "Eq. 9" in html
    # summary-only mode prints the flat row
    assert main(["report", str(rec_path)]) == 0
    out = capsys.readouterr().out
    assert "fct_short_p99_s" in out


def test_diff_command_exit_codes(capsys, tmp_path):
    import json

    base = {"scheme": "tlb", "short_fct_p99_s": 0.010, "long_goodput_bps": 1e9}
    regressed = dict(base, short_fct_p99_s=0.011)  # +10 %
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps([base]))
    b.write_text(json.dumps([regressed]))
    assert main(["diff", str(a), str(a)]) == 0
    assert "0 regression(s)" in capsys.readouterr().out
    assert main(["diff", str(a), str(b)]) == 1
    assert "short_fct_p99_s" in capsys.readouterr().out
    # a loose tolerance passes the same pair
    assert main(["diff", str(a), str(b), "--tolerance", "15"]) == 0


def test_record_flags_parse_with_defaults(capsys):
    args = build_parser().parse_args(["run", "--record", "r.npz"])
    assert args.record == "r.npz"
    # the recorder runs at FlightRecorder's defaults; its two tuning
    # flags are gone
    assert not hasattr(args, "record_cadence")
    assert not hasattr(args, "record_max_samples")
    for flag in ("--record-cadence", "--record-max-samples"):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--record", "r.npz", flag, "1"])
    capsys.readouterr()


def test_bench_command_is_gone_not_hidden(capsys):
    """The benchmark ladder (benchmarks/ladder) replaced `repro bench`."""
    import importlib.util

    with pytest.raises(SystemExit) as exc:
        main(["bench"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    for name in ("repro.experiments.bench", "repro.experiments.microbench"):
        assert importlib.util.find_spec(name) is None


# -- result cache ----------------------------------------------------------


def test_cache_flags_parse():
    parser = build_parser()
    args = parser.parse_args(["run"])
    assert args.cache is False and args.cache_dir is None
    args = parser.parse_args(["sweep", "--cache"])
    assert args.cache is True
    args = parser.parse_args(["run", "--no-cache"])
    assert args.cache is False
    args = parser.parse_args(["figure", "fig10", "--cache-dir", "/tmp/c"])
    assert args.cache_dir == "/tmp/c"  # implies --cache in _cache_from_args


def test_cache_subcommand_stats_clear_gc(capsys, tmp_path):
    from repro.cache import ResultCache
    from repro.experiments.common import ScenarioConfig

    root = tmp_path / "cache"
    cache = ResultCache(root, fingerprint="0" * 64)
    for seed in (1, 2):
        cache.put(ScenarioConfig(seed=seed), {"seed": seed})
    assert main(["cache", "--cache-dir", str(root), "stats"]) == 0
    out = capsys.readouterr().out
    assert "2" in out and str(root) in out
    assert main(["cache", "--cache-dir", str(root), "gc",
                 "--max-size", "0"]) == 0
    assert "evicted 2 entries" in capsys.readouterr().out
    assert main(["cache", "--cache-dir", str(root), "clear"]) == 0
    assert "removed 0 entries" in capsys.readouterr().out


def test_run_command_cache_cold_then_warm(capsys, tmp_path):
    root = tmp_path / "cache"
    argv = ["run", "--scheme", "ecmp", "--short-flows", "6",
            "--long-flows", "1", "--paths", "4",
            "--cache-dir", str(root)]
    assert main(argv) == 0
    cold = capsys.readouterr()
    assert "result cache: hit" not in cold.err
    assert main(argv) == 0
    warm = capsys.readouterr()
    assert "result cache: hit" in warm.err
    assert warm.out == cold.out  # identical summary either way


def test_run_cache_never_replays_observer_output(capsys, tmp_path):
    """CSV bytes must not depend on who filled the cache."""
    base = ["run", "--scheme", "ecmp", "--short-flows", "6",
            "--long-flows", "1", "--paths", "4",
            "--cache-dir", str(tmp_path / "cache")]
    assert main(base + ["--telemetry"]) == 0
    assert "telemetry:" in capsys.readouterr().out
    csv_path = tmp_path / "out" / "m.csv"
    assert main(base + ["--csv", str(csv_path)]) == 0
    assert "telemetry:" not in capsys.readouterr().out
    header = csv_path.read_text().splitlines()[0]
    for leaked in ("extra_wall", "per_sec", "rss"):
        assert leaked not in header


def test_run_command_cache_ignored_with_trace(capsys, tmp_path):
    for observer in (["--trace", str(tmp_path / "t.jsonl")], ["--telemetry"]):
        assert main(["run", "--scheme", "ecmp", "--short-flows", "6",
                     "--long-flows", "1", "--paths", "4",
                     "--cache-dir", str(tmp_path / "cache")] + observer) == 0
        err = capsys.readouterr().err
        assert "--cache ignored" in err
        assert not (tmp_path / "cache").exists() or not list(
            (tmp_path / "cache" / "objects").iterdir())


def test_sweep_command_cache_warm_pass(capsys, tmp_path):
    import json

    root = tmp_path / "cache"
    csv_cold, csv_warm = tmp_path / "cold.csv", tmp_path / "warm" / "w.csv"
    base = ["sweep", "--schemes", "ecmp", "--loads", "0.3", "0.5",
            "--flows", "10", "--cache-dir", str(root)]
    assert main(base + ["--csv", str(csv_cold)]) == 0
    cold = capsys.readouterr()
    assert "2 computed, 0 cached, 0 failed" in cold.err
    assert main(base + ["--csv", str(csv_warm)]) == 0
    warm = capsys.readouterr()
    assert "0 computed, 2 cached, 0 failed" in warm.err
    assert csv_warm.read_text() == csv_cold.read_text()
    manifest = json.loads((csv_warm.parent / "manifest.json").read_text())
    assert manifest["cache"]["hits"] == 2
    assert manifest["cache"]["misses"] == 0


def test_figure_command_threads_cache(capsys, monkeypatch, tmp_path):
    import sys
    import types

    mod = types.ModuleType("_fake_fig")
    seen = {}

    def cacheable_fig(sizes, cache=None):
        seen["cache"] = cache
        return f"fake figure {sizes}"

    def plain_fig(sizes):
        return f"plain figure {sizes}"

    mod.cacheable_fig = cacheable_fig
    mod.plain_fig = plain_fig
    monkeypatch.setitem(sys.modules, "_fake_fig", mod)

    monkeypatch.setitem(FIGURES, "fig10",
                        ("_fake_fig", "cacheable_fig", ("web_search",)))
    assert main(["figure", "fig10", "--cache-dir",
                 str(tmp_path / "cache")]) == 0
    captured = capsys.readouterr()
    assert "fake figure web_search" in captured.out
    assert seen["cache"] is not None
    assert "0 hit(s), 0 miss(es)" in captured.err

    monkeypatch.setitem(FIGURES, "fig10",
                        ("_fake_fig", "plain_fig", ("web_search",)))
    assert main(["figure", "fig10", "--cache-dir",
                 str(tmp_path / "cache")]) == 0
    captured = capsys.readouterr()
    assert "plain figure web_search" in captured.out
    assert "cannot use the result cache" in captured.err


# -- flow forensics (spans / explain / profile) -----------------------------


def _run_spans(tmp_path, name="run.spans.json"):
    path = tmp_path / name
    assert main(["run", "--scheme", "tlb", "--short-flows", "8",
                 "--long-flows", "1", "--paths", "4", "--seed", "5",
                 "--faults", "0.0005:link_down:leaf0-spine0;"
                 "0.05:link_up:leaf0-spine0",
                 "--spans", str(path)]) == 0
    return path


def test_run_spans_then_explain_text_and_json(capsys, tmp_path):
    import json

    path = _run_spans(tmp_path)
    out = capsys.readouterr().out
    assert "full hop detail" in out and path.exists()

    assert main(["explain", str(path), "--tail", "3"]) == 0
    out = capsys.readouterr().out
    assert "top 3 tail flows" in out
    assert "dominant=" in out
    assert "FCT shares:" in out

    assert main(["explain", str(path), "--tail", "2",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["format"] == "repro-spans-v1"
    assert len(payload["flows"]) == 2


def test_explain_single_flow(capsys, tmp_path):
    path = _run_spans(tmp_path)
    capsys.readouterr()
    assert main(["explain", str(path), "--tail", "1"]) == 0
    out = capsys.readouterr().out
    fid = out.split("flow ")[2].split(" ")[0]
    assert main(["explain", str(path), "--flow", fid]) == 0
    assert f"flow {fid} " in capsys.readouterr().out


def test_run_spans_gzip_and_manifest(capsys, tmp_path):
    import json

    path = tmp_path / "run.spans.json.gz"
    json_path = tmp_path / "m.json"
    assert main(["run", "--scheme", "tlb", "--short-flows", "6",
                 "--long-flows", "1", "--paths", "4",
                 "--spans", str(path), "--json", str(json_path)]) == 0
    assert path.read_bytes()[:2] == b"\x1f\x8b"
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["observability"]["spans"] is True
    assert manifest["observability"]["profile"] is False
    assert main(["explain", str(path)]) == 0


def test_run_cache_ignored_with_spans(capsys, tmp_path):
    path = tmp_path / "c.spans.json"
    assert main(["run", "--scheme", "ecmp", "--short-flows", "4",
                 "--long-flows", "1", "--paths", "4",
                 "--cache-dir", str(tmp_path / "cache"),
                 "--spans", str(path)]) == 0
    err = capsys.readouterr().err
    assert "--cache ignored" in err
    assert path.exists()


def test_report_with_spans_section(capsys, tmp_path):
    rec = tmp_path / "run.npz"
    html = tmp_path / "out.html"
    spans = tmp_path / "run.spans.json"
    assert main(["run", "--scheme", "tlb", "--short-flows", "6",
                 "--long-flows", "1", "--paths", "4",
                 "--record", str(rec), "--spans", str(spans)]) == 0
    assert main(["report", str(rec), "--html", str(html),
                 "--spans", str(spans)]) == 0
    text = html.read_text(encoding="utf-8")
    assert 'id="panel-spans"' in text and "Tail forensics" in text
    # without --spans the section is absent
    html2 = tmp_path / "plain.html"
    assert main(["report", str(rec), "--html", str(html2)]) == 0
    assert "Tail forensics" not in html2.read_text(encoding="utf-8")


def test_diff_accepts_span_files(capsys, tmp_path):
    a = _run_spans(tmp_path, "a.spans.json")
    b = _run_spans(tmp_path, "b.spans.json")
    capsys.readouterr()
    assert main(["diff", str(a), str(b), "--all"]) == 0
    out = capsys.readouterr().out
    assert "queueing_share" in out
    assert "0 regression(s)" in out  # identical seeded runs: no deltas


def test_trace_summarize_flow_and_kind_flags(capsys, tmp_path):
    trace = tmp_path / "t.jsonl"
    assert main(["run", "--scheme", "tlb", "--short-flows", "6",
                 "--long-flows", "1", "--paths", "4",
                 "--trace", str(trace)]) == 0
    capsys.readouterr()
    assert main(["trace", "summarize", str(trace), "--kind", "enqueue"]) == 0
    out = capsys.readouterr().out
    assert "kind=enqueue" in out and "filtered out" in out
    assert main(["trace", "summarize", str(trace), "--flow", "0"]) == 0
    assert "flow=0" in capsys.readouterr().out


def test_explain_flags_parse():
    args = build_parser().parse_args(
        ["explain", "x.spans.json", "--flow", "7", "--format", "json"])
    assert args.flow == 7 and args.format == "json"
    args = build_parser().parse_args(["explain", "x.spans.json"])
    assert args.tail == 5 and args.hops == 12 and args.format == "text"


# -- observability: metrics files + mission control -------------------------

def _fresh_registry():
    """The CLI exposes the process-wide registry; each real invocation
    is a fresh process, so in-process tests reset it explicitly."""
    from repro.obs.metrics import get_registry

    get_registry().reset()
    return get_registry()


def test_run_writes_metrics_files_beside_export(capsys, tmp_path):
    import json

    from repro.obs.metrics import parse_prom

    _fresh_registry()
    out = tmp_path / "out"
    assert main(["run", "--scheme", "ecmp", "--short-flows", "6",
                 "--long-flows", "1", "--paths", "4",
                 "--json", str(out / "run.json")]) == 0
    stdout = capsys.readouterr().out
    assert "metrics.prom" in stdout and "metrics.json" in stdout
    samples = parse_prom((out / "metrics.prom").read_text())
    assert samples["repro_sim_runs_total"][(("scheme", "ecmp"),)] == 1
    assert samples["repro_sim_flows_total"][(("scheme", "ecmp"),)] == 7
    doc = json.loads((out / "metrics.json").read_text())
    assert doc["metrics"]["repro_sim_events_total"]["samples"][0][
        "labels"] == {"scheme": "ecmp"}
    # wall-clock timing is volatile: prom yes, canonical JSON no
    assert "repro_sim_wall_seconds" in samples or any(
        k.startswith("repro_sim_wall_seconds") for k in samples)
    assert "repro_sim_wall_seconds" not in doc["metrics"]


def test_run_metrics_json_byte_identical_across_seeded_runs(capsys, tmp_path):
    blobs = []
    for tag in ("a", "b"):
        _fresh_registry()
        out = tmp_path / tag
        assert main(["run", "--scheme", "ecmp", "--short-flows", "6",
                     "--long-flows", "1", "--paths", "4", "--seed", "3",
                     "--json", str(out / "run.json")]) == 0
        capsys.readouterr()
        blobs.append((out / "metrics.json").read_bytes())
    assert blobs[0] == blobs[1]


def _inline_fleet(tmp_path):
    from fleet_helpers import Cell, compute
    from repro.cache import ResultCache
    from repro.fleet import run_fleet

    cells = [Cell(tag=f"c{i}") for i in range(3)]
    cache = ResultCache(tmp_path / "cache", fingerprint="0" * 64)
    fleet_dir = tmp_path / "fleet"
    run_fleet(cells, fleet_dir=fleet_dir, cache=cache, workers=0,
              runner=compute, lease_ttl=5.0)
    return fleet_dir


def test_fleet_top_single_refresh(capsys, tmp_path):
    fleet_dir = _inline_fleet(tmp_path)
    assert main(["fleet", "top", "--dir", str(fleet_dir),
                 "--iterations", "1", "--no-clear"]) == 0
    out = capsys.readouterr().out
    assert "cells: 3/3 done" in out
    assert "workers:" in out


def test_fleet_top_missing_journal(capsys, tmp_path):
    assert main(["fleet", "top", "--dir", str(tmp_path / "nope"),
                 "--iterations", "1", "--no-clear"]) == 1
    assert "no fleet journal" in capsys.readouterr().err


def test_fleet_report_html_dashboard(capsys, tmp_path):
    fleet_dir = _inline_fleet(tmp_path)
    html_path = tmp_path / "dash" / "fleet.html"
    assert main(["fleet", "report", str(fleet_dir),
                 "--html", str(html_path)]) == 0
    html = html_path.read_text()
    assert 'class="viz-swimlane"' in html
    assert 'id="panel-latency"' in html
    # metrics files land in the fleet directory too
    assert (fleet_dir / "metrics.prom").exists()
    assert (fleet_dir / "metrics.json").exists()


def test_fleet_status_json(capsys, tmp_path):
    import json

    fleet_dir = _inline_fleet(tmp_path)
    assert main(["fleet", "status", "--dir", str(fleet_dir), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["cells"]["done"] == 3 and doc["cells"]["pending"] == 0
    assert isinstance(doc["workers"], list)
    for w in doc["workers"]:  # inf ages must have been sanitised
        assert w["age"] is None or isinstance(w["age"], (int, float))


def test_cache_stats_json(capsys, tmp_path):
    import json

    from repro.cache import ResultCache
    from repro.experiments.common import ScenarioConfig

    root = tmp_path / "cache"
    cache = ResultCache(root, fingerprint="0" * 64)
    cache.put(ScenarioConfig(seed=1), {"seed": 1})
    assert main(["cache", "--cache-dir", str(root), "stats", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["entries"] == 1
    assert doc["by_scheme"] == {"tlb": 1}


def test_mission_control_flags_parse():
    parser = build_parser()
    args = parser.parse_args(["fleet", "top", "--dir", "d",
                              "--interval", "0.5", "--iterations", "3"])
    assert args.interval == 0.5 and args.iterations == 3 and not args.no_clear
    args = parser.parse_args(["fleet", "report", "d", "--html", "x.html"])
    assert args.dir == "d" and args.html == "x.html"
    args = parser.parse_args(["fleet", "status", "--dir", "d", "--json"])
    assert args.json
    args = parser.parse_args(["cache", "stats", "--json"])
    assert args.json


def test_workloads_command_lists_vocabulary(capsys):
    assert main(["workloads"]) == 0
    out = capsys.readouterr().out
    for kind in ("static", "poisson", "trace", "cdf", "zipf", "incast",
                 "diurnal", "hotspot", "mix"):
        assert kind in out
    assert "websearch = poisson:sizes=web_search" in out


def test_workloads_command_prints_each_kinds_params_table(capsys):
    from repro.workload.scenarios import SCENARIO_KINDS

    assert main(["workloads"]) == 0
    lines = {line.split()[0]: line
             for line in capsys.readouterr().out.splitlines() if line.strip()}
    for kind, cls in SCENARIO_KINDS.items():
        for name in cls.PARAMS:
            assert name in lines[kind]
    assert "fanin=16 period=0.01 size=32000 requests jitter=0.0005" \
        in lines["incast"]
    assert "s=1.2 sizes load flows" in lines["zipf"]


def test_run_command_with_scenario_workload(capsys):
    assert main(["run", "--scheme", "ecmp",
                 "--workload", "incast:fanin=4,period=5ms",
                 "--flows", "16"]) == 0
    out = capsys.readouterr().out
    assert "scheme=ecmp" in out


def test_run_command_rejects_bad_workload_spec(capsys):
    line = _usage_error(capsys, [
        "run", "--workload", "nosuchkind:x=1", "--flows", "8"])
    assert "nosuchkind" in line


def test_sweep_and_fleet_parsers_accept_workload():
    args = build_parser().parse_args(
        ["sweep", "--schemes", "ecmp", "--loads", "0.3",
         "--workload", "zipf:s=1.2"])
    assert args.workload == "zipf:s=1.2"
    args = build_parser().parse_args(
        ["fleet", "run", "--dir", "d", "--workload", "hotspot:leaves=2"])
    assert args.workload == "hotspot:leaves=2"


def test_grid_rejects_a_load_axis_the_spec_ignores(capsys):
    grid = ["--schemes", "ecmp", "--flows", "40", "--processes", "0"]
    # the spec's own load= wins over --loads (and incast never reads it):
    # two loads would print two differently-labelled copies of one run
    for spec in ("zipf:s=1.2,load=0.5", "incast:fanin=8,period=10ms"):
        assert "does not read the load axis" in _usage_error(capsys, [
            "sweep", *grid, "--loads", "0.2", "0.8", "--workload", spec])
    assert "pass one --loads value" in _usage_error(capsys, [
        "fleet", "run", "--dir", "unused", "--schemes", "ecmp",
        "--loads", "0.2", "0.8", "--workload", "static"])
    # one nominal load is a label, not an axis; and a spec without load=
    # does read the axis
    assert main(["sweep", *grid, "--loads", "0.4",
                 "--workload", "zipf:s=1.2,load=0.5"]) == 0
    assert "1 computed" in capsys.readouterr().err
    assert main(["sweep", *grid, "--loads", "0.2", "0.8",
                 "--workload", "zipf:s=1.2"]) == 0
    assert "2 computed" in capsys.readouterr().err


def test_figure_parser_accepts_repeated_workload():
    args = build_parser().parse_args(
        ["figure", "workloads", "--workload", "zipf:s=1.2",
         "--workload", "incast:fanin=8", "--csv", "out.csv"])
    assert args.workloads == ["zipf:s=1.2", "incast:fanin=8"]
    assert args.csv == "out.csv"
