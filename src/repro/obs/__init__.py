"""Observability: file-backed tracing, run telemetry, manifests, progress.

``repro.obs`` is the instrumentation layer the paper's observational
argument needs in code form.  The substrate already emits trace points
(:mod:`repro.sim.trace`); this package turns them into durable artefacts
and makes whole runs self-describing:

* :class:`JsonlTracer` — streams trace records to a JSON-Lines file with
  bounded buffering (post-mortem analysis, ``repro trace summarize``)
  and counts them per kind for the run manifest;
* :class:`TeeTracer` — fans one trace stream out to several sinks;
* :func:`~repro.obs.telemetry.peak_rss_bytes` — the peak-memory read
  behind ``ScenarioConfig.telemetry`` (``run_scenario`` derives wall
  time, events/sec and the sim-time/wall-time ratio from its own clock);
* :func:`build_manifest` / :func:`write_manifest` — ``manifest.json``
  beside every export, recording exactly what produced it;
* :class:`ProgressReporter` — heartbeat + ETA for multi-run sweeps
  (fleet sweeps heartbeat :func:`repro.fleet.format_summary`);
* :func:`summarize_trace` — aggregate a JSONL trace back into tables;
* :class:`FlightRecorder` / :class:`RecordedRun` — bounded in-sim
  time-series sampling, and a trace sink that audits the ``qth``
  decisions (``repro run --record``, ``repro report``);
* :func:`render_html_report` — self-contained HTML dashboards;
* :func:`diff_paths` / :func:`format_diff` — direction-aware metric
  regression detection (``repro diff``);
* :class:`SpanBuffer` / :func:`format_explain` — per-flow span
  forensics with deterministic tail sampling (``repro run --spans``,
  ``repro explain``);
* :class:`EngineProfiler` — kernel self-profiling: per-handler event
  counts and sampled wall time (``ScenarioConfig.profile``; the
  benchmark ladder's traced runs fold its report into their ledger);
* :class:`MetricsRegistry` — dependency-free Counter/Gauge/Histogram
  registry with Prometheus textfile exposition and deterministic
  canonical-JSON dumps (``metrics.prom`` / ``metrics.json`` beside
  every export).
"""

from importlib import import_module

#: public name -> the submodule defining it.  Submodules load on first
#: attribute access (PEP 562), so importing one light module — the
#: result cache needs only ``repro.obs.metrics`` — does not pull in the
#: recorder, report, spans, diff and summarize stacks (and numpy).
_EXPORTS = {
    "diff": ("MetricDelta", "diff_paths", "diff_rows", "format_diff",
             "load_rows"),
    "manifest": ("MANIFEST_NAME", "build_manifest", "git_sha",
                 "write_manifest"),
    "metrics": ("METRICS_JSON_NAME", "METRICS_PROM_NAME", "Counter",
                "Gauge", "Histogram", "MetricsRegistry", "get_registry",
                "parse_prom"),
    "profiler": ("EngineProfiler",),
    "progress": ("ProgressReporter",),
    "recorder": ("FlightRecorder", "RecordedRun"),
    "report": ("render_html_report", "write_html_report"),
    "spans": ("SpanBuffer", "format_explain", "load_spans"),
    "summarize": ("TraceSummary", "format_trace_summary", "summarize_trace"),
    "tracers": ("JsonlTracer", "TeeTracer"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in names}


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_SOURCE))


__all__ = [
    "JsonlTracer",
    "TeeTracer",
    "SpanBuffer",
    "load_spans",
    "format_explain",
    "EngineProfiler",
    "MANIFEST_NAME",
    "METRICS_JSON_NAME",
    "METRICS_PROM_NAME",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "parse_prom",
    "build_manifest",
    "git_sha",
    "write_manifest",
    "ProgressReporter",
    "TraceSummary",
    "format_trace_summary",
    "summarize_trace",
    "FlightRecorder",
    "RecordedRun",
    "render_html_report",
    "write_html_report",
    "MetricDelta",
    "load_rows",
    "diff_rows",
    "diff_paths",
    "format_diff",
]
