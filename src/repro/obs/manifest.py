"""Run manifests: make every exported artefact self-describing.

A manifest records, next to each CSV/JSON export, exactly what produced
it: the full scenario configuration, seed, package version, git revision
(when the source tree is a checkout), run telemetry, and trace-counter
totals.  Six months later, ``manifest.json`` answers "which code and
which config made this file" without archaeology.
"""

from __future__ import annotations

import dataclasses
import json
import platform
import subprocess
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Mapping, Optional

from repro._version import __version__

__all__ = ["MANIFEST_NAME", "build_manifest", "git_sha", "write_manifest"]

MANIFEST_NAME = "manifest.json"

#: manifest schema version; bump when fields change incompatibly
MANIFEST_SCHEMA = 1


def git_sha() -> Optional[str]:
    """The source tree's HEAD commit, or None outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def _jsonable(value: Any) -> Any:
    """Best-effort JSON projection of config field values."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(value).items()}
    return repr(value)


def build_manifest(
    config: Any = None,
    metrics: Any = None,
    *,
    counters: Any = None,
    extra: Optional[Mapping[str, Any]] = None,
) -> dict[str, Any]:
    """Assemble a manifest record.

    Parameters
    ----------
    config:
        The :class:`~repro.experiments.common.ScenarioConfig` (or any
        dataclass / mapping) that produced the run.
    metrics:
        The run's :class:`~repro.metrics.collector.RunMetrics`; its
        scalar ``extras`` (telemetry, completion, event count) and
        horizon are recorded.
    counters:
        A :class:`~repro.obs.tracers.JsonlTracer` (or a plain
        kind→count mapping); its per-kind totals are recorded.
    extra:
        Additional top-level fields (e.g. sweep coordinates).
    """
    manifest: dict[str, Any] = {
        "schema": MANIFEST_SCHEMA,
        "created_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "package": "repro",
        "version": __version__,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    if config is not None:
        if dataclasses.is_dataclass(config) and not isinstance(config, type):
            cfg = dataclasses.asdict(config)
        else:
            cfg = dict(config)
        manifest["config"] = {k: _jsonable(v) for k, v in cfg.items()}
        manifest["seed"] = cfg.get("seed")
        manifest["scheme"] = cfg.get("scheme")
        # Observability settings get their own section so artefacts are
        # self-describing: a span file or trace next to this manifest
        # can be matched to the switches that produced it.  These knobs
        # are exactly the ones the result cache ignores
        # (repro.cache.key.NON_SEMANTIC_FIELDS).
        manifest["observability"] = {
            "trace_kinds": [str(k) for k in (cfg.get("trace_kinds") or ())],
            "telemetry": bool(cfg.get("telemetry", False)),
            "timeseries": bool(cfg.get("timeseries", False)),
            "spans": bool(cfg.get("spans", False)),
            "profile": bool(cfg.get("profile", False)),
        }
    if metrics is not None:
        manifest["horizon_s"] = metrics.horizon
        manifest["run"] = {
            k: v for k, v in metrics.extras.items()
            if isinstance(v, (str, int, float, bool)) or v is None
        }
    if counters is not None:
        totals = counters.totals() if hasattr(counters, "totals") else dict(counters)
        manifest["trace_counters"] = {str(k): int(v) for k, v in totals.items()}
    if extra:
        manifest.update(extra)
    return manifest


def write_manifest(export_path: str | Path, manifest: Mapping[str, Any]) -> Path:
    """Write ``manifest.json`` beside an export file (or into a directory).

    Records the export's file name under ``"export"`` so a directory
    holding several artefacts still tells them apart.
    """
    export_path = Path(export_path)
    directory = export_path if export_path.is_dir() else export_path.parent
    payload = dict(manifest)
    if not export_path.is_dir():
        payload["export"] = export_path.name
    path = directory / MANIFEST_NAME
    path.write_text(json.dumps(payload, indent=2, default=str) + "\n")
    return path
