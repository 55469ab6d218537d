"""Export measured results to CSV/JSON for external plotting.

The benches print plain-text tables; for users who want to plot the
figures with their own tooling, these helpers serialise
:class:`~repro.metrics.collector.RunMetrics` records and
:class:`~repro.metrics.timeseries.BinnedSeries` to flat files.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Sequence

from repro.metrics.collector import RunMetrics
from repro.metrics.timeseries import BinnedSeries
from repro.obs.manifest import write_manifest

__all__ = ["metrics_to_dict", "write_metrics_csv", "write_metrics_json",
           "write_series_csv"]


def _clean(value):
    """JSON-safe scalar: NaN/inf become None."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _prepared(path: str | Path) -> Path:
    """The export path, with its parent directory created."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def metrics_to_dict(m: RunMetrics) -> dict:
    """Flatten one run's metrics into a single-level dict."""
    out = {
        "scheme": m.scheme,
        "horizon_s": m.horizon,
        "deadline_miss_ratio": _clean(m.deadline_miss),
        "long_goodput_bps": _clean(m.long_goodput_bps),
    }
    for prefix, summary in (("short", m.short_fct), ("long", m.long_fct),
                            ("all", m.all_fct)):
        out[f"{prefix}_n_flows"] = summary.n_flows
        out[f"{prefix}_n_completed"] = summary.n_completed
        for field in ("mean", "p50", "p95", "p99", "max"):
            out[f"{prefix}_fct_{field}_s"] = _clean(getattr(summary, field))
    for prefix, r in (("short", m.short_reordering), ("long", m.long_reordering)):
        out[f"{prefix}_dup_ack_ratio"] = r.dup_ack_ratio
        out[f"{prefix}_out_of_order_ratio"] = r.out_of_order_ratio
    for key, value in m.uplink_spread.items():
        out[f"uplink_{key}"] = _clean(value)
    if m.overhead is not None:
        out["overhead_ops_per_decision"] = m.overhead.ops_per_decision
        out["overhead_peak_entries"] = m.overhead.peak_entries
    for key, value in m.extras.items():
        if isinstance(value, (int, float, str, bool)) or value is None:
            out[f"extra_{key}"] = _clean(value)
    return out


def _flat_rows(runs: Sequence[RunMetrics],
               extra_columns: Sequence[dict] | None) -> list[dict]:
    """One flat dict per run, with its ``extra_columns`` entry merged."""
    rows = []
    for i, m in enumerate(runs):
        row = metrics_to_dict(m)
        if extra_columns is not None:
            row.update(extra_columns[i])
        rows.append(row)
    return rows


def write_metrics_csv(path: str | Path, runs: Sequence[RunMetrics],
                      extra_columns: Sequence[dict] | None = None,
                      manifest: dict | None = None) -> Path:
    """Write one CSV row per run.

    ``extra_columns``, if given, is a parallel sequence of dicts merged
    into each row (e.g. the sweep coordinates: ``{"load": 0.4}``).
    ``manifest``, if given (see :func:`repro.obs.build_manifest`), is
    written as ``manifest.json`` beside the export.
    """
    path = _prepared(path)
    rows = _flat_rows(runs, extra_columns)
    if not rows:
        path.write_text("")
    else:
        fields = sorted({k for row in rows for k in row})
        with path.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields)
            writer.writeheader()
            writer.writerows(rows)
    if manifest is not None:
        write_manifest(path, manifest)
    return path


def write_metrics_json(path: str | Path, runs: Sequence[RunMetrics],
                       extra_columns: Sequence[dict] | None = None,
                       manifest: dict | None = None) -> Path:
    """Write all runs as a JSON array of flat objects.

    ``manifest``, if given, is written as ``manifest.json`` beside the
    export, as for :func:`write_metrics_csv`.
    """
    path = _prepared(path)
    rows = _flat_rows(runs, extra_columns)
    path.write_text(json.dumps(rows, indent=2, allow_nan=False))
    if manifest is not None:
        write_manifest(path, manifest)
    return path


def write_series_csv(path: str | Path, series: dict[str, BinnedSeries]) -> Path:
    """Write named time series side by side (shared bin grid).

    All series must share the same bin width and start; shorter series
    are padded with empty cells.
    """
    path = Path(path)
    names = sorted(series)
    if not names:
        path.write_text("")
        return path
    widths = {series[n].bin_width for n in names}
    starts = {series[n].start for n in names}
    if len(widths) > 1 or len(starts) > 1:
        raise ValueError("series must share bin width and start")
    n_bins = max(len(series[n]) for n in names)
    ref = series[names[0]]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_s"] + [f"{n}_sum" for n in names]
                        + [f"{n}_count" for n in names])
        for i in range(n_bins):
            t = ref.start + (i + 0.5) * ref.bin_width
            sums = [series[n].sums[i] if i < len(series[n]) else ""
                    for n in names]
            counts = [int(series[n].counts[i]) if i < len(series[n]) else ""
                      for n in names]
            writer.writerow([t] + sums + counts)
    return path
