"""Aggregate a JSONL trace back into per-kind / per-node tables.

The inverse of :class:`~repro.obs.tracers.JsonlTracer`: read a trace
file and reduce it to per-(kind, node) counters — per kind, the same
totals the writer recorded in the run manifest — plus the time span.
Powers ``repro trace summarize``.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.errors import ConfigError
from repro.obs.tracers import open_trace_text, trace_node

__all__ = ["TraceSummary", "format_trace_summary", "summarize_trace"]


@dataclass
class TraceSummary:
    """Aggregates of one trace file."""

    path: str
    n_records: int = 0
    t_min: Optional[float] = None
    t_max: Optional[float] = None
    #: kind -> count
    by_kind: dict[str, int] = field(default_factory=dict)
    #: (kind, node) -> count
    by_kind_node: dict[tuple[str, str], int] = field(default_factory=dict)
    #: records scanned but excluded by --flow / --kind filters
    n_filtered_out: int = 0
    #: human-readable description of active filters ("" when unfiltered)
    filters: str = ""

    def nodes_for(self, kind: str) -> dict[str, int]:
        """One kind's per-node counts, largest first."""
        items = [(n, c) for (k, n), c in self.by_kind_node.items() if k == kind]
        return dict(sorted(items, key=lambda kv: (-kv[1], kv[0])))


def summarize_trace(
    path: str | Path,
    *,
    flow: Optional[int] = None,
    kind: Optional[str] = None,
) -> TraceSummary:
    """Stream one JSONL trace file into a :class:`TraceSummary`.

    Accepts both plain ``.jsonl`` files and gzip-compressed
    ``.jsonl.gz`` files (as written by
    :class:`~repro.obs.tracers.JsonlTracer`) through one code path
    (:func:`~repro.obs.tracers.open_trace_text`).

    Parameters
    ----------
    flow:
        Keep only records tagged with this flow id (``repro trace
        summarize --flow``).  Records without a ``flow`` field (port
        aggregates, fault events) are excluded.
    kind:
        Keep only records of this trace kind (``--kind``).

    Raises
    ------
    ConfigError
        If the file does not exist or a line is not a JSON object.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"trace file {path} does not exist")
    by_kind: Counter[str] = Counter()
    by_kind_node: Counter[tuple[str, str]] = Counter()
    n = 0
    filtered_out = 0
    t_min: Optional[float] = None
    t_max: Optional[float] = None
    with open_trace_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}:{lineno}: not valid JSON: {exc}") from None
            if not isinstance(record, dict):
                raise ConfigError(f"{path}:{lineno}: expected a JSON object")
            record_kind = str(record.get("kind", "?"))
            if (kind is not None and record_kind != kind) or (
                    flow is not None and record.get("flow") != flow):
                filtered_out += 1
                continue
            n += 1
            by_kind[record_kind] += 1
            by_kind_node[(record_kind, trace_node(record))] += 1
            t = record.get("t")
            if isinstance(t, (int, float)):
                t_min = t if t_min is None else min(t_min, t)
                t_max = t if t_max is None else max(t_max, t)
    active = []
    if flow is not None:
        active.append(f"flow={flow}")
    if kind is not None:
        active.append(f"kind={kind}")
    return TraceSummary(
        path=str(path),
        n_records=n,
        t_min=t_min,
        t_max=t_max,
        by_kind=dict(sorted(by_kind.items())),
        by_kind_node=dict(by_kind_node),
        n_filtered_out=filtered_out,
        filters=" ".join(active),
    )


def _table(headers: list[str], rows: list[list]) -> str:
    cells = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    def render(row: list[str]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
    lines = [render(list(headers)), render(["-" * w for w in widths])]
    lines.extend(render(r) for r in cells)
    return "\n".join(lines)


def format_trace_summary(
    summary: TraceSummary,
    *,
    per_node: bool = False,
    top: Optional[int] = None,
) -> str:
    """Render a summary as the tables ``repro trace summarize`` prints.

    Parameters
    ----------
    per_node:
        Also render the per-(kind, node) breakdown.
    top:
        Limit the per-node breakdown to each kind's busiest ``top`` nodes.
    """
    span = ""
    if summary.t_min is not None and summary.t_max is not None:
        span = f"  t=[{summary.t_min:.6f}, {summary.t_max:.6f}]s"
    selected = ""
    if summary.filters:
        selected = (f" ({summary.filters}; "
                    f"{summary.n_filtered_out} records filtered out)")
    out = [f"{summary.path}: {summary.n_records} records, "
           f"{len(summary.by_kind)} kinds{span}{selected}", ""]
    out.append(_table(
        ["kind", "count"],
        [[k, c] for k, c in summary.by_kind.items()],
    ))
    if per_node:
        rows = []
        for kind in summary.by_kind:
            nodes = list(summary.nodes_for(kind).items())
            shown = nodes if top is None else nodes[:top]
            rows.extend([kind, node or "-", c] for node, c in shown)
            if top is not None and len(nodes) > top:
                rows.append([kind, f"... {len(nodes) - top} more", ""])
        out.append("")
        out.append(_table(["kind", "node", "count"], rows))
    return "\n".join(out)
