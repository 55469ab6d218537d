"""Plain-text tables — the benches print the same rows the figures plot."""

from __future__ import annotations

import math
from typing import Any, Callable, Sequence

__all__ = ["format_table", "fmt", "panel_tables", "FCT_PANELS", "fct_fields"]


def fmt(value: Any, precision: int = 3) -> str:
    """Render one cell: floats get fixed precision, NaN prints as '-'."""
    if isinstance(value, float):
        if math.isnan(value):
            return "-"
        if value != 0 and (abs(value) >= 10**6 or abs(value) < 10**-precision):
            return f"{value:.{precision}e}"
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    *,
    title: str | None = None,
    precision: int = 3,
) -> str:
    """Column-aligned text table.

    >>> print(format_table(["a", "b"], [[1, 2.5]]))
    a  b
    -  -----
    1  2.500
    """
    cells = [[fmt(c, precision) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def fct_fields(m: Any) -> dict:
    """One run's metrics folded into the four row fields
    :data:`FCT_PANELS` reads."""
    return dict(short_afct=m.short_fct.mean, short_p99=m.short_fct.p99,
                deadline_miss=m.deadline_miss,
                long_goodput_bps=m.long_goodput_bps)


#: the four panels of Figs. 10–12 and the workload grid: ``(title,
#: getter)`` over any row carrying the :func:`fct_fields`
FCT_PANELS = (
    ("(a) AFCT of short flows (ms)", lambda r: r.short_afct * 1e3),
    ("(b) 99th percentile FCT of short flows (ms)",
     lambda r: r.short_p99 * 1e3),
    ("(c) missed deadlines (%)", lambda r: r.deadline_miss * 100),
    ("(d) throughput of long flows (Mbps)",
     lambda r: r.long_goodput_bps / 1e6),
)


def panel_tables(
    rows: Sequence[Any],
    *,
    x: Callable[[Any], Any],
    series: Callable[[Any], Any],
    panels: Sequence[tuple[str, Callable[[Any], Any]]],
    title: str,
    x_header: str,
    series_header: Callable[[Any], str] = str,
    sort_x: bool = True,
) -> str:
    """One table per panel: a line per x value, a column per series.

    ``rows`` are the finished cells of a (series × x) grid; a cell with
    no row (its run failed, or has not finished) renders ``-``, so a
    partial grid still prints.  Series are sorted; x values are sorted
    too unless ``sort_x`` is false (first-seen order).
    """
    cell = {(series(r), x(r)): r for r in rows}
    columns = sorted({s for s, _ in cell})
    xs = list(dict.fromkeys(v for _, v in cell))
    if sort_x:
        xs.sort()
    headers = [x_header] + [series_header(s) for s in columns]
    return "\n\n".join(
        format_table(
            headers,
            [[v] + [getter(cell[(s, v)]) if (s, v) in cell else float("nan")
                    for s in columns]
             for v in xs],
            title=f"{title} {panel}")
        for panel, getter in panels)
