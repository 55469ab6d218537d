"""Flow-trace I/O: save workloads as CSV, for replay as ``trace:file=``.

A trace row is ``flow_id,src,dst,size_bytes,start_time_s,deadline_s``
(deadline empty for throughput-oriented flows).  Traces make experiments
portable: generate once (or convert a production trace), replay under
every scheme with the ``trace`` scenario kind, diff the metrics.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Iterable

from repro.errors import ConfigError
from repro.transport.flow import Flow

__all__ = ["write_trace", "read_trace", "parse_trace"]

_FIELDS = ("flow_id", "src", "dst", "size_bytes", "start_time_s", "deadline_s")


def write_trace(path: str | Path, flows: Iterable[Flow]) -> Path:
    """Serialise flows to a trace CSV (sorted by start time)."""
    path = Path(path)
    rows = sorted(flows, key=lambda f: (f.start_time, f.id))
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_FIELDS)
        for f in rows:
            writer.writerow([
                f.id, f.src, f.dst, f.size, repr(f.start_time),
                "" if f.deadline is None else repr(f.deadline),
            ])
    return path


def read_trace(path: str | Path) -> list[Flow]:
    """Parse a trace CSV back into flows (see :func:`parse_trace`)."""
    path = Path(path)
    return parse_trace(path.read_text(), path)


def parse_trace(text: str, source: str | Path = "trace") -> list[Flow]:
    """Parse a trace CSV's content (read from ``source``) into flows.

    Raises :class:`ConfigError` on malformed rows (missing columns, bad
    numbers) with the offending line number.
    """
    flows: list[Flow] = []
    reader = csv.DictReader(io.StringIO(text, newline=""))
    missing = set(_FIELDS) - set(reader.fieldnames or ())
    if missing:
        raise ConfigError(f"{source}: trace is missing columns {sorted(missing)}")
    for lineno, row in enumerate(reader, start=2):
        try:
            deadline = row["deadline_s"].strip()
            flows.append(Flow(
                id=int(row["flow_id"]),
                src=row["src"],
                dst=row["dst"],
                size=int(row["size_bytes"]),
                start_time=float(row["start_time_s"]),
                deadline=float(deadline) if deadline else None,
            ))
        except (KeyError, ValueError, ConfigError) as exc:
            raise ConfigError(f"{source}:{lineno}: bad trace row: {exc}") from exc
    return flows
