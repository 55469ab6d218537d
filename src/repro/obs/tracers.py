"""The durable trace sink and the tee.

These compose with the substrate's emit sites (ports, switches,
balancers, senders) through the :class:`~repro.sim.trace.Tracer`
interface.  All hot paths guard on ``tracer.enabled``, so installing a
:class:`~repro.sim.trace.NullTracer` still costs nothing; a sink flips
``enabled`` and pays only for what it keeps.
"""

from __future__ import annotations

import gzip
import json
from collections import Counter
from pathlib import Path
from typing import IO, Any, Iterable, Optional

from repro.errors import ConfigError
from repro.sim.trace import Tracer

__all__ = ["JsonlTracer", "TeeTracer", "open_trace_text", "trace_node"]


def open_trace_text(path: str | Path) -> IO[str]:
    """Open a trace file for reading, transparently decompressing ``.gz``.

    The read-side counterpart of :class:`JsonlTracer`'s write path: one
    code path serves both plain ``.jsonl`` and ``.jsonl.gz`` artefacts
    (also used for span files by :func:`repro.obs.spans.load_spans`).
    """
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, "rt", encoding="utf-8")
    return path.open()


def trace_node(fields: dict) -> str:
    """The node attribution of one trace point.

    Emit sites tag records with ``port=`` (data-plane trace points) or
    ``node=`` (control-plane ones: reroutes, retransmits).  Records with
    neither aggregate under ``""``.
    """
    node = fields.get("port")
    if node is None:
        node = fields.get("node")
    return node if node is not None else ""


class JsonlTracer(Tracer):
    """Streams trace records to a JSON-Lines file with bounded buffering.

    One JSON object per line: ``{"t": <time>, "kind": <kind>, ...fields}``.
    Records are buffered in memory and written out every ``flush_every``
    records, so long runs never hold the full trace and short runs do not
    thrash the disk.  Call :meth:`close` (or use the tracer as a context
    manager) to flush the tail.

    A path ending in ``.gz`` (e.g. ``run.jsonl.gz``) is written
    gzip-compressed, so long flight-recorded runs don't blow up disk;
    ``repro trace summarize`` reads both forms transparently.

    The tracer counts what it writes per kind; :meth:`totals` is the
    ``trace_counters`` block of a run manifest.

    Parameters
    ----------
    path:
        Output file (truncated on open).
    kinds:
        If given, only these kinds are written; others are dropped at the
        emit site.
    flush_every:
        Buffer size bound, in records.
    """

    enabled = True

    def __init__(
        self,
        path: str | Path,
        *,
        kinds: Optional[Iterable[str]] = None,
        flush_every: int = 1024,
    ):
        if flush_every < 1:
            raise ConfigError(f"flush_every must be >= 1, got {flush_every!r}")
        self.path = Path(path)
        self.kinds = set(kinds) if kinds is not None else None
        self.flush_every = int(flush_every)
        #: kind -> records written
        self.counts: Counter[str] = Counter()
        self._buffer: list[str] = []
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self.path.suffix == ".gz":
            self._fh: Optional[IO[str]] = gzip.open(self.path, "wt", encoding="utf-8")
        else:
            self._fh = self.path.open("w")

    def emit(self, time: float, kind: str, **fields: Any) -> None:
        if self.kinds is not None and kind not in self.kinds:
            return
        if self._fh is None:
            raise ConfigError(f"JsonlTracer({self.path}) is closed")
        record = {"t": time, "kind": kind}
        record.update(fields)
        self._buffer.append(json.dumps(record, default=str))
        self.counts[kind] += 1
        if len(self._buffer) >= self.flush_every:
            self.flush()

    def flush(self) -> None:
        """Write buffered records to disk."""
        if self._fh is None:
            return
        if self._buffer:
            self._fh.write("\n".join(self._buffer) + "\n")
            self._buffer.clear()
        self._fh.flush()

    def close(self) -> None:
        """Flush and close the file.  Idempotent."""
        if self._fh is None:
            return
        self.flush()
        self._fh.close()
        self._fh = None

    @property
    def records_written(self) -> int:
        """All records written."""
        return sum(self.counts.values())

    def totals(self) -> dict[str, int]:
        """Records written per kind, sorted by kind."""
        return dict(sorted(self.counts.items()))

    @property
    def closed(self) -> bool:
        return self._fh is None

    def __enter__(self) -> "JsonlTracer":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class TeeTracer(Tracer):
    """Fans each trace point out to several sinks.

    ``enabled`` is True iff any child is enabled, so a tee of only
    disabled tracers still costs the hot path nothing.  Closing the tee
    closes every child.
    """

    def __init__(self, *tracers: Tracer):
        self.tracers = tuple(tracers)
        self.enabled = any(t.enabled for t in self.tracers)

    def emit(self, time: float, kind: str, **fields: Any) -> None:
        for t in self.tracers:
            if t.enabled:
                t.emit(time, kind, **fields)

    def flush(self) -> None:
        for t in self.tracers:
            t.flush()

    def close(self) -> None:
        for t in self.tracers:
            t.close()
