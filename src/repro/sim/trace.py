"""Lightweight tracing hooks.

The network substrate emits trace points through a :class:`Tracer`.  The
default :class:`NullTracer` compiles to near-nothing; tests and the
figure drivers install a :class:`RecordingTracer` to capture the event
stream they need (e.g. per-packet queue lengths for Fig. 3a) without the
hot path paying for generic logging.  The file-backed sink, the span
buffer and the flight recorder live in :mod:`repro.obs`.

Kinds emitted by the substrate (each record carries a ``port=`` or
``node=`` field attributing it to a network location):

* ``enqueue`` / ``dequeue`` / ``drop`` — port FIFO events;
* ``mark`` — ECN mark applied at enqueue (DCTCP's congestion signal);
* ``reroute`` — a long flow moved paths (TLB's switching decision);
* ``qth`` — TLB recomputed its switching threshold (Eq. 9), with the
  calculator's inputs, its regime and the measured short-flow load;
* ``retransmit`` — a sender retransmitted a segment (loss or reordering
  misread as loss).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, NamedTuple

__all__ = ["Tracer", "NullTracer", "RecordingTracer", "TraceRecord"]


class TraceRecord(NamedTuple):
    """One trace point: a timestamp, a kind tag, and free-form fields."""

    time: float
    kind: str
    fields: dict[str, Any]


class Tracer:
    """Interface: receives trace points from the substrate."""

    #: Subclasses flip this to True so hot paths can skip building the
    #: fields dict entirely when nobody is listening.
    enabled: bool = False

    def emit(self, time: float, kind: str, **fields: Any) -> None:
        """Record one trace point."""
        raise NotImplementedError

    def flush(self) -> None:
        """Push buffered records to their destination (no-op by default)."""

    def close(self) -> None:
        """Release held resources (no-op by default; idempotent)."""


class NullTracer(Tracer):
    """Discards everything; the default."""

    enabled = False

    def emit(self, time: float, kind: str, **fields: Any) -> None:  # pragma: no cover
        pass


class RecordingTracer(Tracer):
    """Stores trace points in memory, indexed by kind.

    Parameters
    ----------
    kinds:
        If given, only these kinds are recorded (others are dropped), which
        keeps long experiments from accumulating unneeded records.
    """

    enabled = True

    def __init__(self, kinds: set[str] | None = None):
        self.kinds = kinds
        self.records: dict[str, list[TraceRecord]] = defaultdict(list)

    def emit(self, time: float, kind: str, **fields: Any) -> None:
        if self.kinds is not None and kind not in self.kinds:
            return
        self.records[kind].append(TraceRecord(time, kind, fields))

    def of_kind(self, kind: str) -> list[TraceRecord]:
        """All records of one kind, in emission order."""
        return self.records.get(kind, [])

    def count(self, kind: str) -> int:
        """Number of records of one kind."""
        return len(self.records.get(kind, ()))

    def clear(self) -> None:
        """Drop all recorded trace points."""
        self.records.clear()
