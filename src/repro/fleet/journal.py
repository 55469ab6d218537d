"""The fleet journal: an append-only, replayable record of a sweep.

One fleet directory holds one sweep.  Its journal (``fleet.jsonl``) is
the single source of truth for *what the sweep is* and *how far it got*:

* a ``fleet`` header (runner, config type, cache fingerprint, retry
  policy) written once at plan time,
* one ``cell`` record per grid cell, in grid order, carrying the full
  config as JSON (so ``repro fleet resume`` needs no CLI arguments),
* lifecycle records appended by workers and the watchdog as the sweep
  runs: ``claim``, ``done``, ``error``, ``reclaim``, ``drain``.

Durability model
----------------
The *plan* (header + cells) is written through a temporary file,
fsync'd and :func:`os.replace`'d, once per sweep: a crash during
planning leaves no journal at all, never a half-plan.  Runtime records
are appended one line at a time with ``O_APPEND``, which POSIX makes
atomic for writes of this size, and are *not* fsync'd.  A killed
process (SIGKILL) loses nothing that reached the page cache, so every
guarantee below holds.  An OS crash or power loss may lose the newest
records and leave a torn last line, which readers skip; a cell whose
``done`` was lost looks unfinished and is re-claimed, which costs a
cache hit or a deterministic recompute.  Nothing is trusted that was
not re-checked: the collector recomputes any ``done`` cell whose cache
entry is missing, and the cache quarantines a torn entry as a miss.

Replaying the journal (:meth:`FleetState.apply`, one record at a time)
is idempotent and order-tolerant within a cell: ``done`` is terminal, a
fatal or attempt-exhausting ``error`` is terminal, and everything else
accumulates attempts and backoff.  Two workers racing the same cell
(possible only after a lease reclaim) both write benign records — the
deterministic result they race to produce is byte-identical by
construction.

Reading
-------
There is one reader, :class:`JournalFollower`.  It remembers which file
it read (``st_dev``, ``st_ino``), how many bytes of it, and the state
folded so far; :meth:`~JournalFollower.refresh` reads only the bytes
past that offset, so polling a journal costs the records appended since
the last poll, not the whole file.  Only whole lines are consumed: an
unterminated tail (torn, or still being written) stays unread until a
later append completes or heals it.  A different inode or a shorter
file starts the follower over from byte 0.  What a follower cannot see
— the journal replaced by a longer file that was handed the same inode
number — is why :meth:`~JournalFollower.finished` re-reads from byte 0
before it reports that no cell is open.  :func:`load_state` and
:func:`read_records` are followers that refresh once.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Optional, ValuesView

from repro.errors import FleetError

__all__ = [
    "JOURNAL_NAME",
    "CellState",
    "FleetPaths",
    "FleetState",
    "JournalFollower",
    "append_record",
    "callable_spec",
    "config_from_json",
    "config_to_json",
    "fold",
    "load_state",
    "read_records",
    "resolve_callable",
    "write_plan",
]

JOURNAL_NAME = "fleet.jsonl"

JOURNAL_VERSION = 1

#: cell lifecycle states produced by :func:`fold`
PENDING, DONE, FAILED = "pending", "done", "failed"


@dataclass(frozen=True)
class FleetPaths:
    """The on-disk layout of one fleet directory."""

    root: Path

    @property
    def journal(self) -> Path:
        return self.root / JOURNAL_NAME

    @property
    def leases(self) -> Path:
        return self.root / "leases"

    @property
    def workers(self) -> Path:
        return self.root / "workers"

    def ensure(self) -> "FleetPaths":
        self.leases.mkdir(parents=True, exist_ok=True)
        self.workers.mkdir(parents=True, exist_ok=True)
        return self

    def lease_files(self) -> list[Path]:
        try:
            return sorted(p for p in self.leases.glob("*.json")
                          if not p.name.startswith("."))
        except OSError:
            return []

    def worker_files(self) -> list[Path]:
        try:
            return sorted(p for p in self.workers.glob("*.json")
                          if not p.name.startswith("."))
        except OSError:
            return []


# -- dotted-path plumbing --------------------------------------------------

def callable_spec(fn: Callable) -> str:
    """``module:qualname`` for ``fn``, verified to round-trip.

    Worker processes import the runner by this spec, so it must resolve
    to the same object from a fresh interpreter; lambdas, closures and
    instance methods are rejected here rather than failing inside a
    worker.
    """
    spec = f"{getattr(fn, '__module__', None)}:{getattr(fn, '__qualname__', None)}"
    try:
        if resolve_callable(spec) is not fn:
            raise FleetError(
                f"runner {fn!r} does not round-trip through {spec!r};"
                " fleet runners must be module-level functions")
    except (ImportError, AttributeError) as exc:
        raise FleetError(
            f"runner {fn!r} is not importable as {spec!r}: {exc}") from exc
    return spec


def resolve_callable(spec: str) -> Callable:
    """Import ``module:qualname`` back into the named object."""
    module_name, _, qualname = spec.partition(":")
    if not module_name or not qualname:
        raise FleetError(f"malformed callable spec {spec!r}")
    obj: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


# -- config (de)serialisation ----------------------------------------------

def config_to_json(config: Any) -> dict:
    """A JSON-safe dict for a flat (dataclass) scenario config: the field
    values themselves, not :func:`dataclasses.asdict`'s deep copy."""
    if not dataclasses.is_dataclass(config) or isinstance(config, type):
        raise FleetError(
            f"fleet cells must be dataclass configs, got {type(config).__name__}")
    return {f.name: getattr(config, f.name)
            for f in dataclasses.fields(config)}


def config_from_json(cls: type, data: dict) -> Any:
    """Rebuild a config dataclass from its JSON dict.

    JSON has no tuples, so any list arriving for a tuple-typed field
    (``link_overrides``, ``trace_kinds``) is converted back, one level
    of nesting deep.
    """
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name not in data:
            continue
        value = data[f.name]
        if isinstance(value, list) and "tuple" in str(f.type):
            value = tuple(
                tuple(v) if isinstance(v, list) else v for v in value)
        kwargs[f.name] = value
    return cls(**kwargs)


def type_spec(cls: type) -> str:
    return f"{cls.__module__}:{cls.__qualname__}"


# -- journal I/O -----------------------------------------------------------

def write_plan(path: Path, header: dict, cells: Iterable[dict]) -> None:
    """Write a fresh journal (header + cell records) atomically."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.tmp-{os.getpid()}"
    try:
        with tmp.open("w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for cell in cells:
                fh.write(json.dumps(cell, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise


def append_record(path: Path, record: dict) -> None:
    """Append one journal line (a single ``O_APPEND`` write, no fsync).

    Every cell appends at least two records, and an fsync costs more
    than a short cell's whole run; what an unsynced record can lose is
    set out in the module's "Durability model".

    Self-healing after a torn tail: if the last byte on disk is not a
    newline (a writer died mid-append), the new record is written on a
    fresh line instead of gluing onto the fragment — the torn record
    stays lost (safe: the fold treats it as still-pending) but this
    record, and every one after it, survives.  The probe races benignly
    with concurrent appenders: the worst case is an extra blank line,
    which readers skip.
    """
    line = (json.dumps(record, sort_keys=True) + "\n").encode()
    fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        size = os.fstat(fd).st_size
        if size and os.pread(fd, 1, size - 1) != b"\n":
            line = b"\n" + line
        os.write(fd, line)
    finally:
        os.close(fd)


# -- replay ----------------------------------------------------------------

@dataclass
class CellState:
    """One grid cell's folded journal state."""

    key: str
    index: int
    config: dict
    status: str = PENDING
    #: failed runs so far (bounded by the header's ``max_attempts``)
    attempts: int = 0
    #: lease reclaims so far — crashes, not errors — bounded separately
    #: by ``max_reclaims`` so a worker SIGKILL never eats the error
    #: budget (and a crash-looping cell still terminates)
    reclaims: int = 0
    #: wall-clock time before which the cell must not be retried
    not_before: float = 0.0
    #: the last recorded error message (fatal or transient)
    error: str = ""
    traceback: str = ""
    #: whether the terminal error was classified fatal (vs exhausted)
    fatal: bool = False
    #: last worker that touched the cell
    worker: str = ""
    #: True when the plan (or a later claim) found the result cached
    cached: bool = False

    @property
    def open(self) -> bool:
        return self.status == PENDING


@dataclass
class FleetState:
    """The whole journal, folded: header + per-cell states in grid order."""

    header: dict = field(default_factory=dict)
    cells: dict[str, CellState] = field(default_factory=dict)
    #: per-worker drain records (worker id → signal name)
    drained: dict[str, str] = field(default_factory=dict)
    #: the open cells, kept in grid order as records are applied
    _open: dict[str, CellState] = field(
        default_factory=dict, repr=False, compare=False)
    _last_index: int = field(default=-1, repr=False, compare=False)

    def ordered(self) -> list[CellState]:
        return sorted(self.cells.values(), key=lambda c: c.index)

    def open_cells(self) -> ValuesView[CellState]:
        """The pending cells in grid order: a live view, not a copy."""
        return self._open.values()

    def counts(self) -> dict[str, int]:
        out = {DONE: 0, FAILED: 0, PENDING: 0}
        for cell in self.cells.values():
            out[cell.status] += 1
        return out

    def config_type(self) -> type:
        spec = self.header.get("config_type")
        if not spec:
            raise FleetError("journal header carries no config_type")
        cls = resolve_callable(spec)
        if not isinstance(cls, type):
            raise FleetError(f"config_type {spec!r} is not a class")
        return cls

    def config_for(self, cell: CellState) -> Any:
        return config_from_json(self.config_type(), cell.config)

    def apply(self, record: dict) -> None:
        """Fold one journal record into this state."""
        kind = record.get("kind")
        if kind == "fleet":
            self.header = record
            return
        if kind == "drain":
            self.drained[str(record.get("worker", ""))] = \
                str(record.get("signal", ""))
            return
        key = record.get("cell")
        if not key:
            return
        if kind == "cell":
            self._plan_cell(CellState(
                key=key,
                index=int(record.get("index", len(self.cells))),
                config=record.get("config", {}),
                cached=bool(record.get("cached", False)),
                status=DONE if record.get("cached") else PENDING,
            ))
            return
        cell = self.cells.get(key)
        if cell is None or cell.status == DONE:
            return  # unknown cell, or done is terminal
        if kind == "claim":
            cell.worker = str(record.get("worker", ""))
        elif kind == "done":
            cell.status = DONE
            cell.worker = str(record.get("worker", cell.worker))
            cell.cached = cell.cached or bool(record.get("from_cache"))
        elif kind in ("error", "reclaim"):
            attempt = int(record.get("attempt", 0))
            cell.not_before = max(cell.not_before,
                                  float(record.get("not_before", 0.0)))
            cell.worker = str(record.get("worker", cell.worker))
            if kind == "error":
                cell.attempts = max(cell.attempts, attempt or
                                    cell.attempts + 1)
                cell.error = str(record.get("error", ""))
                cell.traceback = str(record.get("traceback", ""))
            else:
                cell.reclaims = max(cell.reclaims, attempt or
                                    cell.reclaims + 1)
                cell.error = cell.error or (
                    f"lease reclaimed from worker"
                    f" {record.get('worker', '?')} (stale heartbeat)")
            if record.get("terminal"):
                cell.status = FAILED
                cell.fatal = bool(record.get("fatal", False))
        if not cell.open:
            self._open.pop(key, None)

    def _plan_cell(self, cell: CellState) -> None:
        # write_plan emits new keys with rising indices, so appending
        # keeps ``_open`` in grid order; anything else re-derives it.
        in_order = cell.key not in self.cells and cell.index > self._last_index
        self.cells[cell.key] = cell
        if in_order:
            self._last_index = cell.index
            if cell.open:
                self._open[cell.key] = cell
        else:
            self._last_index = max(self._last_index, cell.index)
            self._open = {c.key: c for c in self.ordered() if c.open}


def fold(records: Iterable[dict]) -> FleetState:
    """Replay journal records into a :class:`FleetState`."""
    state = FleetState()
    for record in records:
        state.apply(record)
    return state


# -- reading ---------------------------------------------------------------

class JournalFollower:
    """Folds a journal incrementally: each refresh reads only its new tail.

    ``state`` is the fold of every whole line consumed so far, and
    ``records`` those records themselves when ``keep_records`` is set
    (mission control rebuilds timelines from them; workers do not).
    """

    def __init__(self, path: Path, *, keep_records: bool = False):
        self.path = Path(path)
        self.keep_records = keep_records
        self._start_over(None)

    def _start_over(self, ident: Optional[tuple[int, int]]) -> None:
        self.state = FleetState()
        self.records: list[dict] = []
        self._ident = ident
        self._offset = 0

    def refresh(self) -> FleetState:
        """Consume the whole lines appended since the last refresh.

        A missing journal is an empty state.  A record that does not
        decode or parse is skipped: only the final line can legitimately
        be torn, but skipping any malformed line is safe because records
        are self-describing and a missing lifecycle record reads as
        "still pending".
        """
        try:
            fh = self.path.open("rb")
        except FileNotFoundError:
            self._start_over(None)
            return self.state
        with fh:
            st = os.fstat(fh.fileno())
            ident = (st.st_dev, st.st_ino)
            if ident != self._ident or st.st_size < self._offset:
                self._start_over(ident)
            if st.st_size == self._offset:
                return self.state
            fh.seek(self._offset)
            data = fh.read()
        whole = data.rfind(b"\n") + 1
        self._offset += whole
        for line in data[:whole].splitlines():
            try:
                record = json.loads(line.decode())
            except ValueError:  # UnicodeDecodeError is one
                continue
            if isinstance(record, dict) and "kind" in record:
                self.state.apply(record)
                if self.keep_records:
                    self.records.append(record)
        return self.state

    def finished(self) -> bool:
        """True when no cell is open, confirmed by a from-zero fold.

        The confirmation is what lets a follower end a sweep: a journal
        replaced behind its back by a longer file with a recycled inode
        number would otherwise go unnoticed.
        """
        if self.refresh().open_cells():
            return False
        self._start_over(None)
        return not self.refresh().open_cells()


def read_records(path: Path) -> list[dict]:
    """Every well-formed record in the journal's whole lines."""
    follower = JournalFollower(path, keep_records=True)
    follower.refresh()
    return follower.records


def load_state(path: Path) -> FleetState:
    """Read and fold the journal at ``path`` (missing → empty state)."""
    return JournalFollower(path).refresh()


def new_header(*, runner_spec: str, config_type_spec: str, fingerprint: str,
               cache_dir: str, n_cells: int, max_attempts: int,
               backoff_base: float, lease_ttl: float, max_reclaims: int = 5,
               clock: Callable[[], float] = time.time) -> dict:
    return {
        "kind": "fleet",
        "version": JOURNAL_VERSION,
        "created": clock(),
        "runner": runner_spec,
        "config_type": config_type_spec,
        "fingerprint": fingerprint,
        "cache_dir": cache_dir,
        "n_cells": n_cells,
        "max_attempts": max_attempts,
        "max_reclaims": max_reclaims,
        "backoff_base": backoff_base,
        "lease_ttl": lease_ttl,
    }
