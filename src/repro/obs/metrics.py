"""Dependency-free metrics: counters, gauges and histograms with labels.

Every subsystem that measures something registers it here instead of
growing its own ad-hoc counter dict: the cache counts hits and misses,
the runner counts task outcomes, the fleet worker counts claims and
lease renewals, the scenario harness counts kernel events.  One
registry, three instrument kinds, two exposition formats:

``to_prom_text()``
    Prometheus textfile format (``# HELP`` / ``# TYPE`` / samples),
    suitable for a node-exporter textfile collector or plain grepping.
    Includes *everything*, volatile instruments included.

``canonical_json()``
    A deterministic JSON document (sorted keys, fixed separators, no
    timestamps) containing only the **non-volatile** instruments.  Two
    seeded runs over identical starting state produce byte-identical
    documents — the property the result cache and CI diffing rely on.

The volatile flag is the determinism escape hatch: wall-clock timings,
per-worker attribution and anything else that legitimately differs
between two runs of the same seed is registered with ``volatile=True``.
It still shows up in ``metrics.prom`` (where operators want it) but
never in ``metrics.json`` (where byte-comparability rules).

Instruments are cheap (a dict lookup and an add under a lock) but the
simulation hot loop is still off limits — callers emit aggregate counts
*after* a run, never per event.
"""

from __future__ import annotations

import json
import math
import threading
from pathlib import Path
from typing import Iterable, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "parse_prom",
    "DEFAULT_BUCKETS",
    "METRICS_JSON_NAME",
    "METRICS_PROM_NAME",
]

METRICS_JSON_NAME = "metrics.json"
METRICS_PROM_NAME = "metrics.prom"

#: Default histogram buckets (seconds-flavoured, like Prometheus').
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: dict) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt_value(v: float) -> str:
    """Render a sample value the same way every time (determinism)."""
    if isinstance(v, bool):  # pragma: no cover - defensive
        return "1" if v else "0"
    if isinstance(v, int):
        return str(v)
    if math.isinf(v):
        return "+Inf" if v > 0 else "-Inf"
    if math.isnan(v):  # pragma: no cover - defensive
        return "NaN"
    if float(v).is_integer() and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def _prom_line(name: str, labels: LabelKey, value: float,
               suffix: str = "", extra: LabelKey = ()) -> str:
    pairs = labels + extra
    if pairs:
        body = ",".join(f'{k}="{_escape_label(v)}"' for k, v in pairs)
        return f"{name}{suffix}{{{body}}} {_fmt_value(value)}"
    return f"{name}{suffix} {_fmt_value(value)}"


class _Instrument:
    """Shared label-child plumbing for the three instrument kinds."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", *, volatile: bool = False,
                 lock: Optional[threading.Lock] = None):
        self.name = name
        self.help = help
        self.volatile = volatile
        self._lock = lock or threading.Lock()
        self._children: dict = {}


class Counter(_Instrument):
    """A monotonically increasing sum, optionally split by labels."""

    kind = "counter"

    def inc(self, amount: float = 1, **labels) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _label_key(labels)
        with self._lock:
            self._children[key] = self._children.get(key, 0) + amount

    def value(self, **labels) -> float:
        with self._lock:
            return self._children.get(_label_key(labels), 0)

    def total(self) -> float:
        """Sum across every label combination."""
        with self._lock:
            return sum(self._children.values())


class Gauge(_Instrument):
    """A value that can go up and down (queue depth, worker count)."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        with self._lock:
            self._children[_label_key(labels)] = value

    def inc(self, amount: float = 1, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            self._children[key] = self._children.get(key, 0) + amount

    def value(self, **labels) -> float:
        with self._lock:
            return self._children.get(_label_key(labels), 0)


class Histogram(_Instrument):
    """Cumulative-bucket histogram (Prometheus semantics)."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "", *,
                 buckets: Sequence[float] = DEFAULT_BUCKETS,
                 volatile: bool = False,
                 lock: Optional[threading.Lock] = None):
        super().__init__(name, help, volatile=volatile, lock=lock)
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")

    def observe(self, value: float, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = {"counts": [0] * (len(self.buckets) + 1),
                         "sum": 0.0, "count": 0}
                self._children[key] = child
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    child["counts"][i] += 1
                    break
            else:
                child["counts"][-1] += 1  # +Inf bucket
            child["sum"] += value
            child["count"] += 1

    def count(self, **labels) -> int:
        with self._lock:
            child = self._children.get(_label_key(labels))
            return child["count"] if child else 0

    def sum(self, **labels) -> float:
        with self._lock:
            child = self._children.get(_label_key(labels))
            return child["sum"] if child else 0.0


class MetricsRegistry:
    """A named set of instruments with deterministic exposition.

    ``counter``/``gauge``/``histogram`` are get-or-create: calling twice
    with the same name returns the same instrument (and raises if the
    kind changed underneath the name — that is always a bug).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, _Instrument] = {}

    # -- registration ------------------------------------------------------

    def _register(self, cls, name: str, help: str, volatile: bool, **kw):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if existing.kind != cls.kind:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}")
                return existing
            inst = cls(name, help, volatile=volatile, **kw)
            self._instruments[name] = inst
            return inst

    def counter(self, name: str, help: str = "", *,
                volatile: bool = False) -> Counter:
        return self._register(Counter, name, help, volatile)

    def gauge(self, name: str, help: str = "", *,
              volatile: bool = False) -> Gauge:
        return self._register(Gauge, name, help, volatile)

    def histogram(self, name: str, help: str = "", *,
                  buckets: Sequence[float] = DEFAULT_BUCKETS,
                  volatile: bool = False) -> Histogram:
        return self._register(Histogram, name, help, volatile,
                              buckets=buckets)

    def reset(self) -> None:
        """Drop every instrument (tests and long-lived CLI loops)."""
        with self._lock:
            self._instruments.clear()

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._instruments)

    # -- snapshots ---------------------------------------------------------

    def snapshot(self, *, include_volatile: bool = True) -> dict:
        """A plain-dict view: ``{name: {kind, help, volatile, samples}}``.

        Samples are sorted by label key so the snapshot (and everything
        derived from it) is order-independent of instrumentation calls.
        """
        out: dict = {}
        with self._lock:
            instruments = list(self._instruments.items())
        for name, inst in sorted(instruments):
            if inst.volatile and not include_volatile:
                continue
            entry: dict = {"kind": inst.kind, "help": inst.help,
                           "volatile": inst.volatile}
            with inst._lock:
                children = sorted(inst._children.items())
            if inst.kind == "histogram":
                entry["buckets"] = list(inst.buckets)
                entry["samples"] = [
                    {"labels": dict(key), "counts": list(c["counts"]),
                     "sum": c["sum"], "count": c["count"]}
                    for key, c in children]
            else:
                entry["samples"] = [
                    {"labels": dict(key), "value": v}
                    for key, v in children]
            out[name] = entry
        return out

    # -- exposition --------------------------------------------------------

    def to_prom_text(self) -> str:
        """Prometheus textfile exposition (volatile included)."""
        lines: list[str] = []
        snap = self.snapshot(include_volatile=True)
        for name, entry in snap.items():
            if entry["help"]:
                lines.append(f"# HELP {name} {entry['help']}")
            lines.append(f"# TYPE {name} {entry['kind']}")
            if entry["kind"] == "histogram":
                bounds = entry["buckets"]
                for s in entry["samples"]:
                    labels = _label_key(s["labels"])
                    cumulative = 0
                    for bound, n in zip(bounds, s["counts"]):
                        cumulative += n
                        lines.append(_prom_line(
                            name, labels, cumulative, suffix="_bucket",
                            extra=(("le", _fmt_value(float(bound))),)))
                    cumulative += s["counts"][-1]
                    lines.append(_prom_line(
                        name, labels, cumulative, suffix="_bucket",
                        extra=(("le", "+Inf"),)))
                    lines.append(_prom_line(name, labels, s["sum"],
                                            suffix="_sum"))
                    lines.append(_prom_line(name, labels, s["count"],
                                            suffix="_count"))
            else:
                for s in entry["samples"]:
                    lines.append(_prom_line(name, _label_key(s["labels"]),
                                            s["value"]))
        return "\n".join(lines) + ("\n" if lines else "")

    def canonical_json(self) -> str:
        """Deterministic JSON: non-volatile instruments only, sorted keys,
        fixed separators, trailing newline.  Byte-identical across two
        seeded runs over identical starting state."""
        doc = {"schema": 1,
               "metrics": self.snapshot(include_volatile=False)}
        return json.dumps(doc, sort_keys=True,
                          separators=(",", ":")) + "\n"

    def write_files(self, directory: str | Path) -> tuple[Path, Path]:
        """Write ``metrics.prom`` + ``metrics.json`` into ``directory``.

        Returns ``(prom_path, json_path)``.  The directory is created if
        missing so callers can point at a fresh export location.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        prom_path = directory / METRICS_PROM_NAME
        json_path = directory / METRICS_JSON_NAME
        prom_path.write_text(self.to_prom_text())
        json_path.write_text(self.canonical_json())
        return prom_path, json_path


#: Process-wide default registry.  Instrumented subsystems accept an
#: explicit registry and fall back to this one, so tests can isolate.
_DEFAULT = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _DEFAULT


# -- textfile parsing (CI assertions, tests) -------------------------------

def _parse_labels(body: str) -> dict:
    labels: dict[str, str] = {}
    i = 0
    while i < len(body):
        eq = body.index("=", i)
        key = body[i:eq].strip().strip(",")
        if body[eq + 1] != '"':
            raise ValueError(f"unquoted label value in {body!r}")
        j = eq + 2
        out: list[str] = []
        while body[j] != '"':
            if body[j] == "\\":
                nxt = body[j + 1]
                out.append({"n": "\n", "\\": "\\", '"': '"'}.get(nxt, nxt))
                j += 2
            else:
                out.append(body[j])
                j += 1
        labels[key] = "".join(out)
        i = j + 1
    return labels


def parse_prom(text: str | Iterable[str]) -> dict[str, dict[LabelKey, float]]:
    """Parse Prometheus textfile exposition back into samples.

    Returns ``{sample_name: {label_key: value}}`` where ``label_key`` is
    a sorted tuple of ``(key, value)`` pairs.  Histogram series appear
    under their ``_bucket``/``_sum``/``_count`` sample names.  Raises
    ``ValueError`` on malformed lines — the CI smoke job leans on that.
    """
    if isinstance(text, str):
        text = text.splitlines()
    samples: dict[str, dict[LabelKey, float]] = {}
    for raw in text:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "{" in line:
            name, rest = line.split("{", 1)
            body, value_part = rest.rsplit("}", 1)
            labels = _parse_labels(body)
        else:
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"malformed sample line: {line!r}")
            name, value_part = parts
            labels = {}
        name = name.strip()
        if not name:
            raise ValueError(f"malformed sample line: {line!r}")
        value_str = value_part.strip()
        if value_str == "+Inf":
            value = math.inf
        elif value_str == "-Inf":
            value = -math.inf
        else:
            value = float(value_str)
        samples.setdefault(name, {})[_label_key(labels)] = value
    return samples
