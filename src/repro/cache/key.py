"""Cache keys: canonical config digests and the code fingerprint.

A cached result is only reusable when *both* the scenario and the code
that produced it are unchanged, so every key combines two digests:

* the **config digest** — a SHA-256 over a canonical JSON projection of
  the :class:`~repro.experiments.common.ScenarioConfig`, covering every
  field that can change the simulation outcome (scheme, fabric shape,
  workload, fault schedule, asymmetry overrides, seed, horizon, ...) and
  deliberately *excluding* pure observability knobs (trace verbosity,
  telemetry profiling, live time-series collection) that leave the
  *stored* :class:`~repro.metrics.collector.RunMetrics` untouched — what
  they add to a live run's ``extras`` (:data:`OBSERVER_EXTRAS`) is
  dropped by ``ResultCache.put``, so an entry never depends on which
  observers were on when it was filled;
* the **code fingerprint** — the package version plus a SHA-256 over
  every ``*.py`` file in the installed ``repro`` source tree, so any
  code change (even a one-line bugfix deep in the transport) invalidates
  the whole cache rather than serving stale results.

Canonicalisation makes the digest independent of dict ordering and of
tuple-vs-list spelling: values are projected to JSON with sorted keys,
tuples become lists, and anything non-primitive falls back to ``repr``.
A number is keyed by its value, not its type's spelling: a ``float``
subclass (``numpy.float64``) keys as the ``float`` it equals and a
non-bool integral (``numpy.int64``) as the ``int``; ``bool`` stays
distinct from ``int``.

Keys are cheap without remembering anything per config: each dataclass
type gets one *field plan* (its semantic field names and one
``attrgetter`` for their values), values of exact type ``str``, ``int``,
``bool``, ``None`` or ``float`` skip the ``_canon`` walk, and one
module-level encoder serialises the payload.  The only memo is
:func:`~repro.workload.scenarios.canonical_workload`'s, keyed by the
workload *string* and only for specs that read no files.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import numbers
import operator
from pathlib import Path
from typing import Any, Callable, Mapping, Optional

from repro._version import __version__
from repro.errors import ConfigError, FaultError

__all__ = [
    "NON_SEMANTIC_FIELDS",
    "OBSERVER_EXTRAS",
    "canonical_config",
    "config_digest",
    "code_fingerprint",
    "cache_key",
]

#: layout/derivation salt; bump to orphan every existing entry at once
KEY_SCHEMA = "repro-cache-v1"

#: ScenarioConfig fields that cannot change RunMetrics: observability
#: and profiling knobs only.  Everything else is semantic by default, so
#: a *new* config field is conservatively cache-invalidating until it is
#: explicitly listed here.
NON_SEMANTIC_FIELDS = frozenset({
    "trace_kinds",   # which trace records are kept (RecordingTracer)
    "telemetry",     # wall-clock profiling into extras
    "timeseries",    # live BinnedSeries trackers (not part of RunMetrics)
    "bin_width",     # bin width of those live trackers
    "spans",         # per-flow span forensics (observability artefact)
    "profile",       # kernel self-profiler (wall-time attribution)
    "metrics",       # metrics-registry emission (metrics.prom/metrics.json)
})

#: ``RunMetrics.extras`` keys that ``run_scenario`` writes under the
#: non-semantic ``telemetry`` / ``profile`` / ``spans`` fields.  The key
#: does not see those fields, so the stored entry must not either.
OBSERVER_EXTRAS = frozenset({
    "wall_time_s", "events_per_sec", "sim_wall_ratio", "peak_rss_bytes",
    "profile", "spans",
})


def _canon(value: Any) -> Any:
    """JSON-stable projection of one config field value (the reference
    implementation; :func:`canonical_config` short-cuts plain values)."""
    if isinstance(value, (str, int)) or value is None:  # bool is an int
        return value
    if isinstance(value, float):
        # repr() is the shortest round-trip form on every supported
        # Python; int-valued floats stay distinct from ints ("1.0").  A
        # subclass (numpy.float64) keys as the float it equals.
        return repr(float(value))
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _canon(v) for k, v in value.items()}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _canon(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, numbers.Integral):  # numpy.int64 and friends
        return int(value)
    return repr(value)


#: values whose canonical form is themselves, by *exact* type (a
#: subclass such as an ``IntEnum`` or ``numpy.float64`` takes ``_canon``)
_VERBATIM = frozenset({str, int, bool, type(None)})

#: dataclass type -> (semantic field names, one getter for their values)
_FIELD_PLANS: dict[type, tuple[tuple[str, ...], Callable[[Any], tuple]]] = {}

#: the digest's serialiser, built once (``json.dumps`` builds one a call)
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _field_plan(cls: type) -> tuple[tuple[str, ...], Callable[[Any], tuple]]:
    """The semantic field names of dataclass ``cls`` and a getter that
    returns their values as a tuple; computed once per type."""
    names = tuple(f.name for f in dataclasses.fields(cls)
                  if f.name not in NON_SEMANTIC_FIELDS)
    if len(names) > 1:
        getter = operator.attrgetter(*names)
    else:  # attrgetter of one name returns the bare value
        getter = lambda obj: tuple(getattr(obj, n) for n in names)  # noqa: E731
    plan = _FIELD_PLANS[cls] = (names, getter)
    return plan


#: ``repro.workload.scenarios.canonical_workload``, bound on first use so
#: that importing the cache does not import the workload stack (numpy)
_canonical_workload: Optional[Callable[[str], str]] = None


def _canon_workload(spec: str) -> str:
    """Canonicalise the workload axis via the scenario registry.

    Scenario specs reduce to their canonical form (alias == expansion,
    parameter order irrelevant) plus the content fingerprint of any
    trace file they read, so editing a CDF file invalidates exactly its
    own cells.  Legacy values and unparseable strings pass through
    verbatim (a config that cannot parse cannot have produced a cached
    result either).
    """
    global _canonical_workload
    if _canonical_workload is None:
        from repro.workload.scenarios import canonical_workload

        _canonical_workload = canonical_workload
    try:
        return _canonical_workload(spec)
    except ConfigError:
        return spec


def _canon_faults(spec: str) -> str:
    """Canonicalise the faults axis via the schedule's own (lossless) spec
    form: two spellings of one schedule — event order, spacing, number
    form, an explicit default mode — fill one set of cells.  Unparseable
    strings pass through verbatim, as in :func:`_canon_workload`."""
    from repro.faults import FaultSchedule

    try:
        return FaultSchedule.from_spec(spec).spec()
    except FaultError:
        return spec


def canonical_config(config: Any) -> dict[str, Any]:
    """The semantic fields of a config, canonicalised for hashing.

    Works on any dataclass; fields named in :data:`NON_SEMANTIC_FIELDS`
    are dropped.  A string ``workload`` field is additionally routed
    through the scenario registry's canonical form (:func:`_canon_workload`)
    and a non-empty ``faults`` string through :func:`_canon_faults`.
    """
    cls = type(config)
    plan = _FIELD_PLANS.get(cls)
    if plan is None:
        if not (dataclasses.is_dataclass(config) and not isinstance(config, type)):
            raise TypeError(
                f"cache keys need a dataclass config, got {cls.__name__}")
        plan = _field_plan(cls)
    names, getter = plan
    out = {}
    for name, value in zip(names, getter(config)):
        kind = type(value)
        if kind in _VERBATIM:
            out[name] = value
        elif kind is float:
            out[name] = repr(value)
        else:
            out[name] = _canon(value)
    if isinstance(out.get("workload"), str):
        out["workload"] = _canon_workload(out["workload"])
    if isinstance(out.get("faults"), str) and out["faults"]:
        out["faults"] = _canon_faults(out["faults"])
    return out


def config_digest(config: Any) -> str:
    """SHA-256 hex digest of the canonical config projection."""
    payload = _ENCODER.encode(canonical_config(config))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


_fingerprint_cache: dict[str, str] = {}


def code_fingerprint(root: Optional[Path] = None) -> str:
    """Digest of the ``repro`` source tree (or ``root``) + version.

    Hashes every ``*.py`` under the package directory in sorted relative
    order (path and content both), so moving, renaming, adding, or
    editing any module changes the fingerprint.  Computed once per
    process per root.
    """
    if root is None:
        import repro

        root = Path(repro.__file__).resolve().parent
    root = Path(root)
    cached = _fingerprint_cache.get(str(root))
    if cached is not None:
        return cached
    h = hashlib.sha256()
    h.update(KEY_SCHEMA.encode())
    h.update(__version__.encode())
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    fingerprint = h.hexdigest()
    _fingerprint_cache[str(root)] = fingerprint
    return fingerprint


def cache_key(config: Any, fingerprint: Optional[str] = None) -> str:
    """The content address of one (config, code) pair."""
    if fingerprint is None:
        fingerprint = code_fingerprint()
    text = KEY_SCHEMA + fingerprint + config_digest(config)
    return hashlib.sha256(text.encode()).hexdigest()
