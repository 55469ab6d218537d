"""The on-disk result store: content-addressed, atomic, concurrency-safe.

Layout (all under one cache root)::

    <root>/
      objects/<sha256>.pkl   one pickled result per key
      index.jsonl            append-only metadata log (one line per put)

``objects/`` is the source of truth: a lookup is a single O(1) path
probe, so the store needs no locking to read.  Writes go through a
temporary file in the same directory followed by :func:`os.replace`, so
a concurrent sweep (or a killed process) can never leave a partially
written entry — readers see either nothing or complete bytes.  Two
sweeps computing the same key race benignly: last rename wins and both
contents are byte-equivalent by construction (deterministic runs).

``index.jsonl`` is a human-greppable sidecar for ``repro cache stats``
(scheme/seed/load per entry) — appends from concurrent writers
interleave per line, duplicates are deduped key-last-wins on load, and
a missing or stale index never affects correctness.

A corrupted or truncated object (disk full, version skew) is treated as
a **miss**: the entry is moved into ``quarantine/`` (unlink as the
fallback) and the scenario is simply recomputed.  ``stats`` surfaces
the quarantine so corruption is visible instead of silently eaten, and
``gc`` purges it.

Fleets (:mod:`repro.fleet`) conventionally keep their directories under
``<root>/fleets/<name>``; ``gc`` is lease-aware — the planned cells of
any fleet with a fresh worker/lease heartbeat are never evicted out
from under the run that is about to collect them.
"""

from __future__ import annotations

import copy
import json
import os
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, Optional

from repro.cache.key import OBSERVER_EXTRAS, cache_key, code_fingerprint
from repro.errors import ConfigError
from repro.obs.metrics import Counter, MetricsRegistry, get_registry

__all__ = ["CacheStats", "ResultCache", "default_cache_dir", "parse_size"]

_OBJECTS = "objects"
_INDEX = "index.jsonl"
_QUARANTINE = "quarantine"
_FLEETS = "fleets"

#: a fleet whose newest lease/worker heartbeat file is younger than this
#: is considered active, and its cells are protected from gc eviction
_FLEET_ACTIVE_WINDOW = 600.0

_SIZE_SUFFIXES = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3, "T": 1024 ** 4}


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


def parse_size(text: str) -> int:
    """``"500M"``/``"2G"``/plain bytes → byte count (for ``gc``)."""
    s = str(text).strip().upper().removesuffix("B")
    if not s:
        raise ConfigError(f"empty size {text!r}")
    factor = 1
    if s[-1] in _SIZE_SUFFIXES:
        factor = _SIZE_SUFFIXES[s[-1]]
        s = s[:-1]
    try:
        value = float(s)
    except ValueError:
        raise ConfigError(f"unparseable size {text!r}") from None
    if value < 0:
        raise ConfigError(f"size must be >= 0, got {text!r}")
    return int(value * factor)


@dataclass
class CacheStats:
    """A snapshot of the store plus this session's hit/miss counters."""

    root: str
    entries: int
    total_bytes: int
    hits: int
    misses: int
    fingerprint: str
    #: entry count per scheme, from the index (best-effort)
    by_scheme: dict[str, int] = field(default_factory=dict)
    #: corrupt entries sitting in ``quarantine/`` (cleaned by ``gc``)
    quarantined: int = 0
    quarantined_bytes: int = 0
    #: raw ``index.jsonl`` line count — greater than ``entries`` means
    #: the append-only index has grown stale duplicates (``gc`` compacts)
    index_lines: int = 0

    def summary(self) -> str:
        lines = [
            f"cache dir : {self.root}",
            f"entries   : {self.entries}",
            f"size      : {self.total_bytes / 1e6:.2f} MB",
            f"session   : {self.hits} hit(s), {self.misses} miss(es)",
            f"code fp   : {self.fingerprint[:16]}…",
        ]
        if self.by_scheme:
            per = ", ".join(f"{s}={n}" for s, n in sorted(self.by_scheme.items()))
            lines.append(f"by scheme : {per}")
        if self.quarantined:
            lines.append(
                f"quarantine: {self.quarantined} corrupt entr"
                f"{'y' if self.quarantined == 1 else 'ies'}"
                f" ({self.quarantined_bytes / 1e6:.2f} MB) — run"
                " `repro cache gc` to purge")
        if self.index_lines > self.entries:
            lines.append(
                f"index     : {self.index_lines} line(s) for"
                f" {self.entries} entries — run `repro cache gc`"
                " to compact")
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        """Machine-readable form (``repro cache stats --json``)."""
        from dataclasses import asdict

        return asdict(self)


class ResultCache:
    """Content-addressed store of per-scenario results.

    Parameters
    ----------
    root:
        Cache directory (created on first write).  Defaults to
        :func:`default_cache_dir`.
    fingerprint:
        Code fingerprint folded into every key; defaults to
        :func:`~repro.cache.key.code_fingerprint` of the installed
        package.  Tests inject a constant to decouple from the tree.
    metrics:
        The :class:`~repro.obs.metrics.MetricsRegistry` lookups, puts,
        quarantines and gc report into; defaults to the process-wide
        registry.  Tests inject a private one to isolate counts.
    """

    def __init__(self, root: Optional[str | Path] = None, *,
                 fingerprint: Optional[str] = None,
                 metrics: Optional[MetricsRegistry] = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self._fingerprint = fingerprint
        self._metrics = metrics if metrics is not None else get_registry()
        self.hits = 0
        self.misses = 0
        # The hit path works on plain strings and one counter handle:
        # no Path object or registry look-up per lookup.
        self._objects = os.path.join(self.root, _OBJECTS)
        self._lookups: Optional[Counter] = None

    def _count(self, name: str, help: str, amount: float = 1,
               **labels) -> None:
        self._metrics.counter(name, help).inc(amount, **labels)

    # -- key plumbing ------------------------------------------------------

    @property
    def fingerprint(self) -> str:
        if self._fingerprint is None:
            self._fingerprint = code_fingerprint()
        return self._fingerprint

    def key_for(self, config: Any) -> str:
        """The content address of ``config`` under the current code."""
        return cache_key(config, self.fingerprint)

    def key_or_none(self, config: Any) -> Optional[str]:
        """:meth:`key_for`, or None when ``config`` cannot be keyed (is
        not a dataclass instance).  The ``*_key`` methods take None as
        "uncacheable": a miss, a skipped write, an absent entry."""
        try:
            return self.key_for(config)
        except TypeError:
            return None

    def _object_path(self, key: str) -> Path:
        return self.root / _OBJECTS / f"{key}.pkl"

    def _quarantine_path(self, key: str) -> Path:
        return self.root / _QUARANTINE / f"{key}.pkl"

    # -- lookup / store, by config -----------------------------------------
    #
    # Each derives the key and defers to the by-key method below; a caller
    # that needs the key twice (look up, then store the miss) derives it
    # once with key_or_none() and calls the *_key methods itself.

    def contains(self, config: Any) -> bool:
        """Whether a stored entry exists, without loading or counting it."""
        return self.contains_key(self.key_or_none(config))

    def get(self, config: Any) -> Optional[Any]:
        """The stored result for ``config``, or None on any miss."""
        return self.get_key(self.key_or_none(config))

    def put(self, config: Any, result: Any) -> Optional[Path]:
        """Store ``result`` under ``config``'s key (see :meth:`put_key`)."""
        return self.put_key(self.key_or_none(config), result, config)

    # -- lookup / store, by key --------------------------------------------

    def contains_key(self, key: Optional[str]) -> bool:
        """Whether an entry exists under ``key``, without loading or
        counting it: a single path probe — what the fleet planner uses to
        mark cells as already computed without paying the unpickle."""
        return key is not None and \
            os.path.exists(f"{self._objects}/{key}.pkl")

    def _quarantine(self, path: str, key: str) -> None:
        """Move a corrupt entry aside for ``stats``/``gc`` accounting."""
        self._count("repro_cache_quarantined_total",
                    "Corrupt entries moved to quarantine on read.")
        target = self._quarantine_path(key)
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError:
            try:
                os.unlink(path)
            except OSError:
                pass

    def get_key(self, key: Optional[str]) -> Optional[Any]:
        """The result stored under ``key``, or None on any miss.

        Counts the lookup in :attr:`hits`/:attr:`misses`; a corrupted
        entry is quarantined and reported as a miss, never an error.
        """
        lookups = self._lookups
        if lookups is None:
            lookups = self._lookups = self._metrics.counter(
                "repro_cache_lookups_total", "Cache lookups by result.")
        if key is None:
            self.misses += 1
            lookups.inc(result="miss")
            return None
        path = f"{self._objects}/{key}.pkl"
        try:
            with open(path, "rb") as fh:
                result = pickle.loads(fh.read())
        except FileNotFoundError:
            self.misses += 1
            lookups.inc(result="miss")
            return None
        except Exception:
            # Truncated/corrupted/unreadable entry: set it aside (so
            # `repro cache stats` can report the corruption) and recompute.
            self._quarantine(path, key)
            self.misses += 1
            lookups.inc(result="miss")
            return None
        self.hits += 1
        lookups.inc(result="hit")
        try:  # LRU signal for gc(); never worth failing a hit over
            os.utime(path)
        except OSError:
            pass
        return result

    def put_key(self, key: Optional[str], result: Any,
                config: Any = None) -> Optional[Path]:
        """Store ``result`` under ``key`` (atomic rename); ``config``
        only labels the advisory index line.

        Returns the entry path, or None when the key is None or the
        result cannot be pickled (both are silently uncacheable, not
        errors — a sweep must never die on write-back).  Observer
        output in ``result.extras`` (``OBSERVER_EXTRAS``) is left out of
        the stored copy.
        """
        if key is None:
            return None
        try:
            extras = getattr(result, "extras", None)
            if isinstance(extras, dict) and not OBSERVER_EXTRAS.isdisjoint(extras):
                # The stored entry is a function of the key, which does
                # not see observer flags; the caller's object keeps them.
                result = copy.copy(result)
                result.extras = {k: v for k, v in extras.items()
                                 if k not in OBSERVER_EXTRAS}
            blob = pickle.dumps(result, protocol=4)
        except Exception:
            return None
        path = self._object_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f".tmp-{os.getpid()}-{key[:16]}"
        try:
            tmp.write_bytes(blob)
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass
            return None
        self._count("repro_cache_puts_total", "Results written to the cache.")
        self._count("repro_cache_put_bytes_total",
                    "Bytes written to the cache.", len(blob))
        self._append_index(key, config, len(blob))
        return path

    def _append_index(self, key: str, config: Any, n_bytes: int) -> None:
        line = {"key": key, "bytes": n_bytes, "created": time.time()}
        for name in ("scheme", "workload", "seed", "load"):
            value = getattr(config, name, None)
            if isinstance(value, (str, int, float, bool)):
                line[name] = value
        try:
            with (self.root / _INDEX).open("a") as fh:
                fh.write(json.dumps(line, sort_keys=True) + "\n")
        except OSError:
            pass  # the index is advisory

    def _read_index(self) -> dict[str, dict]:
        """key → metadata, deduped last-wins; {} when absent/corrupt."""
        entries: dict[str, dict] = {}
        try:
            with (self.root / _INDEX).open() as fh:
                for raw in fh:
                    try:
                        line = json.loads(raw)
                        entries[line["key"]] = line
                    except (ValueError, KeyError, TypeError):
                        continue
        except OSError:
            pass
        return entries

    # -- maintenance -------------------------------------------------------

    def _iter_objects(self) -> Iterator[Path]:
        try:
            yield from (self.root / _OBJECTS).glob("*.pkl")
        except OSError:
            return

    def _iter_quarantine(self) -> Iterator[Path]:
        try:
            yield from (self.root / _QUARANTINE).glob("*.pkl")
        except OSError:
            return

    def _count_index_lines(self) -> int:
        try:
            with (self.root / _INDEX).open() as fh:
                return sum(1 for line in fh if line.strip())
        except OSError:
            return 0

    def stats(self) -> CacheStats:
        """Scan the store (entries, bytes, quarantine, index health)."""
        entries = 0
        total = 0
        live_keys = set()
        for path in self._iter_objects():
            try:
                total += path.stat().st_size
            except OSError:
                continue
            entries += 1
            live_keys.add(path.stem)
        quarantined = 0
        quarantined_bytes = 0
        for path in self._iter_quarantine():
            try:
                quarantined_bytes += path.stat().st_size
            except OSError:
                continue
            quarantined += 1
        by_scheme: dict[str, int] = {}
        for key, meta in self._read_index().items():
            if key in live_keys and "scheme" in meta:
                s = str(meta["scheme"])
                by_scheme[s] = by_scheme.get(s, 0) + 1
        return CacheStats(
            root=str(self.root), entries=entries, total_bytes=total,
            hits=self.hits, misses=self.misses,
            fingerprint=self.fingerprint, by_scheme=by_scheme,
            quarantined=quarantined, quarantined_bytes=quarantined_bytes,
            index_lines=self._count_index_lines(),
        )

    def clear(self) -> int:
        """Delete every entry (index and quarantine too); returns count."""
        removed = 0
        for path in list(self._iter_objects()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        for path in list(self._iter_quarantine()):
            try:
                path.unlink()
            except OSError:
                pass
        try:
            (self.root / _INDEX).unlink()
        except OSError:
            pass
        return removed

    def _active_fleet_keys(self) -> set[str]:
        """Cell keys of every fleet under ``<root>/fleets`` that still
        shows a recent lease/worker heartbeat — results a running (or
        recently live) sweep is about to collect must not be evicted.
        """
        protected: set[str] = set()
        fleets = self.root / _FLEETS
        try:
            fleet_dirs = [p for p in fleets.iterdir() if p.is_dir()]
        except OSError:
            return protected
        now = time.time()
        for fleet_dir in fleet_dirs:
            active = False
            for sub in ("leases", "workers"):
                try:
                    for path in (fleet_dir / sub).glob("*.json"):
                        if now - path.stat().st_mtime <= _FLEET_ACTIVE_WINDOW:
                            active = True
                            break
                except OSError:
                    continue
                if active:
                    break
            if not active:
                continue
            try:
                with (fleet_dir / "fleet.jsonl").open() as fh:
                    for raw in fh:
                        try:
                            record = json.loads(raw)
                        except ValueError:
                            continue
                        if isinstance(record, dict) and \
                                record.get("kind") == "cell":
                            key = record.get("cell")
                            if isinstance(key, str):
                                protected.add(key)
            except OSError:
                continue
        return protected

    def purge_quarantine(self) -> tuple[int, int]:
        """Delete everything in ``quarantine/``; ``(removed, bytes)``."""
        removed = 0
        freed = 0
        for path in list(self._iter_quarantine()):
            try:
                size = path.stat().st_size
                path.unlink()
            except OSError:
                continue
            removed += 1
            freed += size
        return removed, freed

    def gc(self, max_bytes: int, *, protect: Iterable[str] = ()
           ) -> tuple[int, int]:
        """Evict least-recently-used entries until ≤ ``max_bytes``.

        Recency is file mtime (refreshed on every hit).  Also purges the
        quarantine (corrupt entries are dead weight) and compacts a
        stale-grown ``index.jsonl`` even when nothing is evicted.

        Keys in ``protect`` — plus the planned cells of any *active*
        fleet under ``<root>/fleets`` (fresh lease/worker heartbeats) —
        are exempt from eviction, so a concurrent ``repro cache gc``
        cannot pull freshly computed results out from under a running
        sweep.  Returns ``(entries_removed, bytes_freed)`` counting the
        quarantine purge.
        """
        if max_bytes < 0:
            raise ConfigError(f"max_bytes must be >= 0, got {max_bytes!r}")
        removed, freed = self.purge_quarantine()
        protected = set(protect) | self._active_fleet_keys()
        stamped = []
        total = 0
        for path in self._iter_objects():
            try:
                st = path.stat()
            except OSError:
                continue
            stamped.append((st.st_mtime, st.st_size, path))
            total += st.st_size
        stamped.sort()  # oldest first
        for _, size, path in stamped:
            if total <= max_bytes:
                break
            if path.stem in protected:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            freed += size
            removed += 1
        live = {p.stem for p in self._iter_objects()}
        if self._count_index_lines() != len(live):
            self._compact_index()
        self._count("repro_cache_gc_runs_total", "Garbage-collection passes.")
        if removed:
            self._count("repro_cache_gc_evicted_total",
                        "Entries removed by gc (quarantine included).",
                        removed)
        if freed:
            self._count("repro_cache_gc_freed_bytes_total",
                        "Bytes freed by gc.", freed)
        return removed, freed

    def _compact_index(self) -> None:
        """Rewrite the index to the entries that still exist (atomic)."""
        live = {p.stem for p in self._iter_objects()}
        entries = self._read_index()
        tmp = self.root / f".{_INDEX}.tmp-{os.getpid()}"
        try:
            with tmp.open("w") as fh:
                for key, meta in entries.items():
                    if key in live:
                        fh.write(json.dumps(meta, sort_keys=True) + "\n")
            os.replace(tmp, self.root / _INDEX)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass

    # -- reporting ---------------------------------------------------------

    def session_summary(self) -> dict[str, Any]:
        """Hit/miss counters for manifests and heartbeat lines."""
        return {"dir": str(self.root), "hits": self.hits,
                "misses": self.misses,
                "fingerprint": self.fingerprint}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ResultCache(root={str(self.root)!r}, hits={self.hits}, "
                f"misses={self.misses})")
