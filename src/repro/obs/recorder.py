"""The flight recorder: in-sim time-series sampling of a live fabric.

Post-mortem tracing (PR 1's :class:`~repro.obs.tracers.JsonlTracer`)
answers "what happened, packet by packet" but costs a record per event
and still needs re-aggregation to show *why* a run behaved as it did.
The :class:`FlightRecorder` answers the why-questions directly: it
samples the fabric off a simulator timer into bounded columnar time
series — per-port queue depth and utilisation, ECN-mark / drop /
retransmit rates, active short/long flow counts — and audits every
granularity-calculator decision (the paper's Eq. 9 adaptive ``q_th``)
with its inputs and regime.  Constant-memory log-bucketed histograms
(:class:`~repro.metrics.histogram.LogHistogram`) capture FCT and
queueing-delay percentiles without keeping samples.

Memory is bounded by a **cap-and-decimate ring**: when the sample store
reaches ``max_samples`` rows, every other row is dropped and the sample
timer's interval doubles (:meth:`~repro.sim.timers.PeriodicTimer.
set_interval`), so an arbitrarily long run holds at most ``max_samples``
rows at a uniform (coarsening) cadence.  Counters are sampled
*cumulatively*, so rates computed from decimated rows stay exact over
each surviving window.

The recorder is a trace sink: :func:`~repro.experiments.common.
run_scenario` tees it into the run's trace stream, where it folds
``dequeue`` waits into the queueing-delay histogram and ``qth`` records
(TLB's decisions) into the audit.  Every emit site sits behind the
``tracer.enabled`` guard, so a run without a recorder pays nothing.

The recorded artefact round-trips through a compressed ``.npz``
(:meth:`FlightRecorder.save` / :meth:`RecordedRun.load`) consumed by
``repro report`` (HTML dashboards) and ``repro diff`` (regression
gates).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Optional

import numpy as np

from repro._version import __version__
from repro.core.granularity_calculator import DECISION_FIELDS
from repro.errors import ConfigError
from repro.metrics.fct import is_short
from repro.metrics.histogram import LogHistogram
from repro.sim.timers import PeriodicTimer
from repro.sim.trace import Tracer

__all__ = ["FlightRecorder", "RecordedRun"]

#: ``.npz`` layout version; bump on incompatible change
RECORDING_SCHEMA = 1


#: the q_th audit columns of one ``qth`` trace record
_AUDIT_FIELDS = (*DECISION_FIELDS, "load_bps")


class _AuditRing:
    """Capped store of q_th decisions for one switch.

    Applies the same cap-and-decimate policy as the sampled series:
    at ``cap`` rows, every other row is dropped and only every
    ``stride``-th subsequent decision is recorded.
    """

    __slots__ = ("cap", "stride", "_skip", "times", "cols")

    def __init__(self, cap: int):
        self.cap = cap
        self.stride = 1
        self._skip = 0
        self.times: list[float] = []
        self.cols: dict[str, list] = {name: [] for name in _AUDIT_FIELDS}

    def add(self, now: float, fields: dict) -> None:
        self._skip += 1
        if self._skip < self.stride:
            return
        self._skip = 0
        self.times.append(now)
        for name, col in self.cols.items():
            col.append(fields[name])
        if len(self.times) >= self.cap:
            keep = (len(self.times) - 1) % 2  # retain the newest row
            self.times = self.times[keep::2]
            self.cols = {name: col[keep::2] for name, col in self.cols.items()}
            self.stride *= 2


class FlightRecorder(Tracer):
    """Samples a live fabric into bounded columnar time series.

    Also a trace sink (see the module docstring): tee it into the run's
    tracer for the queueing-delay histogram and the q_th audit.

    Parameters
    ----------
    cadence:
        Initial sampling period in simulated seconds (default 500 µs —
        TLB's own update interval, so the recorder sees every
        granularity epoch until decimation coarsens it).
    max_samples:
        Row cap per series; reaching it halves the stored rows and
        doubles the sampling interval.
    bins_per_decade:
        Resolution of the FCT / queueing-delay histograms.
    """

    enabled = True

    def __init__(self, *, cadence: float = 500e-6, max_samples: int = 4096,
                 bins_per_decade: int = 10):
        if cadence <= 0:
            raise ConfigError("cadence must be positive")
        if max_samples < 4:
            raise ConfigError("max_samples must be >= 4")
        self.cadence = float(cadence)
        self.cadence_now = float(cadence)
        self.max_samples = int(max_samples)
        # sampled series (shared clock)
        self._times: list[float] = []
        self._qdepth: list[list[int]] = []
        self._busy: list[list[float]] = []
        self._bytes: list[list[int]] = []
        self._ecn: list[list[int]] = []
        self._drops: list[list[int]] = []
        self._active_short: list[int] = []
        self._active_long: list[int] = []
        self._retransmits: list[int] = []
        # decision audit, per switch
        self._audit: dict[str, _AuditRing] = {}
        # constant-memory distributions
        self.fct_short = LogHistogram(bins_per_decade, min_value=1e-6)
        self.fct_long = LogHistogram(bins_per_decade, min_value=1e-6)
        self.queue_wait = LogHistogram(bins_per_decade, min_value=1e-9)
        self._timer: Optional[PeriodicTimer] = None
        self._net = None
        self._registry = None
        self.ports: list = []
        self.port_names: list[str] = []
        self.short_threshold = 100_000
        self.meta: dict[str, Any] = {}

    # -- wiring -----------------------------------------------------------

    def attach(self, net, registry=None, *, ports=None,
               short_threshold: int = 100_000) -> "FlightRecorder":
        """Install the sample timer and FCT subscription on a built fabric.

        ``ports`` defaults to every leaf uplink — where the paper's
        congestion story happens.
        """
        if self._net is not None:
            raise ConfigError("recorder is already attached")
        self._net = net
        self._registry = registry
        self.ports = list(ports) if ports is not None else net.all_leaf_uplink_ports()
        self.port_names = [p.name for p in self.ports]
        self.short_threshold = int(short_threshold)
        if registry is not None:
            registry.subscribe_completion(self._on_completion)
        self._timer = PeriodicTimer(net.sim, self.cadence_now, self._sample)
        return self

    def stop(self) -> None:
        """Cancel the sampling timer (idempotent)."""
        if self._timer is not None:
            self._timer.cancel()

    @property
    def ticks(self) -> int:
        """Sample-timer firings so far: kernel events the recorder, not
        the simulated traffic, caused."""
        return self._timer.ticks if self._timer is not None else 0

    # -- ingest -----------------------------------------------------------

    def emit(self, time: float, kind: str, **fields: Any) -> None:
        if kind == "dequeue":
            wait = fields.get("wait")
            if wait is not None:
                self.queue_wait.observe(float(wait))
        elif kind == "qth":
            node = fields["node"]
            ring = self._audit.get(node)
            if ring is None:
                ring = self._audit[node] = _AuditRing(self.max_samples)
            ring.add(time, fields)

    def _on_completion(self, stats) -> None:
        fct = stats.fct
        if fct is None:
            return
        if is_short(stats.flow.size, self.short_threshold):
            self.fct_short.observe(fct)
        else:
            self.fct_long.observe(fct)

    def _sample(self) -> None:
        self._times.append(self._net.sim.now)
        qrow: list[int] = []
        busyrow: list[float] = []
        bytesrow: list[int] = []
        ecnrow: list[int] = []
        droprow: list[int] = []
        for p in self.ports:
            qlen, busy, btx, ecn, drops = p.snapshot()
            qrow.append(qlen)
            busyrow.append(busy)
            bytesrow.append(btx)
            ecnrow.append(ecn)
            droprow.append(drops)
        self._qdepth.append(qrow)
        self._busy.append(busyrow)
        self._bytes.append(bytesrow)
        self._ecn.append(ecnrow)
        self._drops.append(droprow)
        active_short = active_long = retx = 0
        if self._registry is not None:
            threshold = self.short_threshold
            for s in self._registry.all_stats():
                retx += s.retransmits
                if s.syn_sent is not None and s.completed is None:
                    if is_short(s.flow.size, threshold):
                        active_short += 1
                    else:
                        active_long += 1
        elif self._net is not None:
            for sw in self._net.switches.values():
                counts = sw.lb_flow_counts()
                if counts is not None:
                    active_short += counts[0]
                    active_long += counts[1]
        self._active_short.append(active_short)
        self._active_long.append(active_long)
        self._retransmits.append(retx)
        if len(self._times) >= self.max_samples:
            self._decimate()

    def _decimate(self) -> None:
        """Halve the stored rows and double the sampling interval.

        The kept phase retains the newest row, so surviving samples stay
        uniformly spaced across the cut (the next sample lands one new
        interval after the last kept one).
        """
        keep = (len(self._times) - 1) % 2
        for name in ("_times", "_qdepth", "_busy", "_bytes", "_ecn", "_drops",
                     "_active_short", "_active_long", "_retransmits"):
            setattr(self, name, getattr(self, name)[keep::2])
        self.cadence_now *= 2.0
        if self._timer is not None:
            self._timer.set_interval(self.cadence_now)

    # -- views ------------------------------------------------------------

    @property
    def n_samples(self) -> int:
        return len(self._times)

    def finalize(self, *, scheme: str = "?", seed: Optional[int] = None,
                 horizon: Optional[float] = None,
                 extra: Optional[dict] = None) -> None:
        """Stamp run identity into the artefact's metadata."""
        self.meta = {
            "schema": RECORDING_SCHEMA,
            "version": __version__,
            "scheme": scheme,
            "seed": seed,
            "horizon_s": horizon,
            "cadence_s": self.cadence,
            "cadence_final_s": self.cadence_now,
            "max_samples": self.max_samples,
            "n_samples": self.n_samples,
            "short_threshold": self.short_threshold,
        }
        if extra:
            self.meta.update(extra)

    # -- persistence ------------------------------------------------------

    def to_arrays(self) -> dict[str, np.ndarray]:
        """The full recording as named arrays (the ``.npz`` layout)."""
        n = len(self._times)
        p = len(self.port_names)
        arrays: dict[str, np.ndarray] = {
            "times": np.asarray(self._times, dtype=np.float64),
            "port_names": np.asarray(self.port_names, dtype=np.str_),
            "qdepth": np.asarray(self._qdepth, dtype=np.int64).reshape(n, p),
            "busy_time": np.asarray(self._busy, dtype=np.float64).reshape(n, p),
            "bytes_tx": np.asarray(self._bytes, dtype=np.int64).reshape(n, p),
            "ecn_marked": np.asarray(self._ecn, dtype=np.int64).reshape(n, p),
            "drops": np.asarray(self._drops, dtype=np.int64).reshape(n, p),
            "active_short": np.asarray(self._active_short, dtype=np.int64),
            "active_long": np.asarray(self._active_long, dtype=np.int64),
            "retransmits": np.asarray(self._retransmits, dtype=np.int64),
        }
        # q_th audit: flattened over switches, name-sorted for determinism
        switches = sorted(self._audit)
        rows: dict[str, list] = {"t": [], "switch_idx": []}
        rows.update((name, []) for name in _AUDIT_FIELDS)
        for idx, name in enumerate(switches):
            ring = self._audit[name]
            rows["t"].extend(ring.times)
            rows["switch_idx"].extend([idx] * len(ring.times))
            for col, values in ring.cols.items():
                rows[col].extend(values)
        arrays["audit_switches"] = np.asarray(switches, dtype=np.str_)
        arrays["audit_regime"] = np.asarray(rows.pop("regime"), dtype=np.str_)
        for key, values in rows.items():
            dtype = np.int64 if key in ("switch_idx", "qth", "m_short", "m_long") \
                else np.float64
            arrays[f"audit_{key}"] = np.asarray(values, dtype=dtype)
        for name, hist in (("fct_short", self.fct_short),
                           ("fct_long", self.fct_long),
                           ("queue_wait", self.queue_wait)):
            for key, arr in hist.to_arrays().items():
                arrays[f"hist_{name}_{key}"] = arr
        arrays["meta_json"] = np.asarray(json.dumps(self.meta, sort_keys=True))
        return arrays

    def save(self, path: str | Path) -> Path:
        """Write the recording as a compressed ``.npz`` artefact."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, **self.to_arrays())
        # numpy appends .npz when missing; mirror that for the caller
        return path if path.suffix == ".npz" else path.with_name(path.name + ".npz")


class RecordedRun:
    """A loaded flight recording, with derived-series helpers.

    Construct via :meth:`load`; all arrays from
    :meth:`FlightRecorder.to_arrays` are available through ``data``.
    """

    def __init__(self, data: dict[str, np.ndarray]):
        self.data = data
        meta_raw = data.get("meta_json")
        self.meta: dict[str, Any] = json.loads(str(np.asarray(meta_raw)[()])) \
            if meta_raw is not None else {}

    @classmethod
    def load(cls, path: str | Path) -> "RecordedRun":
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"recording {path} does not exist")
        try:
            with np.load(path, allow_pickle=False) as npz:
                data = {k: npz[k] for k in npz.files}
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{path} is not a flight recording: {exc}") from None
        if "times" not in data or "meta_json" not in data:
            raise ConfigError(f"{path} is not a flight recording (missing keys)")
        return cls(data)

    # -- basic accessors --------------------------------------------------

    @property
    def times(self) -> np.ndarray:
        return self.data["times"]

    @property
    def port_names(self) -> list[str]:
        return [str(s) for s in self.data["port_names"]]

    @property
    def n_samples(self) -> int:
        return int(self.times.size)

    @property
    def qdepth(self) -> np.ndarray:
        """(n_samples, n_ports) queue depth in packets."""
        return self.data["qdepth"]

    # -- derived series ---------------------------------------------------

    def mid_times(self) -> np.ndarray:
        """Window midpoints for the per-window rate series."""
        t = self.times
        return (t[1:] + t[:-1]) / 2.0 if t.size > 1 else np.zeros(0)

    def _dt(self) -> np.ndarray:
        dt = np.diff(self.times)
        dt[dt <= 0] = np.nan
        return dt

    def utilization(self) -> np.ndarray:
        """(n_samples-1, n_ports) per-window link utilisation in [0, 1]."""
        if self.n_samples < 2:
            return np.zeros((0, len(self.port_names)))
        busy = self.data["busy_time"]
        util = np.diff(busy, axis=0) / self._dt()[:, None]
        return np.clip(util, 0.0, 1.0)

    def throughput_bps(self) -> np.ndarray:
        """Fabric-wide delivered rate per window (bits/s over all ports)."""
        if self.n_samples < 2:
            return np.zeros(0)
        total = self.data["bytes_tx"].sum(axis=1).astype(float)
        return np.diff(total) * 8.0 / self._dt()

    def rate_per_second(self, key: str) -> np.ndarray:
        """Per-window rate of a cumulative counter (``ecn_marked``,
        ``drops``, ``retransmits``), events/s fabric-wide."""
        arr = self.data[key].astype(float)
        if arr.ndim == 2:
            arr = arr.sum(axis=1)
        if arr.size < 2:
            return np.zeros(0)
        return np.diff(arr) / self._dt()

    # -- q_th audit -------------------------------------------------------

    def audit_switches(self) -> list[str]:
        return [str(s) for s in self.data.get("audit_switches", np.zeros(0, np.str_))]

    def audit(self, switch: Optional[str] = None) -> dict[str, np.ndarray]:
        """The decision-audit columns, optionally for one switch."""
        keys = ("t", "qth", "raw", "m_short", "m_long", "x_packets",
                "deadline", "load_bps")
        out = {k: self.data.get(f"audit_{k}", np.zeros(0)) for k in keys}
        out["regime"] = self.data.get("audit_regime", np.zeros(0, np.str_))
        if switch is not None:
            switches = self.audit_switches()
            if switch not in switches:
                raise ConfigError(f"switch {switch!r} has no audit rows "
                                  f"(recorded: {switches})")
            mask = self.data["audit_switch_idx"] == switches.index(switch)
            out = {k: v[mask] for k, v in out.items()}
        return out

    # -- histograms -------------------------------------------------------

    def histogram(self, name: str) -> LogHistogram:
        """Rehydrate one of ``fct_short`` / ``fct_long`` / ``queue_wait``."""
        try:
            return LogHistogram.from_arrays(
                self.data[f"hist_{name}_buckets"],
                self.data[f"hist_{name}_counts"],
                self.data[f"hist_{name}_meta"],
            )
        except KeyError:
            raise ConfigError(f"no histogram {name!r} in recording") from None

    # -- flat summary (repro diff / bench rows) ---------------------------

    def summary_row(self) -> dict[str, Any]:
        """One flat numeric row, comparable across runs by ``repro diff``."""
        row: dict[str, Any] = {
            "scheme": self.meta.get("scheme", "?"),
            "horizon_s": self.meta.get("horizon_s"),
            "recorded_samples": self.n_samples,
        }
        for name in ("fct_short", "fct_long", "queue_wait"):
            h = self.histogram(name)
            row[f"{name}_n"] = h.count
            row[f"{name}_mean_s"] = h.mean()
            for p in (50, 95, 99):
                row[f"{name}_p{p}_s"] = h.percentile(p)
        util = self.utilization()
        row["mean_utilization"] = float(np.nanmean(util)) if util.size else 0.0
        for key in ("ecn_marked", "drops", "retransmits"):
            arr = self.data[key]
            total = arr[-1].sum() if arr.ndim == 2 and arr.size else (
                arr[-1] if arr.size else 0)
            row[f"total_{key}"] = int(total)
        qd = self.qdepth
        row["peak_qdepth"] = int(qd.max()) if qd.size else 0
        row["mean_qdepth"] = float(qd.mean()) if qd.size else 0.0
        return row
