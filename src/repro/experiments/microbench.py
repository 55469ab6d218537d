"""Hot-path micro-benchmarks (``repro bench --micro``).

Three seeded scenarios pin the simulator's per-event and per-packet
cost, each reporting wall-clock throughput **and** a determinism
checksum over its simulated outcome:

* ``event_storm`` — pure kernel churn: self-rescheduling actors that
  arm-and-cancel a timeout around every firing, the exact pattern
  retransmission timers impose on the calendar (schedule + cancel per
  event, lazy-deleted garbage accumulating in the heap).
* ``port_saturation`` — a single :class:`~repro.net.port.Port` driven
  at 1.25x line rate: serialisation events, ECN marks and drop-tail
  losses; pins the per-packet cost of the data path.
* ``leaf_spine`` — a reduced end-to-end scenario (DCTCP + TLB on the
  paper's two-leaf fabric) profiled with
  :class:`~repro.obs.telemetry.RunTelemetry`.

Throughput numbers scale with ``--micro-scale`` and are machine
dependent, so regressions against a committed baseline only *warn*.
Where a scenario moves packets, packets/s is the figure to compare
across commits — it is printed first and it alone raises the slowdown
warning — because the events a packet hop costs is an implementation
detail (two before serialisation completions became lazy state, fewer
since; see docs/architecture.md, "Performance").
The checksums come from fixed-size probes that do not scale with the
budget: they hash the simulated outcome (completion behaviour, packet
and byte counters, final clock) and must be **identical** across
machines, budgets and optimisation passes — any drift means an
"optimisation" changed simulated behaviour and hard-fails the gate
(see :func:`compare_to_baseline` and the ``perf-smoke`` CI job).

``BENCH_pr4.json`` is the committed baseline produced by this module;
refresh it with ``repro bench --micro --json
benchmarks/results/BENCH_pr4.json`` after an intentional
behaviour-changing fix (see docs/architecture.md, "Performance").
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path
from typing import Optional, Sequence

import random

from repro.errors import ConfigError
from repro.sim.engine import Simulator
from repro.sim.rng import derive_seed

__all__ = [
    "run_microbench",
    "compare_to_baseline",
    "write_microbench_json",
    "format_rows",
    "SCENARIOS",
]

#: Microseconds — local to avoid importing units into the inner loops.
_US = 1e-6


def _checksum(payload: dict) -> str:
    """Stable short hash of a simulated outcome (no wall-clock inputs)."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _make_profiler(profile: bool):
    """One profiler shared across a scenario's repeats (shares stay ratios).

    Only the *measured* runs are profiled; the fixed-size determinism
    probes always run on the unprofiled fast path so their checksums
    stay comparable to unprofiled baselines.
    """
    if not profile:
        return None
    from repro.obs.profiler import EngineProfiler

    return EngineProfiler()


# -- event storm --------------------------------------------------------


class _StormActor:
    """One self-rescheduling callback with RTO-style timeout churn."""

    __slots__ = ("sim", "rng", "remaining", "timeout_ev", "timeout_fires")

    def __init__(self, sim: Simulator, rng, fires: int):
        self.sim = sim
        self.rng = rng
        self.remaining = fires
        self.timeout_ev = None
        self.timeout_fires = 0

    def fire(self) -> None:
        if self.timeout_ev is not None:
            self.timeout_ev.cancel()
            self.timeout_ev = None
        self.remaining -= 1
        if self.remaining <= 0:
            return
        # The timeout outlives the gap to the next firing, so it is
        # cancelled (never fires) — pure lazy-deletion garbage, exactly
        # like a retransmit timer under a healthy ACK clock.
        self.timeout_ev = self.sim.call_later(80 * _US, self._timeout)
        self.sim.call_later((2 + 10 * self.rng.random()) * _US, self.fire)

    def _timeout(self) -> None:
        self.timeout_ev = None
        self.timeout_fires += 1


def _run_event_storm(seed: int, n_actors: int, fires: int, profiler=None) -> dict:
    sim = Simulator()
    if profiler is not None:
        sim.set_profiler(profiler)
    # stdlib Random: a numpy Generator's scalar random() costs more than
    # a whole kernel event and would mask the thing being measured.
    rng = random.Random(derive_seed(seed, "microbench.storm"))
    actors = [_StormActor(sim, rng, fires) for _ in range(n_actors)]
    for i, actor in enumerate(actors):
        sim.call_later(i * _US, actor.fire)
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    events = sim.events_processed
    return {
        "events": events,
        "wall_s": wall,
        "checksum_payload": {
            "events": events,
            "now_ns": round(sim.now * 1e9),
            "timeout_fires": sum(a.timeout_fires for a in actors),
        },
    }


def _event_storm(seed: int, scale: float, repeats: int, profile: bool = False) -> dict:
    profiler = _make_profiler(profile)
    measured = _best_of(
        repeats,
        lambda: _run_event_storm(seed, 50, max(2, int(600 * scale)),
                                 profiler=profiler))
    probe = _run_event_storm(seed + 1, 20, 200)  # fixed size: scale-free
    row = {
        "scenario": "event_storm",
        "events": measured["events"],
        "wall_s": round(measured["wall_s"], 6),
        "throughput_events_per_s": round(measured["events"] / measured["wall_s"]),
        "checksum": _checksum(probe["checksum_payload"]),
    }
    if profiler is not None:
        row["profile"] = profiler.report(top=8)
    return row


# -- port saturation ----------------------------------------------------


class _CountingSink:
    """Minimal receive() endpoint (mirrors tests.conftest.Sink)."""

    __slots__ = ("name", "received", "bytes")

    def __init__(self) -> None:
        self.name = "sink"
        self.received = 0
        self.bytes = 0

    def receive(self, pkt) -> None:
        self.received += 1
        self.bytes += pkt.size


def _run_port_saturation(seed: int, n_packets: int, profiler=None) -> dict:
    from repro.net.packet import Packet
    from repro.net.port import Port
    from repro.units import Gbps

    sim = Simulator()
    if profiler is not None:
        sim.set_profiler(profiler)
    rng = random.Random(derive_seed(seed, "microbench.port"))
    sink = _CountingSink()
    port = Port(sim, "bench", Gbps(1), 10 * _US, sink,
                buffer_packets=64, ecn_threshold=20)
    gap = port.serialization_delay(1500) * 0.8  # 1.25x line rate
    state = {"sent": 0}

    def feed() -> None:
        pkt = Packet(1, "src", "dst", state["sent"], 1500, ecn_capable=True)
        port.enqueue(pkt)
        state["sent"] += 1
        if state["sent"] < n_packets:
            sim.call_later(gap * (0.9 + 0.2 * rng.random()), feed)

    sim.call_later(0.0, feed)
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    s = port.stats
    return {
        "events": sim.events_processed,
        "packets": s.transmitted,
        "wall_s": wall,
        "checksum_payload": {
            "transmitted": s.transmitted,
            "dropped": s.dropped,
            "ecn_marked": s.ecn_marked,
            "bytes_transmitted": s.bytes_transmitted,
            "received": sink.received,
            "now_ns": round(sim.now * 1e9),
        },
    }


def _port_saturation(seed: int, scale: float, repeats: int,
                     profile: bool = False) -> dict:
    profiler = _make_profiler(profile)
    measured = _best_of(
        repeats,
        lambda: _run_port_saturation(seed, max(100, int(40_000 * scale)),
                                     profiler=profiler))
    probe = _run_port_saturation(seed + 1, 2_000)  # fixed size: scale-free
    row = {
        "scenario": "port_saturation",
        "events": measured["events"],
        "packets": measured["packets"],
        "wall_s": round(measured["wall_s"], 6),
        "throughput_events_per_s": round(measured["events"] / measured["wall_s"]),
        "throughput_packets_per_s": round(measured["packets"] / measured["wall_s"]),
        "checksum": _checksum(probe["checksum_payload"]),
    }
    if profiler is not None:
        row["profile"] = profiler.report(top=8)
    return row


# -- end-to-end leaf–spine ----------------------------------------------

#: metric-name substrings that depend on the machine or the kernel's
#: internal event accounting rather than on simulated behaviour.
_NON_OUTCOME = ("wall", "rss", "per_s", "per_sec", "ratio", "events", "heap")


def _outcome_fields(row: dict) -> dict:
    return {k: v for k, v in row.items()
            if not any(tag in k for tag in _NON_OUTCOME)}


def _run_leaf_spine(seed: int, n_short: int, horizon: float,
                    profile: bool = False) -> dict:
    from repro.experiments.common import ScenarioConfig, run_scenario
    from repro.metrics.export import metrics_to_dict

    config = ScenarioConfig(
        scheme="tlb", seed=seed, n_short=n_short, n_long=2,
        n_paths=8, hosts_per_leaf=8, horizon=horizon, telemetry=True,
        profile=profile)
    result = run_scenario(config)
    row = metrics_to_dict(result.metrics)
    wall = result.metrics.extras["wall_time_s"]
    events = result.metrics.extras["events"]
    packets = sum(p.stats.transmitted
                  for sw in result.net.switches.values()
                  for p in sw.ports.values())
    out = {
        "events": events,
        "packets": packets,
        "wall_s": wall,
        # metrics_to_dict only exports scalar extras, so the nested
        # "profile" dict never reaches the checksum payload.
        "checksum_payload": _outcome_fields(row),
    }
    if result.profiler is not None:
        out["profile"] = result.profiler.report(top=8)
    return out


def _leaf_spine(seed: int, scale: float, repeats: int,
                profile: bool = False) -> dict:
    measured = _best_of(
        repeats,
        lambda: _run_leaf_spine(seed, max(8, int(60 * scale)), 0.5,
                                profile=profile))
    probe = _run_leaf_spine(seed + 1, 16, 0.3)  # fixed size: scale-free
    row = {
        "scenario": "leaf_spine",
        "events": measured["events"],
        "packets": measured["packets"],
        "wall_s": round(measured["wall_s"], 6),
        "throughput_events_per_s": round(measured["events"] / measured["wall_s"]),
        "throughput_packets_per_s": round(measured["packets"] / measured["wall_s"]),
        "checksum": _checksum(probe["checksum_payload"]),
    }
    if "profile" in measured:
        row["profile"] = measured["profile"]
    return row


# -- harness ------------------------------------------------------------

SCENARIOS = {
    "event_storm": _event_storm,
    "port_saturation": _port_saturation,
    "leaf_spine": _leaf_spine,
}


def _best_of(repeats: int, fn):
    """Run ``fn`` ``repeats`` times; keep the fastest wall clock.

    The simulated outcome is seeded and identical across repeats, so
    min-wall is the standard noise-resistant throughput estimate.
    """
    best = None
    for _ in range(max(1, repeats)):
        out = fn()
        if best is None or out["wall_s"] < best["wall_s"]:
            best = out
    return best


def run_microbench(
    scenarios: Sequence[str] = ("event_storm", "port_saturation", "leaf_spine"),
    *,
    seed: int = 1,
    scale: float = 1.0,
    repeats: int = 2,
    profile: bool = False,
) -> list[dict]:
    """Run the selected micro-benchmarks; one flat JSON-able row each.

    With ``profile=True`` every *measured* run goes through
    :class:`~repro.obs.profiler.EngineProfiler` and each row gains a
    nested ``"profile"`` report.  Profiling perturbs wall-clock
    throughput, so profiled rows are for attribution, not for baseline
    comparisons; determinism probes are never profiled and their
    checksums stay baseline-comparable.
    """
    if scale <= 0:
        raise ConfigError(f"--micro-scale must be positive, got {scale!r}")
    unknown = [s for s in scenarios if s not in SCENARIOS]
    if unknown:
        raise ConfigError(f"unknown micro-benchmark scenario(s): {unknown}")
    rows = []
    for name in scenarios:
        row = SCENARIOS[name](seed, scale, repeats, profile)
        row["seed"] = seed
        row["scale"] = scale
        rows.append(row)
    return rows


def compare_to_baseline(rows: list[dict], baseline_rows: list[dict]
                        ) -> tuple[list[str], list[str]]:
    """Annotate ``rows`` with speedups; return (warnings, drift).

    Mutates each row that has a baseline counterpart, adding
    ``baseline_throughput_events_per_s``, ``speedup_events`` (and the
    packet equivalents when present) plus ``checksum_match``.
    ``warnings`` lists wall-clock slowdowns (advisory: machine-
    dependent) — in packets/s where the scenario reports packets, in
    events/s otherwise; ``drift`` lists determinism-checksum mismatches
    (fatal: the simulation's outcome changed).
    """
    by_name = {r.get("scenario"): r for r in baseline_rows}
    warnings: list[str] = []
    drift: list[str] = []
    for row in rows:
        base = by_name.get(row.get("scenario"))
        if base is None:
            continue
        judged_by = "packets" if "throughput_packets_per_s" in row else "events"
        for kind in ("events", "packets"):
            key = f"throughput_{kind}_per_s"
            if key in row and key in base and base[key]:
                speedup = row[key] / base[key]
                row[f"baseline_{key}"] = base[key]
                row[f"speedup_{kind}"] = round(speedup, 3)
                if speedup < 0.9 and kind == judged_by:
                    warnings.append(
                        f"{row['scenario']}: {kind} throughput {row[key]:,} /s is "
                        f"{speedup:.2f}x baseline {base[key]:,} /s")
        if "checksum" in row and "checksum" in base:
            match = row["checksum"] == base["checksum"]
            row["checksum_match"] = match
            if not match:
                drift.append(
                    f"{row['scenario']}: determinism checksum "
                    f"{row['checksum']} != baseline {base['checksum']} — "
                    "the simulated outcome changed")
    return warnings, drift


def write_microbench_json(path: str | Path, rows: list[dict]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(rows, indent=2) + "\n")
    return path


def format_rows(rows: list[dict]) -> str:
    """Human-readable table for the CLI."""
    lines = []
    for row in rows:
        parts = [f"{row['scenario']:>16}:",
                 f"{row['throughput_events_per_s']:>12,} ev/s"]
        if "throughput_packets_per_s" in row:
            parts.append(f"{row['throughput_packets_per_s']:>11,} pkt/s")
        if "speedup_packets" in row:
            parts.append(f"({row['speedup_packets']:.2f}x baseline pkt/s,"
                         f" {row['speedup_events']:.2f}x ev/s)")
        elif "speedup_events" in row:
            parts.append(f"({row['speedup_events']:.2f}x baseline)")
        parts.append(f"[{row['checksum']}]")
        lines.append(" ".join(parts))
    return "\n".join(lines)
