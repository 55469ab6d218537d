"""Simulator self-profiler: where does simulation wall time go?

ROADMAP item 1 (a sharded/vectorized core) needs a component-level
profile before any partitioning cut can be chosen; this module is that
measurement.  An :class:`EngineProfiler` installed via
:meth:`~repro.sim.engine.Simulator.set_profiler` makes the kernel run
events through an attributing loop: every executed handler increments a
per-component event count, and one event in ``sample_every`` is timed
with ``perf_counter``.  Components are handler qualnames
(``Port._transmission_done``, ``Switch.receive``, …), which map directly
onto the modules a sharding cut would split.

The profiled loop mirrors the fast path's semantics exactly, so a
profiled seeded run executes the same event sequence as an unprofiled
one — profiling perturbs wall time only, never simulation results.  With
no profiler installed the kernel takes its normal loop; the check is
once per ``run()`` call, so the off state costs nothing per event.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from repro.errors import ConfigError

__all__ = ["EngineProfiler"]


class EngineProfiler:
    """Accumulates per-handler event counts and sampled wall time.

    Parameters
    ----------
    sample_every:
        Time one event in this many (the rest are only counted).  1
        times every event — accurate but slow; the default keeps the
        ``perf_counter`` pair off ~94% of events.

    Attributes
    ----------
    counts:
        handler qualname -> events executed (every event, not sampled).
    sampled_time:
        handler qualname -> summed wall seconds over its sampled events.
    sampled_events:
        handler qualname -> how many of its events were timed.
    wall_s:
        total wall seconds spent inside profiled ``run()`` calls.
    runs:
        number of profiled ``run()`` invocations.
    """

    __slots__ = ("sample_every", "counts", "sampled_time", "sampled_events",
                 "wall_s", "runs")

    def __init__(self, sample_every: int = 16):
        if sample_every < 1:
            raise ConfigError(f"sample_every must be >= 1, got {sample_every!r}")
        self.sample_every = int(sample_every)
        self.counts: Counter = Counter()
        self.sampled_time: Counter = Counter()
        self.sampled_events: Counter = Counter()
        self.wall_s = 0.0
        self.runs = 0

    def install(self, sim) -> "EngineProfiler":
        """Attach to a simulator; returns ``self``."""
        sim.set_profiler(self)
        return self

    # -- views -------------------------------------------------------------

    @property
    def total_events(self) -> int:
        """Events executed under the profiler."""
        return sum(self.counts.values())

    def components(self, top: Optional[int] = None) -> list[dict]:
        """Per-component rows, largest estimated time share first.

        Each row carries the component's event count, its share of all
        events, and its share of sampled wall time (the best available
        estimate of its share of total run time).  ``est_s`` scales the
        sampled time by the component's sampling ratio to estimate its
        total wall seconds.
        """
        total_events = self.total_events
        total_sampled = sum(self.sampled_time.values())
        rows = []
        for name in self.counts:
            n = self.counts[name]
            s_time = self.sampled_time.get(name, 0.0)
            s_events = self.sampled_events.get(name, 0)
            est_s = s_time * (n / s_events) if s_events else 0.0
            rows.append({
                "component": name,
                "events": n,
                "event_share": n / total_events if total_events else 0.0,
                "time_share": s_time / total_sampled if total_sampled else 0.0,
                "sampled_events": s_events,
                "est_s": est_s,
            })
        rows.sort(key=lambda r: (-r["time_share"], -r["events"], r["component"]))
        return rows[:top] if top is not None else rows

    def report(self, top: Optional[int] = None) -> dict:
        """The persistable profile (``RunMetrics.extras['profile']``)."""
        return {
            "sample_every": self.sample_every,
            "events": self.total_events,
            "wall_s": self.wall_s,
            "runs": self.runs,
            "components": [
                {
                    "component": r["component"],
                    "events": r["events"],
                    "event_share": round(r["event_share"], 6),
                    "time_share": round(r["time_share"], 6),
                    "est_s": round(r["est_s"], 6),
                }
                for r in self.components(top)
            ],
        }
