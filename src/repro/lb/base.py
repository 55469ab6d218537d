"""Load-balancer interface and shared machinery.

Besides the decision hook itself, the base class carries the
operation-accounting counters behind the Fig. 15 overhead reproduction:
every scheme self-reports how many hash computations, queue-depth reads
and per-flow state touches each decision costs, and how much state it
holds.  :mod:`repro.metrics.overhead` turns those counters into the
relative CPU/memory scores the figure compares.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.errors import SchemeError

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import Packet
    from repro.net.port import Port
    from repro.net.switch import Switch

__all__ = ["LbCounters", "LoadBalancer", "PathStateObserver", "shortest_queue_index"]


@dataclass
class LbCounters:
    """Per-switch operation/state accounting for overhead estimation."""

    decisions: int = 0
    hash_ops: int = 0
    queue_reads: int = 0
    state_reads: int = 0
    state_writes: int = 0
    rng_draws: int = 0
    timer_ticks: int = 0
    #: peak number of per-flow (or equivalent) state entries held
    peak_entries: int = 0

    def note_entries(self, current: int) -> None:
        """Update the peak state-table size."""
        if current > self.peak_entries:
            self.peak_entries = current

    def total_ops(self) -> int:
        """All accounted per-packet operations (CPU proxy)."""
        return (
            self.hash_ops + self.queue_reads + self.state_reads
            + self.state_writes + self.rng_draws
        )


def shortest_queue_index(ports: Sequence["Port"]) -> int:
    """Index of the port whose queue drains soonest.

    On a symmetric fabric this is simply the shortest queue (the paper's
    wording).  Under bandwidth asymmetry a packet count is misleading —
    three packets on a 5× slower link take 5× longer to clear — so the
    comparison key is the estimated drain time ``queued bytes / rate``,
    which reduces to byte-count ordering when rates are equal.  Ties
    break towards the lowest index, which is deterministic and — because
    candidate sets are in fixed spine order — stable across schemes,
    keeping comparisons paired.
    """
    # ``_rate`` is the slot behind the ``Port.rate`` property: a read,
    # not a call, per candidate.
    it = iter(ports)
    port = next(it)
    best = i = 0
    best_key = port.queue_bytes / port._rate
    for port in it:
        i += 1
        key = port.queue_bytes / port._rate
        if key < best_key:
            best = i
            best_key = key
    return best


class PathStateObserver:
    """Control-plane notifications about path (uplink) liveness.

    The fault injector (:mod:`repro.faults`) calls :meth:`path_down` /
    :meth:`path_up` on the balancer of every switch whose uplink fails or
    recovers — modelling the failure-detection signal a real control
    plane (BFD, LAG monitoring) would deliver.  Implementations decide
    what to do with it; :class:`LoadBalancer` excludes dead uplinks from
    every subsequent decision and re-admits recovered ones.
    """

    def path_down(self, port: "Port") -> None:
        """``port`` is no longer usable."""

    def path_up(self, port: "Port") -> None:
        """``port`` is usable again."""


class LoadBalancer(PathStateObserver):
    """Base class: one instance per switch.

    Subclasses implement :meth:`select_port` and may override
    :meth:`on_bind` to install timers or inspect the switch.  The switch
    data path enters through :meth:`pick`, which filters out uplinks
    reported dead via the :class:`PathStateObserver` hook before the
    scheme's :meth:`select_port` ever sees them — so every scheme,
    congestion-aware or not, stops feeding a failed link once the
    control plane has noticed it.

    Parameters
    ----------
    seed:
        Seed for this instance's private RNG (schemes must not share RNG
        state across switches, or decisions would couple).
    """

    #: registry name; subclasses override
    name: str = "base"

    def __init__(self, seed: int = 0):
        self.switch: Optional["Switch"] = None
        self.rng = random.Random(seed)
        self.counters = LbCounters()
        #: uplinks reported down (identity set); see PathStateObserver
        self.down_ports: set["Port"] = set()
        #: candidate tuple -> its live subset while any uplink is down;
        #: emptied whenever ``down_ports`` changes
        self._live_ports: dict[tuple, tuple] = {}
        self.path_events = 0

    # -- lifecycle ---------------------------------------------------------

    def bind(self, switch: "Switch") -> None:
        """Called by :meth:`Switch.attach_lb`."""
        if self.switch is not None:
            raise SchemeError(
                f"{self.name} balancer already bound to {self.switch.name}; "
                "create one instance per switch"
            )
        self.switch = switch
        self.on_bind()

    def on_bind(self) -> None:
        """Hook for subclasses (timers, port inspection)."""

    # -- path state (PathStateObserver) ------------------------------------

    def path_down(self, port: "Port") -> None:
        """Record a dead uplink and tell the scheme (:meth:`on_path_down`)."""
        if port not in self.down_ports:
            self.down_ports.add(port)
            self._live_ports.clear()
            self.path_events += 1
            self.on_path_down(port)

    def path_up(self, port: "Port") -> None:
        """Re-admit a recovered uplink (:meth:`on_path_up` for schemes)."""
        if port in self.down_ports:
            self.down_ports.discard(port)
            self._live_ports.clear()
            self.path_events += 1
            self.on_path_up(port)

    def on_path_down(self, port: "Port") -> None:
        """Hook for subclasses (e.g. evict per-flow pins to the port)."""

    def on_path_up(self, port: "Port") -> None:
        """Hook for subclasses."""

    def usable_ports(self, ports: Sequence["Port"]) -> Sequence["Port"]:
        """``ports`` minus the uplinks reported down.

        Falls back to the full candidate set when *every* candidate is
        down — there is no good choice then, and packets will be dropped
        or parked at the port itself, which is exactly what a switch
        with no live uplink does.

        The filtered set is computed once per candidate set and kept
        until the next :meth:`path_down` / :meth:`path_up`, so a dead
        uplink costs a dictionary lookup per packet, not a rebuilt list.
        """
        down = self.down_ports
        if not down:
            return ports
        key = ports if type(ports) is tuple else tuple(ports)
        live = self._live_ports.get(key)
        if live is None:
            live = tuple(p for p in key if p not in down) or key
            self._live_ports[key] = live
        return live

    # -- the decision ------------------------------------------------------

    def pick(self, pkt: "Packet", ports: Sequence["Port"]) -> "Port":
        """The switch-facing entry point: filter dead uplinks, then decide.

        Per-flow state keyed by candidate *index* (TLB, Presto, LetFlow)
        sees a shorter candidate list while a path is down, so pinned
        flows remap deterministically — the behaviour of hashing into a
        reduced ECMP group on real hardware.
        """
        return self.select_port(pkt, self.usable_ports(ports))

    def select_port(self, pkt: "Packet", ports: Sequence["Port"]) -> "Port":
        """Pick the output port for ``pkt`` among equal-cost candidates."""
        raise NotImplementedError

    # -- introspection -------------------------------------------------------

    def state_entries(self) -> int:
        """Current number of per-flow state entries (memory proxy)."""
        return 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        bound = self.switch.name if self.switch else "unbound"
        return f"<{type(self).__name__} name={self.name!r} on {bound}>"
