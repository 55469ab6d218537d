"""Flow descriptors, per-flow statistics, and the flow registry.

A :class:`Flow` is the immutable description of one transfer (who, where,
how many bytes, when, with what deadline).  A :class:`FlowStats` is the
mutable record both endpoints fill in as the flow progresses; the metrics
layer consumes these after (or during) a run.  The :class:`FlowRegistry`
is the rendezvous point: workload generators register flows, hosts'
listeners look them up to build receivers, and observers (metrics
collectors) subscribe to delivery/completion events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional

from repro.errors import ConfigError, TransportError
from repro.units import DEFAULT_MSS

__all__ = ["Flow", "FlowStats", "FlowRegistry"]


@dataclass(frozen=True)
class Flow:
    """One application-level transfer.

    ``deadline`` is *relative* (seconds from ``start_time``), matching the
    paper's "deadline of each short flow is randomly distributed between
    [5ms, 25ms]"; ``None`` means the application exposes no deadline.
    """

    id: int
    src: str
    dst: str
    size: int
    start_time: float
    deadline: Optional[float] = None
    mss: int = DEFAULT_MSS

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ConfigError(f"flow {self.id}: size must be positive, got {self.size}")
        if self.mss <= 0:
            raise ConfigError(f"flow {self.id}: mss must be positive")
        if self.src == self.dst:
            raise ConfigError(f"flow {self.id}: src == dst == {self.src!r}")
        if self.deadline is not None and self.deadline <= 0:
            raise ConfigError(f"flow {self.id}: deadline must be positive")

    @cached_property
    def n_packets(self) -> int:
        """Number of MSS-sized data packets (last may be short).

        Computed once: senders and receivers read it for every segment.
        (``cached_property`` stores into the instance ``__dict__``, which
        a frozen dataclass permits; equality and ``replace`` see fields
        only.)
        """
        return max(1, math.ceil(self.size / self.mss))

    @property
    def absolute_deadline(self) -> Optional[float]:
        """Deadline as an absolute simulation time."""
        return None if self.deadline is None else self.start_time + self.deadline

    def payload_of(self, seq: int) -> int:
        """Payload bytes of data packet ``seq`` (0-based)."""
        last = self.n_packets - 1
        if not 0 <= seq <= last:
            raise TransportError(f"flow {self.id}: seq {seq} out of range")
        if seq < last:
            return self.mss
        return self.size - last * self.mss


@dataclass
class FlowStats:
    """Everything the endpoints record about one flow.

    Times are absolute simulation seconds; ``None`` means "hasn't happened".
    """

    flow: Flow
    syn_sent: Optional[float] = None
    established: Optional[float] = None
    #: all data delivered at the receiver — the FCT reference point
    completed: Optional[float] = None
    #: sender saw the last cumulative ACK (>= completed)
    acked: Optional[float] = None
    closed: Optional[float] = None

    packets_sent: int = 0
    retransmits: int = 0
    timeouts: int = 0
    #: entries into NewReno fast recovery (3-dup-ACK episodes) — the
    #: signal that distinguishes reordering-misread-as-loss from RTOs
    fast_recoveries: int = 0
    packets_received: int = 0
    out_of_order: int = 0
    dup_acks_sent: int = 0
    dup_acks_received: int = 0
    acks_sent: int = 0
    ecn_marks: int = 0
    bytes_delivered: int = 0

    @property
    def fct(self) -> Optional[float]:
        """Flow completion time: start of flow to last byte delivered."""
        if self.completed is None:
            return None
        return self.completed - self.flow.start_time

    @property
    def missed_deadline(self) -> Optional[bool]:
        """Whether the flow finished after its deadline.

        ``None`` when the flow has no deadline or never completed (an
        unfinished flow with a deadline counts as missed).
        """
        if self.flow.deadline is None:
            return None
        if self.completed is None:
            return True
        return self.fct > self.flow.deadline

    @property
    def goodput(self) -> Optional[float]:
        """Delivered application bits per second over the flow's lifetime."""
        if self.fct is None or self.fct <= 0:
            return None
        return self.flow.size * 8 / self.fct

    @property
    def reordering_ratio(self) -> float:
        """Out-of-order arrivals as a fraction of packets received."""
        if self.packets_received == 0:
            return 0.0
        return self.out_of_order / self.packets_received

    @property
    def dup_ack_ratio(self) -> float:
        """Duplicate ACKs as a fraction of all ACKs the receiver sent."""
        if self.acks_sent == 0:
            return 0.0
        return self.dup_acks_sent / self.acks_sent


class FlowRegistry:
    """Registry of all flows in one experiment.

    Observers may subscribe to per-flow delivery progress (``on_delivery``,
    fired with ``(flow, time, nbytes)`` on every in-order byte delivery)
    and completion (``on_complete``, fired once per flow).
    """

    def __init__(self) -> None:
        self._flows: dict[int, Flow] = {}
        self._stats: dict[int, FlowStats] = {}
        self._delivery_observers: list[Callable[[Flow, float, int], None]] = []
        self._completion_observers: list[Callable[[FlowStats], None]] = []
        self._dupack_observers: list[Callable[[Flow, float], None]] = []

    # -- registration ---------------------------------------------------

    def add(self, flow: Flow) -> FlowStats:
        """Register a flow; returns its (fresh) stats record."""
        if flow.id in self._flows:
            raise ConfigError(f"duplicate flow id {flow.id}")
        self._flows[flow.id] = flow
        stats = FlowStats(flow)
        self._stats[flow.id] = stats
        return stats

    def flow(self, flow_id: int) -> Flow:
        """Look up a flow descriptor."""
        try:
            return self._flows[flow_id]
        except KeyError:
            raise TransportError(f"unknown flow id {flow_id}") from None

    def stats(self, flow_id: int) -> FlowStats:
        """Look up a flow's stats record."""
        try:
            return self._stats[flow_id]
        except KeyError:
            raise TransportError(f"unknown flow id {flow_id}") from None

    def __len__(self) -> int:
        return len(self._flows)

    def __iter__(self) -> Iterable[Flow]:
        return iter(self._flows.values())

    def all_stats(self) -> list[FlowStats]:
        """All stats records, in flow-id order."""
        return [self._stats[fid] for fid in sorted(self._stats)]

    # -- events -----------------------------------------------------------

    def subscribe_delivery(self, fn: Callable[[Flow, float, int], None]) -> None:
        """Subscribe to in-order delivery progress events."""
        self._delivery_observers.append(fn)

    def subscribe_completion(self, fn: Callable[[FlowStats], None]) -> None:
        """Subscribe to flow-completion events."""
        self._completion_observers.append(fn)

    def notify_delivery(self, flow: Flow, time: float, nbytes: int) -> None:
        """Called by receivers as in-order data arrives."""
        for fn in self._delivery_observers:
            fn(flow, time, nbytes)

    def notify_completion(self, stats: FlowStats) -> None:
        """Called by receivers when the last byte lands."""
        for fn in self._completion_observers:
            fn(stats)

    def subscribe_dupack(self, fn: Callable[[Flow, float], None]) -> None:
        """Subscribe to duplicate-ACK emission events (reordering signal)."""
        self._dupack_observers.append(fn)

    def notify_dupack(self, flow: Flow, time: float) -> None:
        """Called by receivers each time they emit a duplicate ACK."""
        for fn in self._dupack_observers:
            fn(flow, time)
