"""DRILL: per-packet micro load balancing (Ghorbani et al., SIGCOMM'17).

DRILL(d, m) compares ``d`` randomly sampled output queues plus ``m``
remembered least-loaded ports from the previous decision and sends the
packet to the shortest of them — the "power of two choices" result
applied per packet at a switch.  Like RPS it can reorder, but it tracks
congestion, so queues stay short and balanced.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.errors import SchemeError
from repro.lb.base import LoadBalancer

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import Packet
    from repro.net.port import Port

__all__ = ["DrillBalancer"]


class DrillBalancer(LoadBalancer):
    """DRILL(d, m): sample ``d`` queues + ``m`` memory slots, pick shortest."""

    name = "drill"

    def __init__(self, seed: int = 0, d: int = 2, m: int = 1):
        super().__init__(seed)
        if d < 1 or m < 0:
            raise SchemeError(f"DRILL requires d >= 1 and m >= 0, got d={d}, m={m}")
        self.d = d
        self.m = m
        self._memory: list[int] = []

    def select_port(self, pkt: "Packet", ports: Sequence["Port"]) -> "Port":
        c = self.counters
        c.decisions += 1
        n = len(ports)
        candidates = set(self._memory[: self.m])
        draws = min(self.d, n)
        for _ in range(draws):
            c.rng_draws += 1
            candidates.add(self.rng.randrange(n))
        best_idx = -1
        best_len = None
        for idx in candidates:
            if idx >= n:
                continue
            c.queue_reads += 1
            qlen = len(ports[idx]._queue)
            if best_len is None or qlen < best_len:
                best_len = qlen
                best_idx = idx
        if best_idx < 0:  # memory pointed beyond a shrunken port set
            best_idx = self.rng.randrange(n)
            c.rng_draws += 1
        self._memory = [best_idx]
        c.state_writes += 1
        return ports[best_idx]

    def state_entries(self) -> int:
        return len(self._memory)
