"""WCMP: capacity-weighted ECMP.

A small extension of flow hashing that weights each uplink by its link
rate, so a 10× slower (asymmetric) link attracts 10× fewer flows.  Not a
paper baseline, but a useful reference point in the asymmetry experiments
(Figs. 16–17) and a worked example of extending the scheme registry.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import TYPE_CHECKING, Sequence

from repro.lb.base import LoadBalancer

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import Packet
    from repro.net.port import Port

__all__ = ["WcmpBalancer"]

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


class WcmpBalancer(LoadBalancer):
    """Hash flows onto ports with probability proportional to port rate."""

    name = "wcmp"

    def __init__(self, seed: int = 0):
        super().__init__(seed)
        self.salt = self.rng.getrandbits(64)
        self._cum_weights: tuple[float, ...] | None = None
        self._rates_key: tuple[float, ...] | None = None

    def _weights_for(self, ports: Sequence["Port"]) -> tuple[float, ...]:
        rates = tuple([p._rate for p in ports])
        if rates != self._rates_key:
            self._rates_key = rates
            self._cum_weights = tuple(accumulate(rates))
        return self._cum_weights

    def select_port(self, pkt: "Packet", ports: Sequence["Port"]) -> "Port":
        c = self.counters
        c.decisions += 1
        c.hash_ops += 1
        cum = self._weights_for(ports)
        key = (pkt.flow_id << 1) | pkt.is_ack
        h = ((key * _GOLDEN) ^ self.salt) & _MASK
        h ^= h >> 33
        point = (h / _MASK) * cum[-1]
        idx = min(bisect_right(cum, point), len(ports) - 1)
        return ports[idx]
