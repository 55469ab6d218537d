"""Hermes-lite: cautious, sent-bytes-gated rerouting (Zhang et al. 2017).

The paper contrasts TLB with Hermes (§8): Hermes reroutes a flow only
after it has sent more than a threshold of bytes, and only when the
rerouting is judged beneficial — otherwise flows follow their initial
(hash-style) assignment.  This simplified local version captures those
two gates:

* a flow younger than ``reroute_threshold`` bytes never moves
  (so short flows are effectively ECMP-balanced — the behaviour the
  paper criticises: they cannot dodge elephants);
* an eligible flow moves only when its current queue exceeds the best
  queue by at least ``benefit_margin`` packets, and at most once per
  ``cooldown_bytes`` (cautious rerouting).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.errors import SchemeError
from repro.lb.base import LoadBalancer, shortest_queue_index
from repro.units import KB

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import Packet
    from repro.net.port import Port

__all__ = ["HermesLiteBalancer"]


class HermesLiteBalancer(LoadBalancer):
    """Cautious rerouting: move only mature flows, only when clearly better."""

    name = "hermes"

    def __init__(
        self,
        seed: int = 0,
        reroute_threshold: int = KB(100),
        benefit_margin: int = 4,
        cooldown_bytes: int = KB(64),
    ):
        super().__init__(seed)
        if reroute_threshold < 0 or cooldown_bytes < 0:
            raise SchemeError("thresholds must be non-negative")
        if benefit_margin < 1:
            raise SchemeError("benefit_margin must be >= 1 packet")
        self.reroute_threshold = int(reroute_threshold)
        self.benefit_margin = int(benefit_margin)
        self.cooldown_bytes = int(cooldown_bytes)
        #: lb_key -> [port_idx, bytes_sent, bytes_since_reroute]
        self._flows: dict[tuple[int, bool], list[int]] = {}

    def select_port(self, pkt: "Packet", ports: Sequence["Port"]) -> "Port":
        c = self.counters
        c.decisions += 1
        c.state_reads += 1
        key = pkt.lb_key()
        entry = self._flows.get(key)
        if entry is None:
            c.rng_draws += 1
            entry = [self.rng.randrange(len(ports)), 0, 0]
            self._flows[key] = entry
            c.note_entries(len(self._flows))
        entry[1] += pkt.size
        entry[2] += pkt.size
        idx = entry[0] % len(ports)
        if (
            entry[1] > self.reroute_threshold
            and entry[2] > self.cooldown_bytes
        ):
            c.queue_reads += len(ports) + 1
            best = shortest_queue_index(ports)
            if (len(ports[idx]._queue)
                    >= len(ports[best]._queue) + self.benefit_margin):
                entry[0] = best
                entry[2] = 0
                idx = best
        c.state_writes += 1
        if pkt.ends_flow:
            self._flows.pop(key, None)
        return ports[idx]

    def state_entries(self) -> int:
        return len(self._flows)
