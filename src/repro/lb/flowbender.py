"""FlowBender-lite: congestion-triggered per-flow rehashing.

FlowBender (Kabbani et al., CoNEXT 2014 — the paper's §8 related work)
reroutes a *whole flow* when it detects sustained congestion on its
path, by perturbing the ECMP hash.  The original detects congestion from
end-host ECN feedback; this switch-local adaptation watches the flow's
current output queue instead: if the queue exceeds a threshold for more
than ``patience`` consecutive packets of the flow, the flow is re-hashed
to a different port.  Flow-level (no reordering between rehashes), but
congestion-responsive — a useful midpoint between ECMP and LetFlow in
the baseline set.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.errors import SchemeError
from repro.lb.base import LoadBalancer

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import Packet
    from repro.net.port import Port

__all__ = ["FlowBenderLiteBalancer"]


class FlowBenderLiteBalancer(LoadBalancer):
    """Rehash a flow after sustained congestion on its current port."""

    name = "flowbender"

    def __init__(self, seed: int = 0, congestion_threshold: int = 20,
                 patience: int = 8):
        super().__init__(seed)
        if congestion_threshold < 1:
            raise SchemeError("congestion_threshold must be >= 1 packet")
        if patience < 1:
            raise SchemeError("patience must be >= 1 packet")
        self.congestion_threshold = int(congestion_threshold)
        self.patience = int(patience)
        #: lb_key -> [port_idx, consecutive_congested_packets]
        self._flows: dict[tuple[int, bool], list[int]] = {}
        self.rehashes = 0

    def select_port(self, pkt: "Packet", ports: Sequence["Port"]) -> "Port":
        c = self.counters
        c.decisions += 1
        c.state_reads += 1
        key = pkt.lb_key()
        entry = self._flows.get(key)
        n = len(ports)
        if entry is None:
            c.rng_draws += 1
            entry = [self.rng.randrange(n), 0]
            self._flows[key] = entry
            c.note_entries(len(self._flows))
        idx = entry[0] % n
        c.queue_reads += 1
        if len(ports[idx]._queue) >= self.congestion_threshold:
            entry[1] += 1
            if entry[1] >= self.patience:
                # Rehash away from the congested port (never back to it).
                c.rng_draws += 1
                new_idx = self.rng.randrange(n - 1) if n > 1 else 0
                if new_idx >= idx:
                    new_idx += 1
                entry[0] = new_idx
                entry[1] = 0
                self.rehashes += 1
                idx = new_idx % n
        else:
            entry[1] = 0
        c.state_writes += 1
        if pkt.ends_flow:
            self._flows.pop(key, None)
        return ports[idx]

    def state_entries(self) -> int:
        return len(self._flows)
