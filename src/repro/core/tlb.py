"""TLB's forwarding manager — the switch data path (paper §3, Fig. 6).

Per packet:

* **short flows** (and all not-yet-classified flows) are forwarded to the
  output port with the shortest queue, per packet — they "flexibly seize
  the fast paths";
* **long flows** stick to their current port until that port's queue
  length reaches the switching threshold ``q_th``; only then do they move
  to the shortest queue.  ``q_th`` is recomputed every update interval by
  the :class:`~repro.core.granularity_calculator.GranularityCalculator`
  from the measured short-flow load.

The balancer also performs the paper's §5 bookkeeping: SYN/FIN flow
counting, byte-based short/long classification, deadline-statistics
collection from SYNs, and the periodic idle-flow sampling pass.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro.core.config import TlbConfig
from repro.core.flow_table import FlowEntry, FlowTable
from repro.core.granularity_calculator import GranularityCalculator
from repro.core.load_estimator import DeadlineStats, EmaEstimator, LoadEstimator
from repro.lb.base import LoadBalancer, shortest_queue_index
from repro.lb.registry import register_scheme
from repro.sim.timers import PeriodicTimer

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import Packet
    from repro.net.port import Port
    from repro.net.switch import Switch
    from repro.net.topology import Network

__all__ = ["TlbBalancer"]


class TlbBalancer(LoadBalancer):
    """Traffic-aware load balancing with adaptive granularity."""

    name = "tlb"

    def __init__(
        self,
        seed: int = 0,
        config: Optional[TlbConfig] = None,
        *,
        n_paths: int,
        link_rate: float,
        buffer_packets: int,
    ):
        super().__init__(seed)
        self.config = config if config is not None else TlbConfig()
        cfg = self.config
        self.size_estimator = EmaEstimator(cfg.size_ema_gain, cfg.default_short_size)
        self.deadline_stats = DeadlineStats(
            cfg.deadline_percentile, cfg.default_deadline, cfg.deadline_window
        )
        self.load = LoadEstimator(cfg.update_interval)
        self.table = FlowTable(cfg.long_threshold_bytes, self._on_short_flow_end)
        self.calculator = GranularityCalculator(cfg, n_paths, link_rate, buffer_packets)
        self.qth = cfg.fixed_qth if cfg.fixed_qth is not None else cfg.min_qth
        self._timer: Optional[PeriodicTimer] = None
        self.long_reroutes = 0
        #: regime of the latest q_th decision ("fixed" until the first
        #: tick, or when fixed_qth pins the threshold) — stamped onto
        #: reroute trace records so span timelines can say which
        #: granularity regime triggered a path move
        self.last_regime: str = "fixed"

    # -- lifecycle ---------------------------------------------------------

    def on_bind(self) -> None:
        self._timer = PeriodicTimer(
            self.switch.sim, self.config.update_interval, self._tick
        )

    def stop(self) -> None:
        """Cancel the periodic timer (lets a finished sim drain)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    # -- estimator plumbing -------------------------------------------------

    def _on_short_flow_end(self, entry: FlowEntry) -> None:
        # Entry bytes are wire bytes of a completed/evicted *short* flow —
        # a sample for the model's mean short size X.  Skip ACK-direction
        # pseudo-flows: their byte counts say nothing about data sizes.
        if entry.bytes_seen > 0 and not entry.key[1]:
            self.size_estimator.update(entry.bytes_seen)

    def _tick(self) -> None:
        c = self.counters
        c.timer_ticks += 1
        now = self.switch.sim.now
        self.table.evict_idle(now, self.config.update_interval)
        self.load.roll()
        if self.config.fixed_qth is not None:
            return
        decision = self.calculator.compute(
            self.table.m_short,
            self.table.m_long,
            self.size_estimator.value,
            self.deadline_stats.value(),
        )
        self.qth = decision.qth
        self.last_regime = decision.regime
        # The decision audit (flight recorder, spans) rides the trace
        # stream; the switch's sink is absent on doubles.
        tracer = getattr(self.switch, "tracer", None)
        if tracer is not None and tracer.enabled:
            tracer.emit(now, "qth", node=self.switch.name, **decision.as_dict(),
                        load_bps=self.load.rate_bps)

    # -- the data path -------------------------------------------------------

    def select_port(self, pkt: "Packet", ports: Sequence["Port"]) -> "Port":
        # Once per packet at every source leaf, so the helpers it used to
        # call are written out in place — Packet.lb_key / starts_flow /
        # ends_flow, FlowTable.observe, LbCounters.note_entries and
        # LoadEstimator.account — with every counter they kept.
        c = self.counters
        c.decisions += 1
        now = self.switch.sim._now
        is_ack = pkt.is_ack
        key = (pkt.flow_id, is_ack)
        size = pkt.size
        deadline = pkt.deadline

        c.state_reads += 1
        table = self.table
        entries = table._entries
        entry = entries.get(key)
        if entry is None:
            entry = entries[key] = FlowEntry(key, now)
            table.n_short += 1
        entry.bytes_seen += size
        entry.last_seen = now
        if deadline is not None:
            entry.deadline = deadline
        is_long = entry.is_long
        if not is_long and entry.bytes_seen > table.long_threshold:
            is_long = entry.is_long = True
            table.n_short -= 1
            table.n_long += 1
            table.promotions += 1
        c.state_writes += 1
        if len(entries) > c.peak_entries:
            c.peak_entries = len(entries)
        if (
            deadline is not None
            and pkt.syn
            and not is_ack
            and self.config.use_deadline_info
        ):
            self.deadline_stats.observe(deadline)

        n = len(ports)
        if is_long:
            idx = entry.port_idx
            if idx < 0 or idx >= n:
                # First decision as a long flow: place it once.
                c.queue_reads += n
                idx = shortest_queue_index(ports)
            else:
                c.queue_reads += 1
                if len(ports[idx]._queue) >= self.qth:
                    c.queue_reads += n
                    new_idx = shortest_queue_index(ports)
                    if new_idx != idx:
                        self.long_reroutes += 1
                        # Trace via the switch's sink (absent on doubles).
                        tracer = getattr(self.switch, "tracer", None)
                        if tracer is not None and tracer.enabled:
                            tracer.emit(
                                now, "reroute", node=self.switch.name,
                                flow=pkt.flow_id, from_port=idx, to_port=new_idx,
                                qlen=ports[idx].queue_length, qth=self.qth,
                                regime=self.last_regime,
                            )
                    idx = new_idx
        else:
            load = self.load
            load._bytes += size
            load._packets += 1
            if self.config.short_policy == "shortest_queue":
                c.queue_reads += n
                idx = shortest_queue_index(ports)
            else:
                idx = self._short_pick(entry, ports, c)
        entry.port_idx = idx

        if pkt.fin and not is_ack:
            table.remove(key)
        return ports[idx]

    def _short_pick(self, entry, ports, c) -> int:
        """Short-flow path choice under the ablation policies (the
        default, shortest queue, is decided in :meth:`select_port`)."""
        n = len(ports)
        if self.config.short_policy == "random":
            c.rng_draws += 1
            return self.rng.randrange(n)
        # "hash": pin the flow to its first (seed-random) choice.
        if 0 <= entry.port_idx < n:
            return entry.port_idx
        c.rng_draws += 1
        return self.rng.randrange(n)

    def state_entries(self) -> int:
        return len(self.table)


def _tlb_factory(seed: int, net: "Network", switch: "Switch", params: dict) -> TlbBalancer:
    """Registry factory: derives fabric parameters from the network.

    Accepts ``config=TlbConfig(...)`` or individual :class:`TlbConfig`
    field overrides as keyword params (e.g. ``fixed_qth=40``,
    ``deadline_percentile=75``).
    """
    config: Optional[TlbConfig] = params.pop("config", None)
    if config is None:
        base = TlbConfig(rtt=net.config.rtt)
        config = base.scaled(**params) if params else base
    elif params:
        config = config.scaled(**params)
    # The model's n is THIS switch's equal-cost degree — the spine count
    # on a leaf, but e.g. only k/2 aggregation uplinks on a fat-tree edge.
    n_paths = max(
        (len(ports) for ports in switch.routes.values()),
        default=net.config.n_paths,
    )
    return TlbBalancer(
        seed,
        config,
        n_paths=n_paths,
        link_rate=net.config.effective_fabric_rate,
        buffer_packets=net.config.buffer_packets,
    )


register_scheme("tlb", _tlb_factory)
