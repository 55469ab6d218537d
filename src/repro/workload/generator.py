"""Workload installation: turn flow lists into scheduled senders.

A workload is a flow list: every scenario kind of
:mod:`repro.workload.scenarios` builds a ``list[Flow]`` for
:func:`install_flows`.  This module holds that installer and the draws
the paper's two traffic shapes are made of:

* :func:`static_flows` — the §2.2/§4.2/§6.1 microbenchmark (the
  ``static`` kind): a fixed number of long flows starting at t=0 from
  leaf-0 senders, plus a fixed number of short flows arriving as a
  Poisson stream, all towards leaf-1 receivers;
* the §6.2 pair process (the ``poisson`` kind and its family): flows
  arrive by a Poisson process between random host pairs on different
  leaves, with sizes from a heavy-tailed distribution and the aggregate
  rate set by a target load.

:class:`StaticWorkload` and :class:`PoissonWorkload` run the ``static``
and bare ``poisson`` draws from explicit parameters (a distribution
object, a flow-id base) instead of a config.  Every random quantity
comes from named RNG streams of the network's registry, so workloads are
identical across schemes compared at the same seed (paired comparisons).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Type

import numpy as np

from repro.errors import ConfigError
from repro.net.topology import Network
from repro.transport.dctcp import DctcpSender
from repro.transport.flow import Flow, FlowRegistry
from repro.transport.receiver import make_listener
from repro.transport.tcp import TcpConfig, TcpSender
from repro.units import KB, MB
from repro.workload.deadlines import UniformDeadlines
from repro.workload.distributions import FlowSizeDistribution, UniformSize

__all__ = ["WorkloadResult", "install_flows", "arrival_rate", "poisson_arrivals",
           "cross_leaf_pairs", "make_flows", "static_flows",
           "PoissonWorkload", "StaticWorkload"]


@dataclass
class WorkloadResult:
    """What a generator installed: the flows and their senders."""

    flows: list[Flow] = field(default_factory=list)
    senders: dict[int, TcpSender] = field(default_factory=dict)

    def merge(self, other: "WorkloadResult") -> "WorkloadResult":
        """Fold another generator's result into this one.

        ``senders`` is keyed by flow id, so two generators composed with
        overlapping ``flow_id_base`` ranges would silently drop senders
        on a plain dict update; composition must allocate disjoint id
        ranges, and any overlap here is a configuration bug.
        """
        overlap = self.senders.keys() & other.senders.keys()
        if overlap:
            shown = sorted(overlap)[:5]
            raise ConfigError(
                f"composed workloads reuse {len(overlap)} flow id(s)"
                f" (e.g. {shown}); give each generator a disjoint"
                " flow_id_base range")
        self.flows.extend(other.flows)
        self.senders.update(other.senders)
        return self

    @property
    def n_flows(self) -> int:
        return len(self.flows)

    @property
    def last_arrival(self) -> float:
        """Latest flow start time (0 if empty)."""
        return max((f.start_time for f in self.flows), default=0.0)

    @property
    def total_bytes(self) -> int:
        return sum(f.size for f in self.flows)


def install_flows(
    net: Network,
    registry: FlowRegistry,
    flows: Iterable[Flow],
    sender_cls: Type[TcpSender] = DctcpSender,
    tcp_config: Optional[TcpConfig] = None,
) -> WorkloadResult:
    """Register ``flows``, create their senders, schedule their starts —
    the one installer behind every workload's ``install()``."""
    listener = make_listener(net.sim, registry)
    for host in net.hosts.values():
        if host.listener is None:
            host.set_listener(listener)
    result = WorkloadResult()
    for flow in flows:
        if flow.id in result.senders:
            raise ConfigError(
                f"duplicate flow id {flow.id} in one workload; generators"
                " composed into one result need disjoint flow_id_base ranges")
        stats = registry.add(flow)
        sender = sender_cls(net.sim, net.hosts[flow.src], flow, stats, tcp_config)
        net.sim.schedule(flow.start_time, sender.start)
        result.flows.append(flow)
        result.senders[flow.id] = sender
    return result


# --- the §6.2 pair process -------------------------------------------------

def arrival_rate(net: Network, load: float, mean_size: float) -> float:
    """Flow arrivals per second that offer ``load`` (a fraction of the
    aggregate leaf→spine capacity) at ``mean_size`` bytes per flow."""
    cfg = net.config
    fabric_bps = cfg.effective_fabric_rate * cfg.n_leaves * cfg.n_spines
    return load * fabric_bps / (8.0 * mean_size)


def poisson_arrivals(rng, lam: float, n: int) -> np.ndarray:
    """``n`` arrival times of a rate-``lam`` Poisson process from t=0."""
    if lam <= 0:
        raise ConfigError(f"non-positive arrival rate {lam!r}")
    return np.cumsum(rng.exponential(1.0 / lam, size=n))


def cross_leaf_pairs(net: Network, rng, n: int) -> list[tuple[str, str]]:
    """Uniform random host pairs that always cross leaves (the paper's
    multi-path setting; intra-leaf draws are redrawn)."""
    hosts = [h.name for h in net.host_list()]
    leaf_of = net.leaf_of
    pairs = []
    for _ in range(n):
        src = hosts[int(rng.integers(len(hosts)))]
        dst = hosts[int(rng.integers(len(hosts)))]
        while leaf_of[dst] == leaf_of[src]:
            dst = hosts[int(rng.integers(len(hosts)))]
        pairs.append((src, dst))
    return pairs


def make_flows(
    base_id: int,
    pairs: Sequence[tuple[str, str]],
    sizes: Sequence[int],
    arrivals: Sequence[float],
    deadlines: Sequence[Optional[float]],
) -> list[Flow]:
    """Zip per-flow draws into flows with ids contiguous from ``base_id``."""
    return [
        Flow(id=base_id + i, src=src, dst=dst, size=int(sizes[i]),
             start_time=float(arrivals[i]), deadline=deadlines[i])
        for i, (src, dst) in enumerate(pairs)
    ]


def static_flows(
    net: Network,
    *,
    n_short: int,
    n_long: int,
    short_sizes: FlowSizeDistribution,
    long_size: int,
    short_window: float,
    deadlines: UniformDeadlines,
    distinct_hosts: bool = False,
    base_id: int = 0,
    stream_prefix: str = "workload",
) -> list[Flow]:
    """The §2.2/§4.2/§6.1 microbenchmark: ``n_long`` long flows at t=0 +
    ``n_short`` short flows arriving Poisson over ``short_window``.

    Senders are the hosts under the first leaf, receivers the hosts under
    the second (the §2.2 picture: all traffic crosses the spine tier).
    Flow endpoints are drawn uniformly per flow.  ``distinct_hosts=True``
    gives every flow its own sender and its own receiver ("each sender
    sends a DCTCP flow to a receiver", §2.2/§4.2) so no two flows share
    an edge link — congestion then happens only in the fabric, where the
    load balancer acts.  It needs ``n_short + n_long`` hosts per leaf.
    """
    _check_static(net, n_short, n_long, short_window, distinct_hosts)
    senders_pool = [h.name for h in net.hosts_under(net.leaves[0])]
    receivers_pool = [h.name for h in net.hosts_under(net.leaves[1])]
    rng_sizes = net.rngs.stream(f"{stream_prefix}.sizes")
    rng_arrivals = net.rngs.stream(f"{stream_prefix}.arrivals")
    rng_pairs = net.rngs.stream(f"{stream_prefix}.pairs")
    rng_deadlines = net.rngs.stream(f"{stream_prefix}.deadlines")

    n_flows = n_long + n_short
    if distinct_hosts:
        src_order = rng_pairs.permutation(len(senders_pool))[:n_flows]
        dst_order = rng_pairs.permutation(len(receivers_pool))[:n_flows]
        pairs = [(senders_pool[int(si)], receivers_pool[int(di)])
                 for si, di in zip(src_order, dst_order)]
    else:
        pairs = [
            (senders_pool[int(rng_pairs.integers(len(senders_pool)))],
             receivers_pool[int(rng_pairs.integers(len(receivers_pool)))])
            for _ in range(n_flows)
        ]

    # Long flows first, all at t=0 and deadline-free; the short flows
    # follow as a Poisson stream over ``short_window``.
    flows = make_flows(base_id, pairs[:n_long], [int(long_size)] * n_long,
                       [0.0] * n_long, [None] * n_long)
    if n_short:
        sizes = short_sizes.sample(rng_sizes, n_short)
        short_deadlines = deadlines.assign(rng_deadlines, sizes)
        gaps = rng_arrivals.exponential(short_window / n_short, size=n_short)
        flows += make_flows(base_id + n_long, pairs[n_long:], sizes,
                            np.cumsum(gaps), short_deadlines)
    return flows


def _check_static(net: Network, n_short: int, n_long: int,
                 short_window: float, distinct_hosts: bool) -> None:
    """Reject a microbenchmark :func:`static_flows` cannot draw."""
    if n_short < 0 or n_long < 0:
        raise ConfigError("flow counts must be non-negative")
    if n_short + n_long == 0:
        raise ConfigError("workload needs at least one flow")
    if short_window <= 0:
        raise ConfigError("short_window must be positive")
    if len(net.leaves) < 2:
        raise ConfigError("static workload needs at least two leaves")
    if distinct_hosts and n_short + n_long > net.config.hosts_per_leaf:
        raise ConfigError(
            f"distinct_hosts needs {n_short + n_long} hosts per leaf, "
            f"fabric has {net.config.hosts_per_leaf}"
        )


class StaticWorkload:
    """:func:`static_flows` from explicit parameters rather than a config
    — the ``static`` scenario kind's draws, for callers that build a
    fabric by hand.  Defaults are the paper's: short sizes uniform
    [40 KB, 100 KB], long flows 10 MB, deadlines U[5 ms, 25 ms]."""

    def __init__(
        self,
        net: Network,
        registry: FlowRegistry,
        *,
        n_short: int = 100,
        n_long: int = 3,
        short_sizes: Optional[FlowSizeDistribution] = None,
        long_size: int = MB(10),
        short_window: float = 0.05,
        deadlines: Optional[UniformDeadlines] = None,
        sender_cls: Type[TcpSender] = DctcpSender,
        tcp_config: Optional[TcpConfig] = None,
        flow_id_base: int = 0,
        distinct_hosts: bool = False,
    ):
        _check_static(net, n_short, n_long, short_window, distinct_hosts)
        self.net = net
        self.registry = registry
        self.params = dict(
            n_short=n_short, n_long=n_long,
            short_sizes=short_sizes if short_sizes is not None
            else UniformSize(KB(40), KB(100)),
            long_size=long_size, short_window=float(short_window),
            deadlines=deadlines if deadlines is not None else UniformDeadlines(),
            distinct_hosts=distinct_hosts, base_id=int(flow_id_base))
        self.sender_cls = sender_cls
        self.tcp_config = tcp_config

    def install(self) -> WorkloadResult:
        """Register flows, create senders, schedule starts."""
        return install_flows(self.net, self.registry,
                             static_flows(self.net, **self.params),
                             self.sender_cls, self.tcp_config)


class PoissonWorkload:
    """Bare ``poisson``'s flows from an explicit size distribution rather
    than a config: it draws exactly what ``run_scenario`` installs for
    ``workload="poisson"`` (the ``poisson`` kind's pair process on the
    ``workload.*`` streams), so a caller can generate a cell's flows
    without simulating it.

    ``load`` is the offered fraction of the aggregate *fabric* (leaf→
    spine) capacity — the tier where the multi-path decision happens and
    the paper's bottleneck (its 256-host fabric is 4:1 oversubscribed, so
    "workload 0.8" can only refer to the spine tier).  Exactly
    ``n_flows`` flows are generated.
    """

    def __init__(
        self,
        net: Network,
        registry: FlowRegistry,
        *,
        sizes: FlowSizeDistribution,
        load: float,
        n_flows: int,
        deadlines: Optional[UniformDeadlines] = None,
        sender_cls: Type[TcpSender] = DctcpSender,
        tcp_config: Optional[TcpConfig] = None,
        flow_id_base: int = 0,
    ):
        # the scenario module imports this one, so it is bound here
        from repro.workload.scenarios import PoissonScenario

        # the kind's parameter rows check load and n_flows
        self.scenario = PoissonScenario(load=float(load), flows=int(n_flows))
        self.net = net
        self.registry = registry
        self.sizes = sizes
        self.deadlines = deadlines if deadlines is not None else UniformDeadlines()
        self.sender_cls = sender_cls
        self.tcp_config = tcp_config
        self.flow_id_base = int(flow_id_base)

    def arrival_rate(self) -> float:
        """Flow arrivals per second implied by the target load."""
        return arrival_rate(self.net, self.scenario.load, self.sizes.mean())

    def install(self) -> WorkloadResult:
        """Register flows, create senders, schedule starts."""
        flows = self.scenario.draw(
            self.net, None, self.sizes, self.deadlines, self.scenario.flows,
            base_id=self.flow_id_base, stream_prefix="workload")
        return install_flows(self.net, self.registry, flows,
                             self.sender_cls, self.tcp_config)
