"""Partition–aggregate (incast) workloads.

The paper motivates TLB with OLDI applications — web search, social
networking — whose request fan-out creates the classic *incast* pattern:
an aggregator host queries N workers, every worker answers with a small
response almost simultaneously, and the slowest response determines the
request's completion time.  This generator builds that pattern on a
fabric so the examples can study how load balancing interacts with
fan-in bursts (the answer: barely at the last hop — incast congests the
aggregator's edge link — but path choice still matters for the
cross-fabric legs, and long background flows can poison them).

A request's flows all start within a small jitter window; the request
completes when the last response lands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Type

import numpy as np

from repro.errors import ConfigError
from repro.net.topology import Network
from repro.transport.dctcp import DctcpSender
from repro.transport.flow import Flow, FlowRegistry
from repro.transport.tcp import TcpConfig, TcpSender
from repro.units import KB
from repro.workload.generator import WorkloadResult, install_flows

__all__ = ["IncastRequest", "IncastWorkload", "request_completion_times"]


@dataclass
class IncastRequest:
    """One partition–aggregate request: N worker responses to one host."""

    request_id: int
    aggregator: str
    start_time: float
    flow_ids: list[int] = field(default_factory=list)


class IncastWorkload:
    """Repeated fan-in requests from workers on one leaf to aggregators
    on another.

    Parameters
    ----------
    net, registry:
        Fabric and flow registry.
    n_requests:
        How many requests to issue.
    fanout:
        Workers per request (each contributes one response flow).
    response_size:
        Bytes per worker response (the classic OLDI answer is tens of kB).
    request_interval:
        Mean gap between request launches (exponential).
    jitter:
        Worker responses start uniformly within ``[0, jitter]`` of the
        request epoch (computation-time skew).
    deadline:
        Optional per-response deadline (OLDI requests carry SLAs).
    """

    def __init__(
        self,
        net: Network,
        registry: FlowRegistry,
        *,
        n_requests: int = 10,
        fanout: int = 8,
        response_size: int = KB(32),
        request_interval: float = 0.010,
        jitter: float = 0.0005,
        deadline: Optional[float] = None,
        sender_cls: Type[TcpSender] = DctcpSender,
        tcp_config: Optional[TcpConfig] = None,
        flow_id_base: int = 0,
    ):
        if n_requests < 1 or fanout < 1:
            raise ConfigError("n_requests and fanout must be >= 1")
        if response_size < 1:
            raise ConfigError("response_size must be >= 1 byte")
        if request_interval <= 0 or jitter < 0:
            raise ConfigError("request_interval must be > 0 and jitter >= 0")
        if len(net.leaves) < 2:
            raise ConfigError("IncastWorkload needs at least two leaves")
        workers = net.hosts_under(net.leaves[0])
        if len(workers) < fanout:
            raise ConfigError(
                f"fanout {fanout} exceeds the {len(workers)} workers on "
                f"{net.leaves[0].name}")
        self.net = net
        self.registry = registry
        self.n_requests = int(n_requests)
        self.fanout = int(fanout)
        self.response_size = int(response_size)
        self.request_interval = float(request_interval)
        self.jitter = float(jitter)
        self.deadline = deadline
        self.sender_cls = sender_cls
        self.tcp_config = tcp_config
        self.flow_id_base = int(flow_id_base)
        self.requests: list[IncastRequest] = []

    def install(self) -> WorkloadResult:
        """Register all requests' response flows and schedule them."""
        net = self.net
        workers = [h.name for h in net.hosts_under(net.leaves[0])]
        aggregators = [h.name for h in net.hosts_under(net.leaves[1])]
        rng = net.rngs.stream("workload.incast")

        flows = []
        fid = self.flow_id_base
        epoch = 0.0
        for rid in range(self.n_requests):
            epoch += float(rng.exponential(self.request_interval))
            agg = aggregators[int(rng.integers(len(aggregators)))]
            req = IncastRequest(rid, agg, epoch)
            chosen = rng.permutation(len(workers))[: self.fanout]
            for w in chosen:
                start = epoch + float(rng.uniform(0.0, self.jitter))
                flows.append(Flow(id=fid, src=workers[int(w)], dst=agg,
                                  size=self.response_size, start_time=start,
                                  deadline=self.deadline))
                req.flow_ids.append(fid)
                fid += 1
            self.requests.append(req)
        return install_flows(net, self.registry, flows, self.sender_cls,
                             self.tcp_config)


def request_completion_times(
    workload: IncastWorkload, registry: FlowRegistry
) -> np.ndarray:
    """Per-request completion times (last response landed − request epoch).

    Unfinished requests contribute NaN.
    """
    out = []
    for req in workload.requests:
        finishes = [registry.stats(fid).completed for fid in req.flow_ids]
        if any(f is None for f in finishes):
            out.append(float("nan"))
        else:
            out.append(max(finishes) - req.start_time)
    return np.asarray(out, dtype=float)
