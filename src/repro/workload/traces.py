"""Flow-trace I/O: save and replay workloads as CSV.

A trace row is ``flow_id,src,dst,size_bytes,start_time_s,deadline_s``
(deadline empty for throughput-oriented flows).  Traces make experiments
portable: generate once (or convert a production trace), replay under
every scheme, diff the metrics.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Optional, Type

from repro.errors import ConfigError
from repro.net.topology import Network
from repro.transport.dctcp import DctcpSender
from repro.transport.flow import Flow, FlowRegistry
from repro.transport.tcp import TcpConfig, TcpSender
from repro.workload.generator import WorkloadResult, install_flows

__all__ = ["write_trace", "read_trace", "TraceWorkload"]

_FIELDS = ("flow_id", "src", "dst", "size_bytes", "start_time_s", "deadline_s")


def write_trace(path: str | Path, flows: Iterable[Flow]) -> Path:
    """Serialise flows to a trace CSV (sorted by start time)."""
    path = Path(path)
    rows = sorted(flows, key=lambda f: (f.start_time, f.id))
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_FIELDS)
        for f in rows:
            writer.writerow([
                f.id, f.src, f.dst, f.size, repr(f.start_time),
                "" if f.deadline is None else repr(f.deadline),
            ])
    return path


def read_trace(path: str | Path) -> list[Flow]:
    """Parse a trace CSV back into flows.

    Raises :class:`ConfigError` on malformed rows (missing columns, bad
    numbers) with the offending line number.
    """
    path = Path(path)
    flows: list[Flow] = []
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(_FIELDS) - set(reader.fieldnames or ())
        if missing:
            raise ConfigError(f"{path}: trace is missing columns {sorted(missing)}")
        for lineno, row in enumerate(reader, start=2):
            try:
                deadline = row["deadline_s"].strip()
                flows.append(Flow(
                    id=int(row["flow_id"]),
                    src=row["src"],
                    dst=row["dst"],
                    size=int(row["size_bytes"]),
                    start_time=float(row["start_time_s"]),
                    deadline=float(deadline) if deadline else None,
                ))
            except (KeyError, ValueError, ConfigError) as exc:
                raise ConfigError(f"{path}:{lineno}: bad trace row: {exc}") from exc
    return flows


class TraceWorkload:
    """Replay a list of flows (from :func:`read_trace` or built in code).

    Hosts referenced by the trace must exist in the network.
    """

    def __init__(
        self,
        net: Network,
        registry: FlowRegistry,
        flows: list[Flow],
        *,
        sender_cls: Type[TcpSender] = DctcpSender,
        tcp_config: Optional[TcpConfig] = None,
    ):
        if not flows:
            raise ConfigError("trace contains no flows")
        unknown = {f.src for f in flows} | {f.dst for f in flows}
        unknown -= set(net.hosts)
        if unknown:
            raise ConfigError(f"trace references unknown hosts: {sorted(unknown)[:5]}")
        self.net = net
        self.registry = registry
        self.flows = flows
        self.sender_cls = sender_cls
        self.tcp_config = tcp_config

    def install(self) -> WorkloadResult:
        """Register and schedule every flow of the trace."""
        return install_flows(self.net, self.registry, self.flows,
                             self.sender_cls, self.tcp_config)
