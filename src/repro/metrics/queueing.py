"""Queueing metrics from the trace stream (Figs. 3a, 8b).

The port layer emits ``enqueue`` trace points carrying the queue length
the packet found, and ``dequeue`` points carrying the time it waited.
These helpers slice that stream by flow class (using the registry's
ground-truth sizes) and produce the paper's quantities:

* Fig. 3a — CDF of queue length experienced by short-flow packets;
* Fig. 8b — time series of average queueing delay of short flows.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.metrics.fct import is_short
from repro.metrics.timeseries import BinnedSeries
from repro.sim.trace import RecordingTracer
from repro.transport.flow import FlowRegistry
from repro.units import KB, milliseconds

__all__ = ["queue_length_samples", "queue_wait_series", "queue_wait_samples",
           "empirical_cdf"]


def _flow_is_short(registry: FlowRegistry, flow_id: int, threshold: int) -> bool:
    return is_short(registry.flow(flow_id).size, threshold)


def queue_length_samples(
    tracer: RecordingTracer,
    registry: FlowRegistry,
    *,
    short: Optional[bool] = None,
    short_threshold: int = KB(100),
    port_prefix: Optional[str] = None,
    include_acks: bool = False,
) -> np.ndarray:
    """Queue lengths (packets) seen at enqueue by the selected packets.

    Parameters
    ----------
    short:
        ``True`` → only short-flow packets, ``False`` → only long,
        ``None`` → all.
    port_prefix:
        Restrict to ports whose name starts with this (e.g. ``"leaf0->"``
        for the sender-side uplinks, where the LB decision happens).
    include_acks:
        ACK-direction packets are excluded by default: the paper's
        queue-length CDFs are about data packets.
    """
    out: list[int] = []
    for rec in tracer.of_kind("enqueue"):
        f = rec.fields
        if not include_acks and f.get("is_ack"):
            continue
        if port_prefix is not None and not f["port"].startswith(port_prefix):
            continue
        if short is not None and _flow_is_short(
                registry, f["flow"], short_threshold) != short:
            continue
        out.append(f["qlen"])
    return np.asarray(out, dtype=np.int64)


def queue_wait_samples(
    tracer: RecordingTracer,
    registry: FlowRegistry,
    *,
    short: Optional[bool] = None,
    short_threshold: int = KB(100),
    port_prefix: Optional[str] = None,
    include_acks: bool = False,
) -> np.ndarray:
    """Per-packet queue waiting times (seconds) from dequeue records."""
    out: list[float] = []
    for rec in tracer.of_kind("dequeue"):
        f = rec.fields
        if not include_acks and f.get("is_ack"):
            continue
        if port_prefix is not None and not f["port"].startswith(port_prefix):
            continue
        if short is not None and _flow_is_short(
                registry, f["flow"], short_threshold) != short:
            continue
        out.append(f["wait"])
    return np.asarray(out, dtype=float)


def queue_wait_series(
    tracer: RecordingTracer,
    registry: FlowRegistry,
    *,
    bin_width: float = milliseconds(10),
    short: Optional[bool] = True,
    short_threshold: int = KB(100),
    port_prefix: Optional[str] = None,
) -> BinnedSeries:
    """Binned mean queueing delay over time (Fig. 8b)."""
    series = BinnedSeries(bin_width)
    for rec in tracer.of_kind("dequeue"):
        f = rec.fields
        if f.get("is_ack"):
            continue
        if port_prefix is not None and not f["port"].startswith(port_prefix):
            continue
        if short is not None and _flow_is_short(
                registry, f["flow"], short_threshold) != short:
            continue
        series.add(rec.time, f["wait"])
    return series


def empirical_cdf(values: Iterable[float]) -> tuple[np.ndarray, np.ndarray]:
    """Sorted values and cumulative probabilities (for CDF plots)."""
    arr = np.sort(np.asarray(list(values), dtype=float))
    if arr.size == 0:
        return arr, arr
    return arr, np.arange(1, arr.size + 1) / arr.size
