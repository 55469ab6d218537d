"""Measurement: everything the paper's figures plot.

Post-run aggregates (FCT percentiles, deadline misses, goodputs,
reordering ratios, utilisation) are computed from
:class:`~repro.transport.flow.FlowStats` records and
:class:`~repro.net.port.PortStats`; live time series (instantaneous
throughput, dup-ACK rate, queueing delay) come from registry
subscriptions and the trace stream, binned by
:class:`~repro.metrics.timeseries.BinnedSeries`.
"""

from repro.metrics.timeseries import BinnedSeries
from repro.metrics.fct import FctSummary, fct_summary, split_by_size
from repro.metrics.deadlines import deadline_miss_ratio
from repro.metrics.throughput import ThroughputTracker, long_flow_goodputs
from repro.metrics.reordering import DupAckTracker, reordering_summary
from repro.metrics.queueing import queue_length_samples, queue_wait_series
from repro.metrics.utilization import jain_index, port_utilizations
from repro.metrics.overhead import OverheadModel, SchemeOverhead
from repro.metrics.collector import MetricsCollector, RunMetrics
from repro.metrics.export import (
    metrics_to_dict,
    write_metrics_csv,
    write_metrics_json,
    write_series_csv,
)

__all__ = [
    "BinnedSeries",
    "FctSummary",
    "fct_summary",
    "split_by_size",
    "deadline_miss_ratio",
    "ThroughputTracker",
    "long_flow_goodputs",
    "DupAckTracker",
    "reordering_summary",
    "queue_length_samples",
    "queue_wait_series",
    "port_utilizations",
    "jain_index",
    "OverheadModel",
    "SchemeOverhead",
    "MetricsCollector",
    "RunMetrics",
    "metrics_to_dict",
    "write_metrics_csv",
    "write_metrics_json",
    "write_series_csv",
]
