"""Figs. 8–9 — basic performance of short and long flows (§6.1).

One campaign, TLB vs the baselines on the shared microbenchmark
workload, regenerates both figures (``repro figure fig8`` and ``fig9``
print the same two tables):

* Fig. 8 (short flows): (a) the real-time reordering signal (dup-ACK
  ratio over the run), (b) the average queueing delay;
* Fig. 9 (long flows): (a) the reordering signal, (b) instantaneous
  throughput.

Paper shape: TLB's short flows see (almost) the lowest queueing delay
and far less reordering than RPS/Presto, because short and long flows
are not mixed on the same queues.  TLB's long flows reorder less than
RPS/Presto and achieve higher throughput than ECMP/Presto/LetFlow — the
granularity adapts to the short-flow load instead of being fixed.
"""

import functools

import numpy as np
import pytest

from benchmarks.conftest import emit, once
from repro.experiments import basic


@functools.cache
def _series():
    series = basic.run_figure()
    emit("fig08_09", basic.tabulate(series))
    return series


@pytest.mark.benchmark(group="fig08")
def test_fig08_short_flow_reordering_and_queueing(benchmark):
    series = once(benchmark, _series)
    by = {s.scheme: s for s in series}
    # (a) TLB reorders short flows far less than per-packet spraying
    assert by["tlb"].short_dup_ratio < by["rps"].short_dup_ratio
    assert by["tlb"].short_dup_ratio < by["presto"].short_dup_ratio
    # (b) TLB's short-flow queueing delay is at or near the minimum
    waits = {s.scheme: s.mean_short_wait for s in series}
    assert waits["tlb"] <= 1.5 * min(waits.values())
    # and clearly better than flow-hashing
    assert waits["tlb"] < waits["ecmp"]


@pytest.mark.benchmark(group="fig09")
def test_fig09_long_flow_reordering_and_throughput(benchmark):
    by = {s.scheme: s for s in once(benchmark, _series)}
    # (a) TLB's long flows reorder less than the per-packet/flowcell schemes
    assert by["tlb"].long_dup_ratio < by["rps"].long_dup_ratio
    assert by["tlb"].long_dup_ratio < by["presto"].long_dup_ratio
    # (b) TLB's long-flow goodput beats ECMP, Presto and LetFlow
    assert by["tlb"].long_goodput_bps > by["ecmp"].long_goodput_bps
    assert by["tlb"].long_goodput_bps > by["presto"].long_goodput_bps
    assert by["tlb"].long_goodput_bps >= 0.9 * by["letflow"].long_goodput_bps
    # the instantaneous series carries actual signal
    assert np.max(by["tlb"].long_throughput_bps) > 0
