"""Figs. 3–4 — impact of switching granularity (§2.2).

Under flow-/flowlet-/packet-level rerouting of *all* flows, one
campaign regenerates both figures (``repro figure fig3`` and ``fig4``
print the same two tables):

* Fig. 3 (short flows): (a) queue-length CDF percentiles of short-flow
  packets, (b) duplicate-ACK ratio, (c) FCT statistics;
* Fig. 4 (long flows): (a) uplink utilisation, (b) out-of-order ratio,
  (c) average long-flow throughput.

Paper shape: queue length and tail FCT grow with granularity; dup-ACK
ratio grows as granularity shrinks; packet-level does not win FCT
despite the shortest queues, because of reordering.  Coarse granularity
leaves links idle (low min-utilisation), fine granularity reorders;
under any *fixed* granularity the long flows stay well below capacity —
the dilemma motivating TLB.
"""

import functools

import pytest

from benchmarks.conftest import emit, once
from repro.experiments import motivation


@functools.cache
def _rows():
    rows = motivation.run_figure()
    emit("fig03_04", motivation.tabulate(rows))
    return rows


@pytest.mark.benchmark(group="fig03")
def test_fig03_granularity_impact_on_short_flows(benchmark):
    by = {r.granularity: r for r in once(benchmark, _rows)}
    # (a) queue length experienced grows with coarser granularity
    assert by["flow"].qlen_p99 >= by["packet"].qlen_p99
    # (b) reordering grows as granularity shrinks
    assert by["flow"].short_dup_ack_ratio == 0.0
    assert by["packet"].short_dup_ack_ratio > by["flowlet"].short_dup_ack_ratio
    # (c) flow-level has the worst tail FCT
    assert by["flow"].short_fct_p99 >= by["flowlet"].short_fct_p99


@pytest.mark.benchmark(group="fig04")
def test_fig04_granularity_impact_on_long_flows(benchmark):
    by = {r.granularity: r for r in once(benchmark, _rows)}
    # (a) fine granularity balances utilisation across uplinks
    assert by["packet"].util_min >= by["flow"].util_min
    # (b) packet-level reorders long flows most
    assert by["packet"].long_ooo_ratio > by["flowlet"].long_ooo_ratio
    assert by["flow"].long_ooo_ratio == 0.0
    # (c) flow-level wastes capacity relative to finer switching
    assert by["flow"].long_goodput_bps < max(
        by["flowlet"].long_goodput_bps, by["packet"].long_goodput_bps)
