"""The declared metric names: what ``BENCHMARK.json`` lists and the harness prints.

``END_TO_END`` rows are ``(name, unit, better, bound)``; ``PER_LAYER`` rows
are ``(name, unit, better, layer, source, moves)`` where ``source`` is
``rung`` (isolated loop in :mod:`layers`), ``traced`` (from the traced
pass) or ``count`` (read from public state after a pass, repeats
exactly) and ``moves`` says which end-to-end metric, on which workload,
the row is expected to move.  ``test_ladder.py`` holds this table and
``BENCHMARK.json`` to each other.
"""

from __future__ import annotations

from repro.lb.registry import available_schemes

#: The regression bound is the share of the parent's median by which the
#: metric may worsen; 0.25 is the most the driver allows.  Across ten
#: seeds on the 2-core reference box the timing metrics spread
#: (q3 - q1) / median by 3-13 % in quiet windows and by 20-25 % when the
#: host slows for a minute or two, which it does; a tighter bound would
#: reject changes for the box's noise.  Read ``compare.py``'s deltas, not
#: the bound, to see a small regression.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("pkt_hops_per_s", "1/s", "higher", 0.25),
    ("sim_s_per_wall_s", "ratio", "higher", 0.25),
    ("flows_per_s", "1/s", "higher", 0.25),
    ("cells_per_s_cold", "1/s", "higher", 0.25),
    ("cells_per_s_warm", "1/s", "higher", 0.25),
    ("cells_per_s_fleet", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

SCHEMES = tuple(available_schemes())

_SIM = "websearch_fabric, incast_churn, datamining_schemes"

PER_LAYER = (
    ("sim.ns_per_event", "ns", "lower", "sim", "rung",
     f"pkt_hops_per_s on {_SIM}"),
    ("sim.ns_per_fast_event", "ns", "lower", "sim", "rung",
     f"pkt_hops_per_s on {_SIM}"),
    ("sim.events", "count", "lower", "sim", "count",
     "pkt_hops_per_s on websearch_fabric (event fusion lowers it)"),
    ("sim.events_per_pkt_hop", "ratio", "lower", "sim", "count",
     "pkt_hops_per_s on websearch_fabric (event fusion lowers it)"),
    ("net.port.ns_per_pkt", "ns", "lower", "net.port", "rung",
     "pkt_hops_per_s on websearch_fabric, datamining_schemes"),
    ("net.port.time_share", "ratio", "lower", "net.port", "traced",
     "pkt_hops_per_s on websearch_fabric, datamining_schemes"),
    ("net.port.enqueued", "count", "lower", "net.port", "count",
     "must not move under a pure speed-up"),
    ("net.port.drops", "count", "lower", "net.port", "count",
     "non-zero only on incast_churn"),
    ("net.port.ecn_marks", "count", "lower", "net.port", "count",
     "must not move under a pure speed-up"),
    ("net.switch.ns_per_fwd", "ns", "lower", "net.switch", "rung",
     "pkt_hops_per_s on websearch_fabric"),
    ("net.switch.time_share", "ratio", "lower", "net.switch", "traced",
     "pkt_hops_per_s on websearch_fabric"),
    ("net.switch.pkts_forwarded", "count", "lower", "net.switch", "count",
     "must not move under a pure speed-up"),
) + tuple(
    (f"lb.{scheme}.ns_per_pick", "ns", "lower", "lb", "rung",
     "wall_s on datamining_schemes" if scheme != "tlb" else
     "pkt_hops_per_s on websearch_fabric, incast_churn; wall_s on"
     " datamining_schemes")
    for scheme in SCHEMES
) + (
    ("lb.down_filter_ns_per_pick", "ns", "lower", "lb", "rung",
     "no workload has faults: no end-to-end metric should move"),
    ("lb.decisions", "count", "lower", "lb", "count",
     "must not move under a pure speed-up"),
    ("lb.long_reroutes", "count", "lower", "lb", "count",
     "must not move under a pure speed-up"),
    ("core.tlb.ns_per_pick_short", "ns", "lower", "core", "rung",
     "flows_per_s on incast_churn"),
    ("core.tlb.ns_per_pick_long", "ns", "lower", "core", "rung",
     "pkt_hops_per_s on datamining_schemes"),
    ("core.tlb.update_us", "us", "lower", "core", "traced",
     "pkt_hops_per_s on websearch_fabric (about 1 % of time: expect little)"),
    ("core.tlb.flow_table_peak", "count", "lower", "core", "count",
     "peak_rss_mb on incast_churn"),
    ("core.calc.us_per_qth", "us", "lower", "core", "rung",
     "pkt_hops_per_s on websearch_fabric (through core.tlb.update_us)"),
    ("net.host.time_share", "ratio", "lower", "net.host", "traced",
     "pkt_hops_per_s on websearch_fabric"),
    ("transport.us_per_segment", "us", "lower", "transport", "rung",
     "pkt_hops_per_s on websearch_fabric, datamining_schemes"),
    ("transport.us_per_flow", "us", "lower", "transport", "rung",
     "flows_per_s on incast_churn; no change on datamining_schemes"),
    ("transport.retransmits", "count", "lower", "transport", "count",
     "must not move under a pure speed-up"),
    ("transport.timeouts", "count", "lower", "transport", "count",
     "must not move under a pure speed-up"),
    ("transport.fast_recoveries", "count", "lower", "transport", "count",
     "must not move under a pure speed-up"),
    ("transport.out_of_order", "count", "lower", "transport", "count",
     "must not move under a pure speed-up"),
    ("transport.acks_sent", "count", "lower", "transport", "count",
     "must not move under a pure speed-up"),
    ("workload.install_us_per_flow.poisson", "us", "lower", "workload",
     "rung", "setup_s on websearch_fabric, datamining_schemes"),
    ("workload.install_us_per_flow.incast", "us", "lower", "workload",
     "rung", "setup_s on incast_churn"),
    ("workload.install_us_per_flow.mix", "us", "lower", "workload", "rung",
     "no workload installs a mix: no end-to-end metric should move"),
    ("workload.parse_us", "us", "lower", "workload", "rung",
     "cells_per_s_warm on tiny_grid, incast_churn"),
    ("workload.offered_load_ratio", "ratio", "higher", "workload", "count",
     "sanity column, not a speed metric"),
    ("net.topology.build_ms", "ms", "lower", "net.topology", "rung",
     f"setup_s on {_SIM}; cells_per_s_cold on tiny_grid"),
    ("metrics.finalize_ms", "ms", "lower", "metrics", "traced",
     "cells_per_s_cold on tiny_grid"),
    ("experiments.fixed_ms_per_run", "ms", "lower", "experiments", "rung",
     "cells_per_s_cold, cells_per_s_fleet on tiny_grid"),
    ("cache.fingerprint_ms", "ms", "lower", "cache", "rung",
     "setup_s on every workload"),
    ("cache.key_us", "us", "lower", "cache", "rung",
     "cells_per_s_warm on tiny_grid"),
    ("cache.get_hit_us", "us", "lower", "cache", "rung",
     "cells_per_s_warm on every workload"),
    ("cache.get_miss_us", "us", "lower", "cache", "rung",
     "cells_per_s_cold on tiny_grid"),
    ("cache.put_us", "us", "lower", "cache", "rung",
     "cells_per_s_cold on tiny_grid"),
    ("cache.entry_bytes", "B", "lower", "cache", "rung",
     "cells_per_s_warm on tiny_grid"),
    ("cache.hits", "count", "higher", "cache", "count",
     "warm phase must be all hits"),
    ("cache.misses", "count", "lower", "cache", "count",
     "warm phase must have none"),
    ("runner.serial_us_per_cell", "us", "lower", "runner", "rung",
     "cells_per_s_cold on tiny_grid"),
    ("runner.pool_us_per_cell", "us", "lower", "runner", "rung",
     "no workload uses a pool: no end-to-end metric should move"),
    ("runner.chunked_us_per_cell", "us", "lower", "runner", "rung",
     "no workload uses a pool: no end-to-end metric should move"),
    ("fleet.plan_ms", "ms", "lower", "fleet", "traced",
     "cells_per_s_fleet on tiny_grid"),
    ("fleet.overhead_ms_per_cell", "ms", "lower", "fleet", "traced",
     "cells_per_s_fleet on tiny_grid"),
    ("fleet.resume_ms", "ms", "lower", "fleet", "traced",
     "no end-to-end metric times a resume"),
    ("fleet.journal_records", "count", "lower", "fleet", "count",
     "cells_per_s_fleet on tiny_grid (one fsync each)"),
    # not exact: records carry wall-clock floats of varying length
    ("fleet.journal_bytes", "B", "lower", "fleet", "traced",
     "cells_per_s_fleet on tiny_grid"),
    ("obs.spans_overhead_pct", "%", "lower", "obs", "rung",
     "end-to-end passes run observers off: nothing should move"),
    ("obs.recorder_overhead_pct", "%", "lower", "obs", "rung",
     "end-to-end passes run observers off: nothing should move"),
    ("obs.telemetry_overhead_pct", "%", "lower", "obs", "rung",
     "end-to-end passes run observers off: nothing should move"),
    ("obs.profile_overhead_pct", "%", "lower", "obs", "traced",
     "the traced pass's own overhead; nothing end to end"),
)

E2E_UNITS = {name: unit for name, unit, _, _ in END_TO_END}
LAYER_UNITS = {row[0]: row[1] for row in PER_LAYER}
