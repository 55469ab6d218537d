#!/usr/bin/env python3
"""Watch the queueing process of Figs. 2 and 5 directly.

Runs the paper's illustrative scenario — one long flow plus a burst of
short flows over a handful of equal-cost paths — under each granularity
and under TLB, sampling every uplink queue, and renders the occupancy
time lines as sparklines.  The pictures to look for:

* flow-level: one deep queue (the elephant's), others idle — Fig. 2(a);
* packet-level: all queues shallow and even — Fig. 2(b);
* flowlet-level: stuck assignments — Fig. 2(c);
* TLB: the elephant parks on one queue while the burst is in flight,
  then spreads — Fig. 5.

Usage::

    python examples/queue_dynamics.py
    python examples/queue_dynamics.py --paths 3 --shorts 20
"""

import argparse

from repro.experiments import ScenarioConfig
from repro.lb import attach_scheme
from repro.net.topology import build_two_leaf_fabric
from repro.obs import FlightRecorder
from repro.transport.flow import FlowRegistry
from repro.units import MB, microseconds
from repro.viz import sparkline
from repro.workload.scenarios import parse_scenario

SCENARIOS = [
    ("flow-level", "fixed", {"granularity_bytes": None}),
    ("flowlet-level", "letflow", {"flowlet_timeout": microseconds(150)}),
    ("packet-level", "rps", {}),
    ("TLB", "tlb", {}),
]


def parse_args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--paths", type=int, default=4)
    p.add_argument("--shorts", type=int, default=30)
    p.add_argument("--longs", type=int, default=1)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--window-ms", type=float, default=20.0,
                   help="how long to watch (simulated)")
    return p.parse_args()


def run_one(args, label: str, scheme: str, params: dict) -> None:
    net = build_two_leaf_fabric(
        n_paths=args.paths, hosts_per_leaf=args.shorts + args.longs,
        seed=args.seed)
    attach_scheme(net, scheme, **params)
    recorder = FlightRecorder(cadence=100e-6).attach(
        net, ports=net.uplink_ports(net.leaves[0]))
    registry = FlowRegistry()
    config = ScenarioConfig(
        n_short=args.shorts, n_long=args.longs, long_size=MB(10),
        short_window=args.window_ms / 2e3,  # burst in the first half
        distinct_hosts=True)
    parse_scenario("static").install(net, registry, config)
    net.sim.run(until=args.window_ms * 1e-3)
    recorder.stop()

    matrix = recorder.to_arrays()["qdepth"]
    print(f"\n== {label} ({scheme}) — uplink queue occupancy over "
          f"{args.window_ms:.0f} ms (peak {int(matrix.max())} pkts) ==")
    for i, port in enumerate(recorder.ports):
        series = matrix[:, i]
        print(f"  {port.name:16s} {sparkline(series, width=64)} "
              f"max={int(series.max()):3d} mean={series.mean():5.1f}")
    done = sum(1 for s in registry.all_stats() if s.completed is not None)
    print(f"  flows completed within the window: {done}/{len(registry)}")


def main() -> None:
    args = parse_args()
    for label, scheme, params in SCENARIOS:
        run_one(args, label, scheme, params)
    print("\nFlow-level parks the elephant (one hot queue); packet-level "
          "flattens everything but reorders; TLB parks the elephant while "
          "the short burst runs, then releases it.")


if __name__ == "__main__":
    main()
