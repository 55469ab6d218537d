#!/usr/bin/env python3
"""OLDI partition–aggregate (incast) under different load balancers.

The paper motivates TLB with online data-intensive applications whose
fan-in requests are deadline-bound.  This example issues partition–
aggregate requests (one aggregator, N worker responses) *while long
background flows occupy the fabric*, and compares request completion
times (RCT, gated by the slowest response) across schemes.

Usage::

    python examples/incast_oldi.py
    python examples/incast_oldi.py --fanout 16 --requests 30
    python examples/incast_oldi.py --schemes ecmp tlb --background 0
"""

import argparse

import numpy as np

from repro.experiments.report import format_table
from repro.lb import attach_scheme
from repro.net.topology import build_two_leaf_fabric
from repro.obs import FlightRecorder
from repro.transport.flow import FlowRegistry
from repro.units import KB, MB
from repro.workload.generator import StaticWorkload
from repro.workload.incast import IncastWorkload, request_completion_times


def parse_args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--schemes", nargs="+",
                   default=["ecmp", "rps", "letflow", "tlb"])
    p.add_argument("--requests", type=int, default=20)
    p.add_argument("--fanout", type=int, default=12)
    p.add_argument("--response-kb", type=float, default=32.0)
    p.add_argument("--background", type=int, default=3,
                   help="number of long background flows (0 disables)")
    p.add_argument("--paths", type=int, default=8)
    p.add_argument("--seed", type=int, default=1)
    return p.parse_args()


def run_scheme(args, scheme: str) -> dict:
    net = build_two_leaf_fabric(
        n_paths=args.paths, hosts_per_leaf=max(args.fanout + 4, 16),
        seed=args.seed)
    attach_scheme(net, scheme)
    registry = FlowRegistry()
    if args.background:
        StaticWorkload(
            net, registry, n_short=0, n_long=args.background,
            long_size=MB(5), short_window=1.0).install()
    incast = IncastWorkload(
        net, registry,
        n_requests=args.requests, fanout=args.fanout,
        response_size=KB(args.response_kb), request_interval=0.008,
        deadline=0.010, flow_id_base=10_000)
    incast.install()
    recorder = FlightRecorder(cadence=0.001).attach(
        net, ports=net.uplink_ports(net.leaves[0]))
    net.sim.run(until=2.0)
    rct = request_completion_times(incast, registry)
    finite = rct[np.isfinite(rct)]
    misses = sum(
        1 for s in registry.all_stats()
        if s.missed_deadline)
    qdepth = recorder.to_arrays()["qdepth"]
    spread = qdepth.max(axis=1) - qdepth.min(axis=1)
    return {
        "scheme": scheme,
        "rct_mean_ms": float(np.mean(finite)) * 1e3 if finite.size else float("nan"),
        "rct_p99_ms": float(np.percentile(finite, 99)) * 1e3 if finite.size else float("nan"),
        "completed": int(finite.size),
        "missed_deadlines": misses,
        "uplink_imbalance": float(spread.mean()) if spread.size else 0.0,
    }


def main() -> None:
    args = parse_args()
    rows = [run_scheme(args, s) for s in args.schemes]
    print(format_table(
        ["scheme", "RCT_mean_ms", "RCT_p99_ms", "completed",
         "missed_deadlines", "uplink_imbalance"],
        [[r["scheme"], r["rct_mean_ms"], r["rct_p99_ms"], r["completed"],
          r["missed_deadlines"], r["uplink_imbalance"]] for r in rows],
        title=(f"partition-aggregate: {args.requests} requests x fanout "
               f"{args.fanout}, {args.background} background elephants"),
    ))
    print("\nRCT is gated by the slowest of the fan-in responses, so a "
          "single response stuck behind an elephant blows the whole "
          "request — exactly the tail effect TLB targets.")


if __name__ == "__main__":
    main()
