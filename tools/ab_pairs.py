"""Alternating parent/change pairs of one ladder workload.

    python tools/ab_pairs.py --parent ../parent --change . \\
        --workload websearch_fabric --seed 1 --pairs 10

Runs ``benchmarks/ladder/run.py --workload W --seed S --seconds N
--trace 0`` from each checkout, one fresh interpreter per sample,
alternating which side goes first, and prints for every end-to-end
metric both medians with quartiles, the ratio change/parent and how many
pairs the change won (ties count for neither).  The outcome digest and
the exact counts must agree across every run of both sides: a mismatch
exits 1, because a speed-up of a different simulation is not one.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, args) -> tuple[dict, tuple[str, ...]]:
    """One ladder run: its metrics and the lines that identify the outcome."""
    done = subprocess.run(
        [sys.executable, "benchmarks/ladder/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{checkout}: ladder run failed (exit {done.returncode})")
    last = json.loads(lines[-1])
    outcome = tuple(" ".join(line.split()) for line in lines
                    if line.split()[:1] == ["outcome_digest"]
                    or line.split()[:2] == ["exact", "counts"])
    outcome += (f"failed {last['failed']} of {last['attempted']}",)
    return {k: m["value"] for k, m in last["metrics"].items()}, outcome


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.6g}"
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)

    manifest = json.loads((args.parent / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in manifest["end_to_end"]}
    sides = {"parent": args.parent, "change": args.change}
    samples: dict[str, list[dict]] = {"parent": [], "change": []}
    outcomes: dict[str, set] = {"parent": set(), "change": set()}
    for pair in range(args.pairs):
        for side in (("parent", "change"), ("change", "parent"))[pair % 2]:
            values, outcome = run_once(sides[side], args)
            samples[side].append(values)
            outcomes[side].add(outcome)
        both = ((samples["parent"][-1][m], samples["change"][-1][m])
                for m in ("wall_s", "pkt_hops_per_s"))
        print(f"pair {pair + 1}/{args.pairs}: " + "  ".join(
            f"{p:.6g} -> {c:.6g}" for p, c in both), flush=True)

    print(f"== {args.workload} seed={args.seed} seconds={args.seconds:g}"
          f" pairs={args.pairs}: median [q1, q3], ratio = change / parent")
    for name, direction in better.items():
        parent = [s[name] for s in samples["parent"]]
        change = [s[name] for s in samples["change"]]
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        ratio = statistics.median(change) / statistics.median(parent)
        print(f"  {name:<18} parent {quartiles(parent):<34} change"
              f" {quartiles(change):<34} x{ratio:.3f}"
              f"  wins {wins}/{args.pairs} ({direction} is better)")
    same = len(outcomes["parent"] | outcomes["change"]) == 1
    for side, seen in outcomes.items():
        for outcome in sorted(seen):
            print(f"  {side}: " + "; ".join(outcome))
    print("outcome digest and exact counts: "
          + ("identical on every run" if same else "MISMATCH"))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
