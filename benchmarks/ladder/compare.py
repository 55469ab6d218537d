"""Compare two ladder result files, workload by workload, metric by metric.

    python -m benchmarks.ladder.compare A.json B.json

``A`` is the parent (or the first set of runs), ``B`` the change (or the
second set).  Each side may be several files joined by commas; their
per-pass samples are pooled.  For every workload x end-to-end metric it
prints both medians, both quartile pairs, B's relative change (positive
is *worse*) and the metric's bound, and labels the pair:

``better``      every B sample is better than every A sample, with at
                least four samples a side (fewer separate by chance);
``unresolved``  otherwise, when either side's quartile spread exceeds the
                bound: the pair is not called unchanged;
``regressed``   B's median is worse than A's by more than the bound;
``within``      anything else: no regression the bound can see.

``outcome_digest`` and exact-count differences are flagged: a pure
speed-up must leave them alone.  Exits 1 when anything regressed, is
unresolved, or an outcome differs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

if __package__ in (None, ""):  # run as a script: make the package importable
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.ladder.metrics import END_TO_END

EXACT = ("outcome_digest", "events", "pkt_hops", "flows", "completed", "drops",
         "ecn_marks", "decisions", "retransmits", "timeouts")


def load(spec: str) -> list[dict]:
    return [json.loads(Path(part).read_text()) for part in spec.split(",")]


def _pooled(docs: list[dict], workload: str, metric: str) -> list[float]:
    samples: list[float] = []
    for doc in docs:
        run = doc["workloads"].get(workload, {}).get("untraced")
        if run is not None:
            samples.extend(run["end_to_end"][metric]["samples"])
    return samples


def _quartiles(samples: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``, never outside the samples' range: a run
    holds only a handful of samples."""
    median = statistics.median(samples)
    if len(samples) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return q1, median, q3


def judge(a: list[float], b: list[float], better: str, bound: float) -> dict:
    """Label one workload x metric pair from its two sample sets."""
    qa, qb = _quartiles(a), _quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (qb[1] - qa[1]) / qa[1]
    spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
    separated = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
    if separated and min(len(a), len(b)) >= 4:
        label = "better"
    elif spread > bound:
        label = "unresolved"
    elif worse > bound:
        label = "regressed"
    else:
        label = "within"
    return {"a": qa, "b": qb, "worse": worse, "spread": spread, "label": label}


def compare(a_docs: list[dict], b_docs: list[dict]) -> tuple[list[str], bool]:
    """The report lines, and whether the two sides agree."""
    lines, ok = [], True
    workloads = [w for w in a_docs[0]["workloads"] if w in b_docs[0]["workloads"]]
    for workload in workloads:
        lines.append(f"== {workload}")
        for name, unit, better, bound in END_TO_END:
            a = _pooled(a_docs, workload, name)
            b = _pooled(b_docs, workload, name)
            if not a or not b:
                continue
            v = judge(a, b, better, bound)
            ok &= v["label"] in ("within", "better")
            lines.append(
                f"  {name:<18} {unit:<6}"
                f" A {v['a'][1]:>12.6g} [{v['a'][0]:.6g}, {v['a'][2]:.6g}] n={len(a)}"
                f"  B {v['b'][1]:>12.6g} [{v['b'][0]:.6g}, {v['b'][2]:.6g}] n={len(b)}"
                f"  worse by {v['worse']:+.2%} spread {v['spread']:.2%}"
                f" bound {bound:.0%}  {v['label']}")
        out_a = a_docs[0]["workloads"][workload]["untraced"]["outcome"]
        out_b = b_docs[0]["workloads"][workload]["untraced"]["outcome"]
        if a_docs[0]["seed"] != b_docs[0]["seed"]:
            lines.append("  outcomes not compared: the seeds differ")
            continue
        differing = [key for key in EXACT if out_a[key] != out_b[key]]
        for key in differing:
            ok = False
            lines.append(f"  OUTCOME DIFFERS: {key}: {out_a[key]} -> {out_b[key]}")
        if not differing:
            lines.append("  outcome_digest and exact counts identical")
    return lines, ok


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    lines, ok = compare(load(argv[0]), load(argv[1]))
    print("\n".join(lines))
    print("compare: sides agree within the benchmark's bounds" if ok else
          "compare: REGRESSED, UNRESOLVED or DIFFERING rows above")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
