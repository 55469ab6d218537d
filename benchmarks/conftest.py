"""Shared helpers for the figure benchmarks.

Every bench runs one paper figure's driver (``run_figure`` in
``repro.experiments``: the cells ``repro figure X`` runs), prints the
driver's table (visible with ``pytest -s``), saves it under
``benchmarks/results/`` — byte for byte what ``repro figure X``
prints — and asserts the figure's qualitative shape over the driver's
rows.  ``pedantic(rounds=1)`` is used throughout: a figure run is a
full simulation campaign, not a microbenchmark to be repeated.
"""

from __future__ import annotations

import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def emit(name: str, text: str) -> str:
    """Print a figure's table and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}\n")
    return text


def once(benchmark, fn):
    """Run ``fn`` exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def axis(rows, attr: str) -> list:
    """The distinct values of ``attr`` over ``rows``, in grid order."""
    return list(dict.fromkeys(getattr(r, attr) for r in rows))
