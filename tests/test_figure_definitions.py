"""Each paper figure's cells are defined once, in its driver.

``repro figure X`` and the figure's bench under ``benchmarks/`` must run
the same grid, so a bench may not build a configuration of its own: it
calls the driver's run function and asserts over the driver's rows.  A
static walk with :mod:`ast` — no simulation runs here.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

from repro.cli import FIGURES

BENCHES = sorted(
    (Path(__file__).resolve().parent.parent / "benchmarks")
    .glob("bench_fig*.py"))


def _config_builders(tree: ast.Module) -> list[str]:
    """Every call in ``tree`` that builds a scenario configuration:
    ``ScenarioConfig(…)``, any ``*_config(…)`` or ``….with_(…)``."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else "")
        if (name == "ScenarioConfig" or name.endswith("_config")
                or name == "with_"):
            found.append(f"line {node.lineno}: {name}(…)")
    return found


def _figures(bench: Path) -> list[str]:
    """The ``cli.FIGURES`` names a bench file covers:
    ``bench_fig03_04_*.py`` → ``["fig3", "fig4"]``."""
    m = re.match(r"bench_fig(\d+)(?:_(\d+))?_", bench.name)
    assert m, f"{bench.name}: name does not say which figure it is"
    return [f"fig{int(n)}" for n in m.groups() if n]


def _imported_modules(tree: ast.Module) -> set[str]:
    mods = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            mods.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            mods.update(f"{node.module}.{alias.name}" for alias in node.names)
    return mods


def test_every_paper_figure_has_a_bench():
    paper = {name for name in FIGURES if re.fullmatch(r"fig\d+", name)}
    covered = {fig for bench in BENCHES for fig in _figures(bench)}
    assert covered == paper


@pytest.mark.parametrize("bench", BENCHES, ids=lambda p: p.name)
def test_bench_builds_no_config(bench):
    offenders = _config_builders(ast.parse(bench.read_text()))
    assert not offenders, (
        f"{bench.name} defines its own cells; run the driver's instead:"
        f" {offenders}")


@pytest.mark.parametrize("bench", BENCHES, ids=lambda p: p.name)
def test_bench_runs_the_driver_its_figure_names(bench):
    imported = _imported_modules(ast.parse(bench.read_text()))
    for fig in _figures(bench):
        assert fig in FIGURES, f"{bench.name}: no `repro figure {fig}`"
        assert FIGURES[fig][0] in imported, (
            f"{bench.name} does not import {FIGURES[fig][0]},"
            f" the driver `repro figure {fig}` runs")
