"""Byte pins for the grid path: build cells → run → tabulate → emit.

``repro sweep``, ``repro fleet run`` and ``repro fleet resume`` promise
the same tables, the same CSV and the same ``manifest.json`` ``sweep``
block for the same grid; ``repro figure workloads --csv`` and the five
grid figures' ``tabulate`` render through the same panel code.  Every
artefact below is reduced to a sha256 so a refactor of that path that
keeps the pins green has provably not moved an output byte.  The grids
are deliberately given in *unsorted* argument order: tables sort their
axes, the CSV and the manifest keep grid order.

The expected values were recorded at commit b16ecc6 (PR 13), before the
grid path was rewritten (the manifest pin is ``repro sweep``'s; the
fleet commands wrote a sorted block there and now must equal it).
Re-record them (``python tests/test_grid_pins.py``) only for an
intentional output change, and say so in CHANGES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import hashlib
import inspect
import io
import json
import tempfile
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.experiments import (
    asymmetry, deadline_agnostic, largescale, testbed, workloads)
from repro.experiments.runner import run_many
from repro.fleet import run_fleet

_AXES = ["--schemes", "tlb", "ecmp", "--loads", "0.5", "0.3",
         "--flows", "10"]
GRIDS = {
    "plain": _AXES,
    "zipf": _AXES + ["--workload", "zipf:s=1.2"],
    "faults": _AXES + [
        "--faults",
        "0.01:link_down:leaf0-spine1;0.05:link_up:leaf0-spine1"],
}
COMMANDS = ("sweep", "fleet run", "fleet resume")


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _main(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _artefacts(label: str, out: str, err: str, csv_path: Path) -> dict:
    """The four pinned artefacts of one grid command (the two large
    ones digested)."""
    tables = out.split("wrote ", 1)[0]
    summary = next(line for line in err.splitlines()
                   if line.startswith(f"{label}: "))
    manifest = json.loads((csv_path.parent / "manifest.json").read_text())
    return {
        "tables": _sha(tables),
        "csv": _sha(csv_path.read_bytes()),
        "summary": summary,
        "manifest": manifest["sweep"],
    }


@functools.lru_cache(maxsize=None)
def _grid_artefacts(grid: str) -> dict:
    """Run one grid through the three commands (fresh caches)."""
    flags = GRIDS[grid]
    found = {}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        runs = {
            "sweep": ["sweep", *flags, "--processes", "0"],
            "fleet run": ["fleet", "run", "--dir", str(root / "fdir"),
                          *flags, "--workers", "0",
                          "--cache-dir", str(root / "cache")],
            "fleet resume": ["fleet", "resume", "--dir", str(root / "fdir"),
                             "--workers", "0",
                             "--cache-dir", str(root / "cache")],
        }
        for command, argv in runs.items():
            csv_path = root / command.replace(" ", "-") / "out.csv"
            code, out, err = _main([*argv, "--csv", str(csv_path)])
            assert code == 0, err
            found[command] = _artefacts(
                command.split()[0], out, err, csv_path)
    return found


@functools.lru_cache(maxsize=None)
def _workloads_figure() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp) / "w.csv"
        code, out, err = _main([
            "figure", "workloads", "--workload", "zipf:s=1.2",
            "--csv", str(csv_path)])
        assert code == 0, err
        return {"tables": _sha(out), "csv": _sha(csv_path.read_bytes())}


# -- hand-built rows for the five tabulates ---------------------------------


def _fct(i: int) -> dict:
    return dict(short_afct=1e-3 * (i + 1), short_p99=2.5e-3 * (i + 1),
                deadline_miss=0.01 * i, long_goodput_bps=1e8 * (i + 2))


def _rows(driver: str) -> list:
    grid = [(s, x) for s in ("tlb", "ecmp") for x in (1, 0)]
    if driver == "largescale":
        return [largescale.LoadSweepRow(
            scheme=s, load=(0.2, 0.5)[x], completed_all=True, **_fct(i))
            for i, (s, x) in enumerate(grid)]
    if driver == "workloads":
        return [workloads.WorkloadRow(
            scheme=s, workload=("websearch", "zipf:s=1.2")[x],
            completed_all=True, **_fct(i))
            for i, (s, x) in enumerate(grid)]
    if driver == "deadline_agnostic":
        return [deadline_agnostic.AgnosticRow(
            percentile=p, assumed_deadline=p / 2500.0, load=(0.2, 0.6)[x],
            long_reroutes=i, **_fct(i))
            for i, (p, x) in enumerate(
                (p, x) for p in (25.0, 5.0) for x in (1, 0))]
    two_panel = {k: v for k, v in _fct(0).items() if k != "short_p99"}
    if driver == "testbed":
        return [testbed.TestbedRow(scheme=s, x=(60, 100)[x], **{
            **two_panel, "short_afct": 0.1 * (i + 1),
            "long_goodput_bps": 4e6 * (i + 1)})
            for i, (s, x) in enumerate(grid)]
    if driver == "asymmetry":
        return [asymmetry.AsymmetryRow(scheme=s, x=(0.0, 4e-3)[x], **{
            **two_panel, "short_afct": 0.1 * (i + 1),
            "long_goodput_bps": 4e6 * (i + 1)})
            for i, (s, x) in enumerate(grid)]
    raise AssertionError(driver)


def _tabulate(driver: str, rows) -> str:
    return {
        "largescale": lambda: largescale.tabulate(rows, "data_mining"),
        "workloads": lambda: workloads.tabulate(rows),
        "deadline_agnostic": lambda: deadline_agnostic.tabulate(rows),
        "testbed": lambda: testbed.tabulate(rows, "n_long"),
        "asymmetry": lambda: asymmetry.tabulate(rows, "delay"),
    }[driver]()


#: driver → panels its tabulate renders
DRIVERS = {"largescale": 4, "workloads": 4, "deadline_agnostic": 4,
           "testbed": 2, "asymmetry": 2}


# -- the option surface ------------------------------------------------------


def _option_surface(parser: argparse.ArgumentParser, prefix: str = "repro"):
    """``{subcommand path: sorted option strings + positional dests}``."""
    surface, own = {}, []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                surface.update(_option_surface(sub, f"{prefix} {name}"))
        else:
            own.extend(action.option_strings or [action.dest])
    surface[prefix] = sorted(own)
    return surface


def _signatures() -> dict:
    return {fn.__name__: list(inspect.signature(fn).parameters)
            for fn in (run_many, run_fleet)}


# -- recorded at b16ecc6 -----------------------------------------------------

PINS = {'faults': {'tables': 'ba3edb99254b890917b9b152bd0e300c4a3557c27f1c34be9ff9fa1bfd92b8fb',
            'csv': '3bc770f0ed44cbca90ac791dec95eeb10ae8a94f0304bbb893f2e7b5dbd33434'},
 'plain': {'tables': 'fdaf0d7b74863757cb5a829c2e5ed36cc7646f06791e4eaed93db786f3b1864a',
           'csv': '47ac6b8c02413f7e4f5e90c604d6016f34647566cf133b45bc66d1ede009fec0'},
 'zipf': {'tables': 'a2d31a25c98fa4481140bf1807f20b608ce17b0e9da616bd90e35b8d7a7408da',
          'csv': '0ce582b2267546455c0fef8d12daab18ddc5ab6fc826b794b9dd8105c7a076e2'},
 'figure workloads': {'tables': '4c370678f914ecfceb499aed446f082376bc57bba796a4e09758a67212964398',
                      'csv': '63201670019c54880fd8edf626730bc2665cff1e4f94a47c6c618a20162777a3'}}
#: the three grids share their axes, so these two do not vary by grid
SUMMARY = {'sweep': 'sweep: 4 row(s) — 4 computed, 0 cached, 0 failed',
 'fleet run': 'fleet: 4 row(s) — 4 computed, 0 cached, 0 failed',
 'fleet resume': 'fleet: 4 row(s) — 0 computed, 4 cached, 0 failed'}
MANIFEST_SWEEP = {'schemes': ['tlb', 'ecmp'], 'loads': [0.5, 0.3], 'failed': []}
TABULATE_PINS = {'asymmetry': '29e8fde67f9045383572148750030a13bc9cacdf1e7860b596868fd900144f76',
 'deadline_agnostic': 'b2d322d16148bfd452be5b2d31dcf8d90c60a9ebada3187f1e587e3f15e73189',
 'largescale': '3bb6af5467796c769ee10c62a47ec43b4eb28817c51f25c1fa9a0cfc0a582e8b',
 'testbed': '440e367440dc0d6b95a27286097a113e260c80741c016fd2b70d89a4ec2b48b1',
 'workloads': 'ce62135b6bf16d7c4111b8aa322bd880903ac6bb6421320d331b17652400d605'}
OPTION_SURFACE = {'repro': ['--help', '--version', '-h'],
 'repro cache': ['--cache-dir', '--help', '-h'],
 'repro cache clear': ['--help', '-h'],
 'repro cache gc': ['--help', '--max-size', '-h'],
 'repro cache stats': ['--help', '--json', '-h'],
 'repro diff': ['--all', '--help', '--tolerance', '-h', 'a', 'b'],
 'repro explain': ['--flow', '--format', '--help', '--hops', '--tail', '-h',
                   'path'],
 'repro figure': ['--cache', '--cache-dir', '--csv', '--help', '--no-cache',
                  '--workload', '-h', 'name'],
 'repro fleet': ['--help', '-h'],
 'repro fleet report': ['--help', '--html', '-h', 'dir'],
 'repro fleet resume': ['--cache-dir', '--csv', '--dir', '--help',
                        '--progress', '--workers', '-h'],
 'repro fleet run': ['--cache-dir', '--csv', '--dir', '--faults', '--flows',
                     '--help', '--lease-ttl', '--loads', '--progress',
                     '--retries', '--schemes', '--seed', '--sizes',
                     '--workers', '--workload', '-h'],
 'repro fleet status': ['--dir', '--help', '--json', '-h'],
 'repro fleet top': ['--dir', '--help', '--interval', '--iterations',
                     '--no-clear', '-h'],
 'repro fleet worker': ['--cache-dir', '--dir', '--help', '--poll',
                        '--worker-id', '-h'],
 'repro model': ['--deadline', '--help', '--long-flows', '--paths', '--rate',
                 '--short-flows', '--short-size', '-h'],
 'repro report': ['--help', '--html', '--spans', '-h', 'path'],
 'repro run': ['--cache', '--cache-dir', '--csv', '--fault-detection-delay',
               '--faults', '--flows', '--help', '--json', '--load',
               '--long-flows', '--no-cache', '--paths', '--record',
               '--scheme', '--seed', '--short-flows', '--sizes', '--spans',
               '--telemetry', '--trace', '--workload', '-h'],
 'repro schemes': ['--help', '-h'],
 'repro sweep': ['--cache', '--cache-dir', '--csv', '--faults',
                 '--flows', '--help', '--loads', '--no-cache', '--processes',
                 '--progress', '--retries', '--schemes', '--seed', '--sizes',
                 '--workload', '-h'],
 'repro trace': ['--help', '-h'],
 'repro trace summarize': ['--flow', '--help', '--kind', '--per-node',
                           '--top', '-h', 'path'],
 'repro workloads': ['--help', '-h']}
SIGNATURES = {'run_fleet': ['configs', 'fleet_dir', 'cache', 'workers', 'runner',
               'max_attempts', 'max_reclaims', 'backoff_base', 'lease_ttl',
               'poll', 'on_status', 'status_interval', 'clock'],
 'run_many': ['configs', 'processes', 'runner', 'progress', 'label',
              'on_error', 'retries', 'cache', 'chunksize', 'fleet_dir']}


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_grid_command_bytes(grid, command):
    assert _grid_artefacts(grid)[command] == {
        **PINS[grid], "summary": SUMMARY[command], "manifest": MANIFEST_SWEEP}


def test_workloads_figure_bytes():
    assert _workloads_figure() == PINS["figure workloads"]


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_tabulate_bytes(driver):
    assert _sha(_tabulate(driver, _rows(driver))) == TABULATE_PINS[driver]


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_tabulate_renders_a_hole_as_dash(driver):
    """A grid cell with no row prints ``-`` in every panel."""
    rows = _rows(driver)
    del rows[2]  # ("ecmp" | TLB-5th, second x): never the reference row
    text = _tabulate(driver, rows)
    dashes = sum(token == "-" for line in text.splitlines()
                 for token in line.split())
    assert dashes == DRIVERS[driver]


def test_option_surface_is_unchanged():
    """A simplifying PR adds no knob — and drops none silently."""
    assert _option_surface(build_parser()) == OPTION_SURFACE
    assert _signatures() == SIGNATURES


# -- one failed cell must not take the report down --------------------------


@pytest.mark.parametrize("command", ("sweep", "fleet run"))
def test_failed_cell_renders_dash_and_keeps_the_rest(
        command, monkeypatch, tmp_path):
    from repro.experiments import common

    real = common.run_scenario

    def flaky(config, **kwargs):
        if config.scheme == "ecmp" and config.load == 0.5:
            raise RuntimeError("injected")
        return real(config, **kwargs)

    monkeypatch.setattr(common, "run_scenario", flaky)
    csv_path = tmp_path / "out" / "sweep.csv"
    flags = ["--schemes", "ecmp", "tlb", "--loads", "0.3", "0.5",
             "--flows", "10", "--retries", "0", "--csv", str(csv_path)]
    if command == "sweep":
        argv = ["sweep", *flags, "--processes", "0"]
    else:
        argv = ["fleet", "run", "--dir", str(tmp_path / "fdir"), *flags,
                "--workers", "0", "--cache-dir", str(tmp_path / "cache")]
    code, out, err = _main(argv)
    assert code == 0
    panel_a = out.split("\n\n")[0].splitlines()
    assert panel_a[-1].split()[:2] == ["0.500", "-"]
    assert panel_a[-2].split()[1] != "-"
    assert "FAILED scheme=ecmp load=0.5 after 1 attempt(s)" in err
    with csv_path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["swept_scheme"], r["load"]) for r in rows] == [
        ("ecmp", "0.3"), ("tlb", "0.3"), ("tlb", "0.5")]


if __name__ == "__main__":  # re-record: prints the tables above
    import pprint

    pins = {}
    for grid in sorted(GRIDS):
        found = _grid_artefacts(grid)
        for key in ("tables", "csv"):
            assert len({found[c][key] for c in COMMANDS}) == 1, (grid, key)
        pins[grid] = {key: found["sweep"][key] for key in ("tables", "csv")}
    pins["figure workloads"] = _workloads_figure()
    print("PINS =", pprint.pformat(pins, width=100, sort_dicts=False))
    print("SUMMARY =", pprint.pformat(
        {c: found[c]["summary"] for c in COMMANDS}, sort_dicts=False))
    print("MANIFEST_SWEEP =", found["sweep"]["manifest"])
    print("TABULATE_PINS =", pprint.pformat(
        {d: _sha(_tabulate(d, _rows(d))) for d in sorted(DRIVERS)},
        width=100))
    print("OPTION_SURFACE =", pprint.pformat(
        _option_surface(build_parser()), width=78, compact=True))
    print("SIGNATURES =", pprint.pformat(_signatures(), width=78,
                                         compact=True))
