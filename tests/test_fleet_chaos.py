"""Fleet chaos: SIGKILLed workers, graceful drains, resume parity.

These tests exercise the crash-resilience claims end to end with real
worker subprocesses (spawned via ``python -m repro fleet worker``) and
real signals, on the stub runner from ``fleet_helpers`` so each "cell"
is milliseconds of work.  Short lease TTLs keep reclaim latency (and so
test wall time) low.
"""

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

from fleet_helpers import Cell, calls, compute
from repro.cache import ResultCache
from repro.experiments.runner import run_many
from repro.fleet import FleetPaths, load_state, plan_fleet, run_fleet
from repro.fleet import journal as jn

FP = "0" * 64


def _cache(tmp_path):
    return ResultCache(tmp_path / "cache", fingerprint=FP)


def _spawn_worker(fleet_dir: Path, cache_dir: Path, name: str):
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "fleet", "worker",
         "--dir", str(fleet_dir), "--cache-dir", str(cache_dir),
         "--worker-id", name, "--poll", "0.05"],
        env=env)


def _wait_for(predicate, timeout: float = 30.0, interval: float = 0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def test_worker_sigkill_mid_cell_fleet_still_completes(tmp_path):
    """A cell that SIGKILLs its worker is reclaimed and completes."""
    log = tmp_path / "calls.log"
    crash = tmp_path / "crash.marker"
    crash.touch()
    cells = [Cell(tag=f"c{i}", log=str(log)) for i in range(4)]
    cells.insert(2, Cell(tag="boom", log=str(log), crash_file=str(crash)))
    cells.append(Cell(tag="poison", fatal=True))
    cache = _cache(tmp_path)
    result = run_fleet(cells, fleet_dir=tmp_path / "fleet", cache=cache,
                       workers=2, runner=compute, lease_ttl=0.6, poll=0.05,
                       backoff_base=0.05)
    assert result.complete
    assert not crash.exists()  # the crash really happened
    # 100% coverage: every non-fatal cell has its result...
    ok = [r for r in result.results if isinstance(r, dict)]
    assert [r["tag"] for r in ok] == ["c0", "c1", "boom", "c2", "c3"]
    # ...computed exactly once each (the killed attempt never logged)
    assert calls(log) == 5
    # every fatal-error cell appears exactly once as a failure row
    assert [f.index for f in result.failures] == [5]
    assert "ConfigError" in result.failures[0].error


def test_external_sigkill_then_resume_zero_recompute(tmp_path):
    """Kill the only worker from outside; the resumed run finishes the
    rest, recomputes nothing, and matches a never-crashed serial run
    byte for byte."""
    log = tmp_path / "calls.log"
    cells = [Cell(tag=f"c{i}", log=str(log), sleep=0.3) for i in range(5)]
    cache = _cache(tmp_path)
    fleet_dir = tmp_path / "fleet"
    plan_fleet(fleet_dir, cells, cache=cache, runner=compute,
               lease_ttl=0.6, backoff_base=0.05)
    proc = _spawn_worker(fleet_dir, cache.root, "victim")
    try:
        assert _wait_for(lambda: load_state(
            FleetPaths(fleet_dir).journal).counts()[jn.DONE] >= 1)
        proc.kill()  # SIGKILL: no cleanup, lease left behind
        proc.wait(timeout=10)
    finally:
        if proc.poll() is None:
            proc.kill()
    state = load_state(FleetPaths(fleet_dir).journal)
    done_before = state.counts()[jn.DONE]
    assert 0 < done_before < len(cells)

    resumed = run_fleet(cells, fleet_dir=fleet_dir, cache=cache,
                        workers=0, runner=compute, poll=0.05)
    assert resumed.complete and not resumed.failures
    # zero recomputation of anything that finished before the kill
    assert resumed.cached == done_before
    assert resumed.computed == len(cells) - done_before
    # each cell computed exactly once across both lives (the killed
    # in-flight attempt died mid-sleep, before its log write)
    assert calls(log) == len(cells)
    # byte-identical to a run that never crashed (canonical encoding)
    serial_cache = ResultCache(tmp_path / "cache2", fingerprint=FP)
    reference = run_many(
        [Cell(tag=c.tag, log="", sleep=0.0) for c in cells],
        processes=0, runner=compute, cache=serial_cache)
    assert (json.dumps(resumed.results, sort_keys=True).encode()
            == json.dumps(reference, sort_keys=True).encode())


def test_sigterm_drains_gracefully_and_resume_completes(tmp_path):
    """SIGTERM: the worker finishes its current cell, journals a drain,
    releases everything, and exits 0 — `fleet run && fleet run` works."""
    log = tmp_path / "calls.log"
    cells = [Cell(tag=f"c{i}", log=str(log), sleep=0.4) for i in range(4)]
    cache = _cache(tmp_path)
    fleet_dir = tmp_path / "fleet"
    plan_fleet(fleet_dir, cells, cache=cache, runner=compute,
               lease_ttl=5.0, backoff_base=0.05)
    paths = FleetPaths(fleet_dir)
    proc = _spawn_worker(fleet_dir, cache.root, "drainee")
    try:
        assert _wait_for(
            lambda: load_state(paths.journal).counts()[jn.DONE] >= 1)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0  # graceful drain exits 0
    finally:
        if proc.poll() is None:
            proc.kill()
    state = load_state(paths.journal)
    assert "drainee" in state.drained
    assert not paths.lease_files()  # the in-flight cell was released
    done_before = state.counts()[jn.DONE]
    assert done_before >= 1
    assert state.open_cells()  # something was left for the resume

    resumed = run_fleet(cells, fleet_dir=fleet_dir, cache=cache,
                        workers=0, runner=compute, poll=0.05)
    assert resumed.complete and not resumed.failures
    assert resumed.cached == done_before
    assert calls(log) == len(cells)  # nothing ran twice


def test_cli_fleet_csv_matches_serial_sweep(tmp_path, capsys):
    """``repro fleet run --csv`` is byte-identical to ``repro sweep
    --csv`` over the same grid (separate caches, both cold)."""
    from repro.cli import main

    grid = ["--schemes", "ecmp", "--loads", "0.3", "--flows", "10"]
    sweep_csv = tmp_path / "serial" / "out.csv"
    fleet_csv = tmp_path / "fleet" / "out.csv"
    sweep_csv.parent.mkdir()
    fleet_csv.parent.mkdir()
    assert main(["sweep", *grid, "--csv", str(sweep_csv),
                 "--cache-dir", str(tmp_path / "cache1")]) == 0
    assert main(["fleet", "run", "--dir", str(tmp_path / "fdir"), *grid,
                 "--workers", "0", "--csv", str(fleet_csv),
                 "--cache-dir", str(tmp_path / "cache2")]) == 0
    capsys.readouterr()
    assert fleet_csv.read_bytes() == sweep_csv.read_bytes()


def test_progress_heartbeat_renders_the_fleet_view(tmp_path, capsys):
    """``run_many(progress=True, fleet_dir=)`` heartbeats the summary
    line of the coordinator's :class:`~repro.fleet.FleetView`."""
    cells = [Cell(tag=f"c{i}", sleep=0.2) for i in range(3)]
    results = run_many(cells, fleet_dir=tmp_path / "fleet",
                       cache=_cache(tmp_path), processes=1, runner=compute,
                       progress=True, label="grid")
    assert [r["tag"] for r in results] == [c.tag for c in cells]
    beats = capsys.readouterr().err.splitlines()
    assert beats
    for line in beats:
        assert re.match(r"\[grid\] [0-3]/3 done.* — [01]/[01] worker\(s\) live",
                        line), line
