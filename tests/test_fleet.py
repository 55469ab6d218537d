"""Fleet fabric units: journal, leases, watchdog, coordinator, routing.

The chaos scenarios (worker SIGKILL, graceful drain, resume parity)
live in ``test_fleet_chaos.py``; this file covers the pieces in
isolation with fake clocks and the inline (``workers=0``) path.
"""

import json
import os
import sys
import threading
import time

import pytest

from fleet_helpers import Cell, calls, compute
from repro.cache import ResultCache
from repro.errors import ConfigError, FleetError
from repro.experiments.runner import TaskError, TaskFailure, run_many
from repro.fleet import (
    FleetObserver,
    FleetPaths,
    FleetWorker,
    Watchdog,
    format_summary,
    format_top,
    is_fatal,
    plan_fleet,
    run_fleet,
)
from repro.fleet import journal as jn
from repro.fleet import lease as ln
from repro.fleet.watchdog import backoff_delay

FP = "0" * 64


def _cache(tmp_path):
    return ResultCache(tmp_path / "cache", fingerprint=FP)


def _grid(tmp_path, n=4, **kw):
    log = tmp_path / "calls.log"
    return [Cell(tag=f"c{i}", log=str(log), **kw) for i in range(n)], log


# -- taxonomy ---------------------------------------------------------------

def test_taxonomy_classification():
    assert is_fatal(ConfigError("bad config"))
    assert is_fatal(TypeError("bad type"))
    assert not is_fatal(ValueError("transient"))
    assert not is_fatal(RuntimeError("transient"))
    # an explicit retryable attribute overrides the type-based default
    soft = ConfigError("overridden")
    soft.retryable = True
    assert not is_fatal(soft)
    hard = ValueError("poison")
    hard.retryable = False
    assert is_fatal(hard)


# -- journal ----------------------------------------------------------------

def test_journal_plan_and_records_roundtrip(tmp_path):
    paths = FleetPaths(tmp_path / "fleet").ensure()
    header = jn.new_header(
        runner_spec="fleet_helpers:compute",
        config_type_spec="fleet_helpers:Cell",
        fingerprint=FP, cache_dir="/nowhere", n_cells=2,
        max_attempts=3, backoff_base=0.5, lease_ttl=30.0)
    cells = [{"kind": "cell", "cell": f"k{i}", "index": i,
              "cached": False, "config": {"tag": f"c{i}"}}
             for i in range(2)]
    jn.write_plan(paths.journal, header, cells)
    jn.append_record(paths.journal, {"kind": "claim", "cell": "k0",
                                     "worker": "w1", "t": 1.0})
    jn.append_record(paths.journal, {"kind": "done", "cell": "k0",
                                     "worker": "w1", "t": 2.0})
    state = jn.load_state(paths.journal)
    assert state.header["runner"] == "fleet_helpers:compute"
    assert state.cells["k0"].status == jn.DONE
    assert state.cells["k0"].worker == "w1"
    assert state.cells["k1"].status == jn.PENDING
    assert [c.key for c in state.ordered()] == ["k0", "k1"]


def test_journal_tolerates_torn_tail(tmp_path):
    paths = FleetPaths(tmp_path / "fleet").ensure()
    header = jn.new_header(
        runner_spec="fleet_helpers:compute",
        config_type_spec="fleet_helpers:Cell",
        fingerprint=FP, cache_dir="/nowhere", n_cells=1,
        max_attempts=3, backoff_base=0.5, lease_ttl=30.0)
    jn.write_plan(paths.journal, header, [
        {"kind": "cell", "cell": "k0", "index": 0, "config": {}}])
    with paths.journal.open("a") as fh:
        fh.write('{"kind": "done", "cell": "k0", "wor')  # killed mid-append
    state = jn.load_state(paths.journal)
    assert state.cells["k0"].status == jn.PENDING  # torn line ignored


def test_journal_fold_splits_error_and_reclaim_budgets():
    header = {"kind": "fleet"}
    cell = {"kind": "cell", "cell": "k", "index": 0, "config": {}}
    err = {"kind": "error", "cell": "k", "attempt": 1, "error": "E: x",
           "not_before": 5.0}
    rec = {"kind": "reclaim", "cell": "k", "attempt": 1, "worker": "w9",
           "not_before": 7.0}
    state = jn.fold([header, cell, err, rec])
    assert state.cells["k"].attempts == 1
    assert state.cells["k"].reclaims == 1
    assert state.cells["k"].not_before == 7.0
    assert state.cells["k"].status == jn.PENDING
    # a terminal record flips the cell to failed, fatal flag preserved
    state = jn.fold([header, cell,
                     {"kind": "error", "cell": "k", "attempt": 1,
                      "error": "ConfigError: bad", "fatal": True,
                      "terminal": True}])
    assert state.cells["k"].status == jn.FAILED
    assert state.cells["k"].fatal


def test_config_json_roundtrip_restores_tuples():
    from repro.experiments.common import ScenarioConfig

    config = ScenarioConfig(scheme="ecmp", seed=7)
    data = json.loads(json.dumps(jn.config_to_json(config)))
    back = jn.config_from_json(ScenarioConfig, data)
    assert back == config


def test_callable_spec_rejects_unimportable():
    with pytest.raises(FleetError):
        jn.callable_spec(lambda c: c)


# -- leases -----------------------------------------------------------------

def test_lease_acquire_is_exclusive(tmp_path):
    got = ln.acquire(tmp_path, "k0", "w1")
    assert got is not None
    assert ln.acquire(tmp_path, "k0", "w2") is None
    ln.release(got)
    assert ln.acquire(tmp_path, "k0", "w2") is not None


def test_lease_renew_refuses_lost_ownership(tmp_path):
    got = ln.acquire(tmp_path, "k0", "w1")
    assert ln.renew(got)
    # the watchdog reclaimed it and another worker re-claimed
    got.path.unlink()
    other = ln.acquire(tmp_path, "k0", "w2")
    assert not ln.renew(got)  # w1 must not resurrect a foreign lease
    assert ln.read_lease(other.path)["worker"] == "w2"


def test_lease_staleness_is_heartbeat_based():
    assert ln.stale({"heartbeat": 100.0}, ttl=30.0, now=131.0)
    assert not ln.stale({"heartbeat": 100.0}, ttl=30.0, now=129.0)
    # no heartbeat at all reads as epoch-0: stale as soon as now > ttl
    assert ln.stale({}, ttl=30.0, now=31.0)


# -- watchdog ---------------------------------------------------------------

def test_backoff_delay_is_exponential():
    assert backoff_delay(0.5, 1) == 0.5
    assert backoff_delay(0.5, 2) == 1.0
    assert backoff_delay(0.5, 4) == 4.0


def _planned_fleet(tmp_path, cells, cache, **kw):
    return plan_fleet(tmp_path / "fleet", cells, cache=cache,
                      runner=compute, **kw)


def test_watchdog_reclaims_stale_lease(tmp_path):
    cells, _ = _grid(tmp_path, n=1)
    cache = _cache(tmp_path)
    _planned_fleet(tmp_path, cells, cache, lease_ttl=30.0)
    paths = FleetPaths(tmp_path / "fleet")
    now = [1000.0]
    got = ln.acquire(paths.leases, cache.key_for(cells[0]), "dead-worker",
                     clock=lambda: now[0])
    assert got is not None
    dog = Watchdog(paths, lease_ttl=30.0, clock=lambda: now[0])
    assert dog.scan(jn.load_state(paths.journal)) == []  # fresh: untouched
    now[0] += 31.0
    reclaimed = dog.scan(jn.load_state(paths.journal))
    assert reclaimed == [cache.key_for(cells[0])]
    assert not got.path.exists()
    state = jn.load_state(paths.journal)
    cell = state.cells[reclaimed[0]]
    assert cell.reclaims == 1 and cell.attempts == 0
    assert cell.status == jn.PENDING
    assert "dead-worker" in cell.error


def test_watchdog_reclaim_budget_terminates_crash_loop(tmp_path):
    cells, _ = _grid(tmp_path, n=1)
    cache = _cache(tmp_path)
    _planned_fleet(tmp_path, cells, cache, lease_ttl=30.0, max_reclaims=2)
    paths = FleetPaths(tmp_path / "fleet")
    key = cache.key_for(cells[0])
    now = [0.0]
    dog = Watchdog(paths, lease_ttl=30.0, max_reclaims=2,
                   clock=lambda: now[0])
    for round_ in (1, 2):
        ln.acquire(paths.leases, key, f"crash-{round_}",
                   clock=lambda: now[0])
        now[0] += 31.0
        assert dog.scan(jn.load_state(paths.journal)) == [key]
    state = jn.load_state(paths.journal)
    assert state.cells[key].status == jn.FAILED
    assert state.cells[key].reclaims == 2
    assert not state.cells[key].fatal  # exhausted, not poisoned


# -- coordinator ------------------------------------------------------------

def test_plan_fleet_marks_cached_cells(tmp_path):
    cells, _ = _grid(tmp_path, n=3)
    cache = _cache(tmp_path)
    cache.put(cells[1], compute(cells[1]))
    state = _planned_fleet(tmp_path, cells, cache)
    by_index = {c.index: c for c in state.ordered()}
    assert by_index[1].status == jn.DONE and by_index[1].cached
    assert by_index[0].status == jn.PENDING
    assert len(state.open_cells()) == 2


def test_plan_fleet_resume_rejects_different_grid(tmp_path):
    cells, _ = _grid(tmp_path, n=2)
    cache = _cache(tmp_path)
    _planned_fleet(tmp_path, cells, cache)
    other, _ = _grid(tmp_path, n=3)
    with pytest.raises(FleetError):
        _planned_fleet(tmp_path, other, cache)
    # the same grid resumes silently; no grid at all resumes too
    _planned_fleet(tmp_path, cells, cache)
    resumed = plan_fleet(tmp_path / "fleet", None, cache=cache)
    assert len(resumed.cells) == 2


def test_run_fleet_inline_completes_and_resumes(tmp_path):
    cells, log = _grid(tmp_path, n=4)
    cache = _cache(tmp_path)
    result = run_fleet(cells, fleet_dir=tmp_path / "fleet", cache=cache,
                       workers=0, runner=compute, lease_ttl=5.0)
    assert result.complete
    assert result.computed == 4 and result.cached == 0
    assert [r["tag"] for r in result.results] == [c.tag for c in cells]
    assert calls(log) == 4
    # resume: zero recomputation, everything served from the cache
    again = run_fleet(cells, fleet_dir=tmp_path / "fleet", cache=cache,
                      workers=0, runner=compute, lease_ttl=5.0)
    assert again.complete
    assert again.computed == 0 and again.cached == 4
    assert calls(log) == 4
    assert again.results == result.results


def test_run_fleet_fatal_cell_fails_exactly_once(tmp_path):
    cells, log = _grid(tmp_path, n=2)
    cells.append(Cell(tag="poison", fatal=True))
    cache = _cache(tmp_path)
    result = run_fleet(cells, fleet_dir=tmp_path / "fleet", cache=cache,
                       workers=0, runner=compute, max_attempts=3,
                       lease_ttl=5.0)
    assert result.complete
    assert len(result.failures) == 1
    failure = result.failures[0]
    assert isinstance(failure, TaskFailure)
    assert failure.index == 2
    assert failure.attempts == 1  # fatal: the budget was never spent
    assert "ConfigError" in failure.error
    # the failure also sits in its result slot, exactly once
    assert result.results[2] is failure
    # resuming re-reports the same failure without re-running it
    again = run_fleet(cells, fleet_dir=tmp_path / "fleet", cache=cache,
                      workers=0, runner=compute, lease_ttl=5.0)
    assert len(again.failures) == 1 and again.failures[0].index == 2


def test_run_fleet_retries_transient_errors(tmp_path):
    flake = tmp_path / "flake.marker"
    flake.touch()
    cells, log = _grid(tmp_path, n=2)
    cells.append(Cell(tag="flaky", log=str(log), flake_file=str(flake)))
    cache = _cache(tmp_path)
    result = run_fleet(cells, fleet_dir=tmp_path / "fleet", cache=cache,
                       workers=0, runner=compute, max_attempts=3,
                       backoff_base=0.01, lease_ttl=5.0)
    assert result.complete and not result.failures
    assert result.results[2]["tag"] == "flaky"
    assert not flake.exists()


def test_run_fleet_requires_cache(tmp_path):
    with pytest.raises(ConfigError):
        run_fleet([Cell(tag="x")], fleet_dir=tmp_path / "fleet", cache=None)


# -- run_many routing -------------------------------------------------------

def test_run_many_fleet_dir_routes_through_fabric(tmp_path):
    cells, log = _grid(tmp_path, n=3)
    cache = _cache(tmp_path)
    results = run_many(cells, fleet_dir=tmp_path / "fleet", cache=cache,
                       processes=0, runner=compute)
    assert [r["tag"] for r in results] == [c.tag for c in cells]
    assert calls(log) == 3
    assert (tmp_path / "fleet" / "fleet.jsonl").exists()
    # rerun resumes from the cache
    again = run_many(cells, fleet_dir=tmp_path / "fleet", cache=cache,
                     processes=0, runner=compute)
    assert again == results and calls(log) == 3


def test_run_many_fleet_dir_requires_cache(tmp_path):
    with pytest.raises(ConfigError):
        run_many([Cell(tag="x")], fleet_dir=tmp_path / "fleet",
                 runner=compute)


def test_run_many_fleet_dir_on_error_raise(tmp_path):
    cells = [Cell(tag="ok"), Cell(tag="poison", fatal=True)]
    cache = _cache(tmp_path)
    with pytest.raises(TaskError, match="ConfigError"):
        run_many(cells, fleet_dir=tmp_path / "fleet", cache=cache,
                 processes=0, runner=compute)
    # on_error="record" turns the same journal into a failure row
    results = run_many(cells, fleet_dir=tmp_path / "fleet", cache=cache,
                       processes=0, runner=compute, on_error="record")
    assert results[0]["tag"] == "ok"
    assert isinstance(results[1], TaskFailure)


# -- status + heartbeat rendering -------------------------------------------

def test_fleet_status_and_heartbeat(tmp_path):
    cells, _ = _grid(tmp_path, n=3)
    cells.append(Cell(tag="poison", fatal=True))
    cache = _cache(tmp_path)
    run_fleet(cells, fleet_dir=tmp_path / "fleet", cache=cache,
              workers=0, runner=compute, lease_ttl=5.0)
    view = FleetObserver(tmp_path / "fleet").refresh()
    assert view.counts["total"] == 4
    assert view.counts["done"] == 3
    assert view.counts["failed"] == 1
    assert view.counts["pending"] == 0
    line = format_summary(view, label="fleet")
    assert "3/4 done" in line and "1 failed" in line
    # the inline worker registered and finished
    workers = [row for row in format_top(view).splitlines()
               if row.startswith("  ")]
    assert len(workers) == 1
    assert "done=3" in workers[0]


def test_cli_fleet_status_missing_dir(tmp_path, capsys):
    from repro.cli import main

    assert main(["fleet", "status", "--dir", str(tmp_path / "nope")]) == 1
    assert "no fleet journal" in capsys.readouterr().err


# -- durability design ------------------------------------------------------

def test_inline_fleet_fsyncs_only_its_plan(tmp_path, monkeypatch):
    """The plan is fsync'd once per sweep; no lease, journal record or
    status write on the per-cell path calls ``fsync``."""
    synced = []
    real_fsync = os.fsync

    def counting_fsync(fd):
        synced.append(fd)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", counting_fsync)
    cells, _ = _grid(tmp_path, n=4)
    result = run_fleet(cells, fleet_dir=tmp_path / "fleet",
                       cache=_cache(tmp_path), workers=0, runner=compute,
                       lease_ttl=5.0)
    assert result.complete and result.computed == 4
    assert len(synced) == 1


def test_status_file_writes_scale_with_time_not_cells(tmp_path):
    """The worker status file is written at start, once per heartbeat
    and at exit — never once per cell."""
    cells, _ = _grid(tmp_path, n=20)
    lease_ttl = 30.0
    t0 = time.monotonic()
    result = run_fleet(cells, fleet_dir=tmp_path / "fleet",
                       cache=_cache(tmp_path), workers=0, runner=compute,
                       lease_ttl=lease_ttl)
    elapsed = time.monotonic() - t0
    assert result.computed == 20
    (status,) = FleetPaths(tmp_path / "fleet").worker_files()
    doc = json.loads(status.read_text())
    assert doc["state"] == "done"
    beats = int(elapsed / (lease_ttl / 4.0))
    assert doc["beats"] <= 2 + beats


def test_heartbeats_never_resurrect_a_released_lease(tmp_path):
    """Three worker threads (more than the cores) beat every 50 ms
    while short cells claim and release leases, with the interpreter
    switching threads every 10 µs: a renew that raced a release would
    re-create the lease file of a finished cell."""
    cells = [Cell(tag=f"s{i}", sleep=0.002) for i in range(60)]
    cache = _cache(tmp_path)
    fleet_dir = tmp_path / "fleet"
    plan_fleet(fleet_dir, cells, cache=cache, runner=compute, lease_ttl=0.2)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=FleetWorker(
            fleet_dir, cache=cache, runner=compute, worker_name=f"w{i}",
            poll=0.01).run) for i in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    paths = FleetPaths(fleet_dir)
    assert jn.load_state(paths.journal).counts()[jn.DONE] == len(cells)
    assert paths.lease_files() == []


def _lose_power(fleet_dir, cache_root):
    """What an OS crash may leave: the journal cut back to its plan
    records, one cache entry truncated to 0 bytes.  Returns the entry."""
    journal = FleetPaths(fleet_dir).journal
    records = [json.loads(line) for line in journal.read_text().splitlines()]
    plan = [r for r in records if r["kind"] in ("fleet", "cell")]
    assert len(plan) < len(records)  # the finished fleet journaled more
    journal.write_text("".join(json.dumps(r) + "\n" for r in plan))
    victim = sorted((cache_root / "objects").glob("*.pkl"))[0]
    victim.write_bytes(b"")
    return victim


def _tiny_configs():
    from repro.experiments.common import ScenarioConfig

    return [ScenarioConfig(scheme=scheme, n_short=4, n_long=0, n_paths=4,
                           hosts_per_leaf=4, horizon=0.5, seed=seed)
            for scheme in ("ecmp", "tlb") for seed in (1, 2)]


def test_power_loss_replay_through_run_many_matches_serial(tmp_path):
    """After lost journal records and a torn cache entry, resuming the
    same fleet directory yields the serial rows: every cell is
    re-claimed, three are cache hits, the torn one is quarantined and
    recomputed."""
    from repro.metrics.export import metrics_to_dict

    configs = _tiny_configs()
    serial = run_many(configs, processes=0)
    fleet_dir = tmp_path / "fleet"
    run_many(configs, processes=0, cache=_cache(tmp_path),
             fleet_dir=fleet_dir)
    victim = _lose_power(fleet_dir, tmp_path / "cache")

    cache = _cache(tmp_path)
    replay = run_many(configs, processes=0, cache=cache, fleet_dir=fleet_dir)
    assert [metrics_to_dict(r) for r in replay] == \
        [metrics_to_dict(r) for r in serial]
    assert cache.stats().quarantined == 1
    assert victim.stat().st_size > 0  # recomputed and stored again
    done = [r for r in jn.read_records(FleetPaths(fleet_dir).journal)
            if r["kind"] == "done"]
    assert len(done) == len(configs)
    assert sum(1 for r in done if not r.get("from_cache")) == 1


def test_power_loss_replay_through_fleet_resume_matches_serial(tmp_path,
                                                               capsys):
    """``repro fleet resume`` over a power-cut fleet directory writes the
    CSV ``repro sweep --processes 0`` writes over the same grid."""
    from repro.cli import main

    grid = ["--schemes", "ecmp", "tlb", "--loads", "0.3", "--flows", "10"]
    fleet_dir, cache_dir = tmp_path / "fdir", tmp_path / "fcache"
    serial_csv = tmp_path / "serial" / "out.csv"
    resumed_csv = tmp_path / "resumed" / "out.csv"
    serial_csv.parent.mkdir()
    resumed_csv.parent.mkdir()
    assert main(["sweep", *grid, "--processes", "0",
                 "--csv", str(serial_csv)]) == 0
    assert main(["fleet", "run", "--dir", str(fleet_dir), *grid,
                 "--workers", "0", "--cache-dir", str(cache_dir)]) == 0
    victim = _lose_power(fleet_dir, cache_dir)
    assert main(["fleet", "resume", "--dir", str(fleet_dir),
                 "--workers", "0", "--cache-dir", str(cache_dir),
                 "--csv", str(resumed_csv)]) == 0
    capsys.readouterr()
    assert resumed_csv.read_bytes() == serial_csv.read_bytes()
    assert victim.stat().st_size > 0
    assert len(list((cache_dir / "quarantine").glob("*.pkl"))) == 1
