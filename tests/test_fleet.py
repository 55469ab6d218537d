"""Fleet fabric units: journal, leases, watchdog, coordinator, routing.

The chaos scenarios (worker SIGKILL, graceful drain, resume parity)
live in ``test_fleet_chaos.py``; this file covers the pieces in
isolation with fake clocks and the inline (``workers=0``) path.
"""

import json

import pytest

from fleet_helpers import Cell, calls, compute
from repro.cache import ResultCache
from repro.errors import ConfigError, FleetError
from repro.experiments.runner import TaskError, TaskFailure, run_many
from repro.fleet import (
    FleetObserver,
    FleetPaths,
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
