"""Mission control: journal folding, liveness, stragglers, dashboards.

Everything here drives :class:`repro.fleet.observer.FleetObserver` over
synthetic journals with fake clocks — no subprocesses, no sleeps — plus
two real inline fleet runs to pin the metrics-file determinism
guarantee end to end.
"""

import json
import re
import threading
import time

from fleet_helpers import Cell, compute
from repro.fleet import FleetPaths, FleetWorker, plan_fleet, run_fleet
from repro.fleet import journal as jn
from repro.fleet.observer import (
    FleetObserver,
    fleet_metrics,
    format_summary,
    format_top,
    render_fleet_report,
    write_fleet_report,
)
from repro.cache import ResultCache
from repro.cli import main
from repro.obs.metrics import METRICS_JSON_NAME, METRICS_PROM_NAME, parse_prom

FP = "0" * 64
T0 = 1_000.0


def _plan(tmp_path, keys, *, lease_ttl=5.0, configs=None):
    """A fleet directory with a planned journal and no activity yet."""
    paths = FleetPaths(tmp_path / "fleet").ensure()
    header = jn.new_header(
        runner_spec="fleet_helpers:compute",
        config_type_spec="fleet_helpers:Cell",
        fingerprint=FP, cache_dir="/nowhere", n_cells=len(keys),
        max_attempts=3, backoff_base=0.5, lease_ttl=lease_ttl,
        clock=lambda: T0)
    cells = [{"kind": "cell", "cell": k, "index": i, "cached": False,
              "config": (configs[i] if configs else
                         {"scheme": "tlb", "load": 0.2 * (i + 1), "seed": i})}
             for i, k in enumerate(keys)]
    jn.write_plan(paths.journal, header, cells)
    return paths


def _append(paths, *records):
    for r in records:
        jn.append_record(paths.journal, r)


def _status(paths, name, **kw):
    payload = {"worker": name, "pid": 1, "host": "h", "state": "running",
               "cell": "", "heartbeat": T0, "uptime": 1.0, "beats": 1}
    payload.update(kw)
    (paths.workers / f"{name}.json").write_text(json.dumps(payload))


def _lease(paths, cell, worker, heartbeat):
    (paths.leases / f"{cell}.json").write_text(json.dumps(
        {"cell": cell, "worker": worker, "pid": 1, "host": "h",
         "acquired": heartbeat, "heartbeat": heartbeat}))


def _observer(paths, *, now=T0 + 100.0, mono=500.0):
    return FleetObserver(paths.root, clock=lambda: now, mono=lambda: mono)


# -- folding the journal into timelines -------------------------------------

def test_view_folds_worker_timelines_and_counts(tmp_path):
    paths = _plan(tmp_path, ["aaa", "bbb", "ccc", "ddd"])
    _append(
        paths,
        {"kind": "claim", "cell": "aaa", "worker": "w1", "t": T0 + 1},
        {"kind": "done", "cell": "aaa", "worker": "w1", "t": T0 + 3,
         "elapsed": 2.0},
        {"kind": "claim", "cell": "bbb", "worker": "w2", "t": T0 + 1},
        {"kind": "done", "cell": "bbb", "worker": "w2", "t": T0 + 2,
         "from_cache": True},
        {"kind": "claim", "cell": "ccc", "worker": "w2", "t": T0 + 4})
    view = _observer(paths, now=T0 + 10).refresh()

    assert view.counts == {"total": 4, "done": 2, "failed": 0,
                           "pending": 2, "running": 1}
    assert view.elapsed == 10.0
    w1, w2 = view.workers["w1"], view.workers["w2"]
    assert (w1.claims, w1.done, w1.cached) == (1, 1, 0)
    assert (w2.claims, w2.done, w2.cached) == (2, 1, 1)
    # spans are (t0, t1, slot, tooltip) relative to the first event
    assert w1.spans == [(1.0, 3.0, 0, w1.spans[0][3])]
    assert "computed" in w1.spans[0][3]
    slots = sorted(s[2] for s in w2.spans)
    assert slots == [2, 3]  # one cache hit, one still-running
    running = [s for s in w2.spans if s[2] == 3][0]
    assert running[0] == 4.0 and running[1] == 10.0
    # cumulative cache-hit share: bbb at t=2 (100%), aaa at t=3 (50%)
    assert view.cache_hit_series == [(2.0, 1.0), (3.0, 0.5)]


def test_error_spans_and_failed_counts(tmp_path):
    paths = _plan(tmp_path, ["aaa"])
    _append(
        paths,
        {"kind": "claim", "cell": "aaa", "worker": "w1", "t": T0 + 1},
        {"kind": "error", "cell": "aaa", "worker": "w1", "t": T0 + 2,
         "error": "ValueError: boom", "attempt": 3, "fatal": False,
         "terminal": True, "not_before": T0 + 2})
    view = _observer(paths).refresh()
    assert view.counts["failed"] == 1
    span = view.workers["w1"].spans[0]
    assert span[2] == 7 and "boom" in span[3]


def test_drain_rate_and_eta(tmp_path):
    paths = _plan(tmp_path, ["k0", "k1", "k2", "k3", "k4", "k5"])
    # three completions, one every 2 s → drain rate 0.5/s, 3 pending → 6 s
    for i in range(3):
        _append(
            paths,
            {"kind": "claim", "cell": f"k{i}", "worker": "w", "t": T0 + 2 * i},
            {"kind": "done", "cell": f"k{i}", "worker": "w",
             "t": T0 + 2 * (i + 1), "elapsed": 2.0})
    view = _observer(paths, now=T0 + 7).refresh()
    assert view.drain_rate == 0.5
    assert view.eta_seconds == 6.0


def test_reclaim_churn_attribution(tmp_path):
    paths = _plan(tmp_path, ["aaa", "bbb"])
    _append(
        paths,
        {"kind": "claim", "cell": "aaa", "worker": "crashy", "t": T0 + 1},
        {"kind": "reclaim", "cell": "aaa", "worker": "crashy",
         "by": "watchdog", "t": T0 + 40, "attempt": 1, "not_before": T0 + 40},
        {"kind": "claim", "cell": "aaa", "worker": "crashy", "t": T0 + 41},
        {"kind": "reclaim", "cell": "aaa", "worker": "crashy",
         "by": "w2", "t": T0 + 80, "attempt": 2, "not_before": T0 + 81})
    view = _observer(paths, now=T0 + 90).refresh()
    assert view.reclaim_total == 2
    assert view.workers["crashy"].reclaimed == 2
    # a reclaimed claim is no longer "running"
    assert view.counts["running"] == 0
    assert "reclaims: 2" in format_top(view)


def test_stragglers_flag_outliers_and_running_cells(tmp_path):
    keys = [f"k{i}" for i in range(6)]
    paths = _plan(tmp_path, keys)
    # five finish in ~1 s; the sixth has been running for 30 s
    for i in range(5):
        _append(
            paths,
            {"kind": "claim", "cell": keys[i], "worker": "w1", "t": T0 + i},
            {"kind": "done", "cell": keys[i], "worker": "w1", "t": T0 + i + 1,
             "elapsed": 1.0 + 0.01 * i})
    _append(paths, {"kind": "claim", "cell": "k5", "worker": "w2", "t": T0 + 5})
    view = _observer(paths, now=T0 + 35).refresh()
    assert view.median_elapsed == 1.02
    assert [c.key for c, _, _ in view.stragglers] == ["k5"]
    _, runtime, ratio = view.stragglers[0]
    assert runtime == 30.0 and ratio > 25
    assert "stragglers:" in format_top(view)


def test_no_stragglers_when_spread_is_tight(tmp_path):
    keys = [f"k{i}" for i in range(4)]
    paths = _plan(tmp_path, keys)
    for i, k in enumerate(keys):
        _append(
            paths,
            {"kind": "claim", "cell": k, "worker": "w", "t": T0 + i},
            {"kind": "done", "cell": k, "worker": "w", "t": T0 + i + 1,
             "elapsed": 1.0 + 0.1 * i})  # 1.3x median < factor and < +0.5 s
    view = _observer(paths).refresh()
    assert view.stragglers == []


# -- torn tails and interleaved writers -------------------------------------

def test_fold_tolerates_interleaved_torn_tail(tmp_path):
    """Records from two workers interleave; a crash tears the last line."""
    paths = _plan(tmp_path, ["aaa", "bbb"])
    _append(
        paths,
        {"kind": "claim", "cell": "aaa", "worker": "w1", "t": T0 + 1},
        {"kind": "claim", "cell": "bbb", "worker": "w2", "t": T0 + 1.5},
        {"kind": "done", "cell": "aaa", "worker": "w1", "t": T0 + 2,
         "elapsed": 1.0})
    with open(paths.journal, "a") as fh:  # torn mid-record write
        fh.write('{"kind": "done", "cell": "bbb", "worker": "w2", "t"')
    view = _observer(paths, now=T0 + 5).refresh()
    # the torn record is ignored: bbb is still running under w2
    assert view.counts["done"] == 1
    assert view.counts["running"] == 1
    assert view.workers["w2"].spans[0][2] == 3  # running slot
    # a later complete rewrite of the same record folds normally
    _append(paths, {"kind": "done", "cell": "bbb", "worker": "w2",
                    "t": T0 + 3, "elapsed": 1.5})
    view = _observer(paths, now=T0 + 5).refresh()
    assert view.counts["done"] == 2 and view.counts["running"] == 0


# -- skew-proof worker liveness ---------------------------------------------

def test_liveness_survives_wall_clock_skew(tmp_path):
    """A worker whose host clock is hours off must still read as live
    while its monotonic uptime advances."""
    paths = _plan(tmp_path, ["aaa"], lease_ttl=5.0)
    skewed = T0 - 7200.0  # heartbeat "two hours in the past"
    _status(paths, "w1", heartbeat=skewed, uptime=10.0)
    obs = _observer(paths, now=T0 + 100, mono=500.0)
    # first sight judges by wall age: a one-shot reader cannot tell a
    # skewed clock from a dead worker, so it errs toward stale
    assert not obs.refresh().workers["w1"].live

    # uptime advances between refreshes → live, regardless of wall skew
    _status(paths, "w1", heartbeat=skewed, uptime=14.0)
    obs.clock, obs.mono = (lambda: T0 + 110), (lambda: 510.0)
    assert obs.refresh().workers["w1"].live


def test_liveness_detects_frozen_uptime(tmp_path):
    """Uptime that stops advancing for > ttl on the reader's own
    monotonic clock marks the worker stale — even if something keeps
    freshening the file's wall-clock heartbeat."""
    paths = _plan(tmp_path, ["aaa"], lease_ttl=5.0)
    _status(paths, "w1", uptime=10.0, heartbeat=T0)
    obs = _observer(paths, now=T0, mono=500.0)
    assert obs.refresh().workers["w1"].live

    # 6 s of reader-monotonic time later, uptime still reads 10.0
    _status(paths, "w1", uptime=10.0, heartbeat=T0 + 6)  # fresh wall stamp!
    obs.clock, obs.mono = (lambda: T0 + 6), (lambda: 506.0)
    view = obs.refresh()
    assert not view.workers["w1"].live
    assert "[stale]" in format_top(view)


def test_drained_workers_are_never_live(tmp_path):
    paths = _plan(tmp_path, ["aaa"])
    _status(paths, "w1", state="drained", uptime=3.0)
    assert not _observer(paths).refresh().workers["w1"].live


def test_frozen_status_stays_stale_across_refreshes(tmp_path):
    """First sight dates the last uptime advance by the wall heartbeat,
    so a frozen worker does not turn live on the second refresh."""
    paths = _plan(tmp_path, ["aaa"], lease_ttl=5.0)
    _status(paths, "w1", heartbeat=T0 + 90, uptime=10.0)  # 10 s old
    obs = _observer(paths, now=T0 + 100, mono=500.0)
    assert not obs.refresh().workers["w1"].live
    obs.clock, obs.mono = (lambda: T0 + 101), (lambda: 501.0)
    assert not obs.refresh().workers["w1"].live
    _status(paths, "w1", heartbeat=T0 + 90, uptime=11.0)  # it moved
    assert obs.refresh().workers["w1"].live


# -- running: the watchdog's lease test -------------------------------------

def test_claim_behind_a_stale_lease_is_not_running(tmp_path):
    """After a crash the claim stays open but its lease goes stale: the
    cell is no longer running, in the counts or on screen."""
    paths = _plan(tmp_path, ["aaa", "bbb"], lease_ttl=5.0)
    _append(paths,
            {"kind": "claim", "cell": "aaa", "worker": "w1", "t": T0 + 1},
            {"kind": "claim", "cell": "bbb", "worker": "w2", "t": T0 + 2})
    _lease(paths, "aaa", "w1", heartbeat=T0 + 1)    # crashed long ago
    _lease(paths, "bbb", "w2", heartbeat=T0 + 99)   # renewed 1 s ago
    view = _observer(paths, now=T0 + 100).refresh()
    assert view.counts["running"] == 1
    assert [(lease["cell"], lease["stale"]) for lease in view.leases] == [
        ("aaa", True), ("bbb", False)]
    text = format_top(view)
    assert "(1 running)" in text
    assert "1 stale lease(s) awaiting reclaim" in text

    (paths.leases / "bbb.json").unlink()
    _lease(paths, "bbb", "w2", heartbeat=T0 + 1)    # w2 died too
    view = _observer(paths, now=T0 + 100).refresh()
    assert view.counts["running"] == 0
    assert "[fleet] 0/2 done — " in format_summary(view)


# -- dashboards -------------------------------------------------------------

def _busy_view(tmp_path):
    paths = _plan(tmp_path, ["aaa", "bbb", "ccc"])
    _append(
        paths,
        {"kind": "claim", "cell": "aaa", "worker": "w1", "t": T0 + 1},
        {"kind": "done", "cell": "aaa", "worker": "w1", "t": T0 + 2,
         "elapsed": 1.0},
        {"kind": "claim", "cell": "bbb", "worker": "w2", "t": T0 + 1},
        {"kind": "done", "cell": "bbb", "worker": "w2", "t": T0 + 3,
         "from_cache": True},
        {"kind": "claim", "cell": "ccc", "worker": "w1", "t": T0 + 3},
        {"kind": "done", "cell": "ccc", "worker": "w1", "t": T0 + 4,
         "elapsed": 0.9})
    _status(paths, "w1", state="idle", uptime=4.0)
    return paths, _observer(paths, now=T0 + 5).refresh()


def test_report_html_renders_swimlanes_and_histogram(tmp_path):
    paths, view = _busy_view(tmp_path)
    html = render_fleet_report(view)
    assert html.startswith("<!DOCTYPE html>")
    assert 'class="viz-swimlane"' in html
    assert 'id="panel-swimlanes"' in html
    assert 'id="panel-latency"' in html
    assert 'id="panel-workers"' in html
    # worker lane labels and the cache-effectiveness series made it in
    assert ">w1<" in html or "w1" in html
    out = write_fleet_report(paths.root, tmp_path / "r" / "report.html",
                             observer=_observer(paths, now=T0 + 5))
    assert out.read_text() == render_fleet_report(
        _observer(paths, now=T0 + 5).refresh())


def test_report_html_on_empty_fleet(tmp_path):
    paths = _plan(tmp_path, ["aaa"])
    html = render_fleet_report(_observer(paths).refresh())
    assert "No worker activity journaled yet" in html


def test_format_top_summary_lines(tmp_path):
    _, view = _busy_view(tmp_path)
    text = format_top(view)
    assert "[fleet] 3/3 done" in text
    assert "w1" in text and "cache-hit share: 33%" in text


# -- fleet metrics ----------------------------------------------------------

def test_fleet_metrics_counts_and_volatility(tmp_path):
    paths = _plan(tmp_path, ["aaa", "bbb"])
    _append(
        paths,
        {"kind": "claim", "cell": "aaa", "worker": "w1", "t": T0 + 1},
        {"kind": "done", "cell": "aaa", "worker": "w1", "t": T0 + 2,
         "elapsed": 1.0},
        {"kind": "claim", "cell": "bbb", "worker": "w2", "t": T0 + 1},
        {"kind": "error", "cell": "bbb", "worker": "w2", "t": T0 + 2,
         "error": "ValueError: x", "attempt": 1, "fatal": False,
         "not_before": T0 + 3},
        {"kind": "reclaim", "cell": "bbb", "worker": "w2", "by": "wd",
         "t": T0 + 40, "attempt": 1, "not_before": T0 + 41},
        {"kind": "drain", "worker": "w2", "signal": "SIGTERM", "t": T0 + 41})
    reg = fleet_metrics(jn.read_records(paths.journal))
    assert reg.counter("repro_fleet_claims_total").total() == 2
    assert reg.counter("repro_fleet_done_total").value(from_cache="false") == 1
    assert reg.counter("repro_fleet_errors_total").value(terminal="false") == 1
    assert reg.gauge("repro_fleet_cells").value(status="done") == 1
    # scheduling-dependent facts are volatile → absent from canonical JSON
    doc = json.loads(reg.canonical_json())
    assert "repro_fleet_claims_total" in doc["metrics"]
    for racy in ("repro_fleet_reclaims_total", "repro_fleet_drains_total",
                 "repro_fleet_cell_seconds", "repro_fleet_worker_done_total",
                 "repro_fleet_workers"):
        assert racy not in doc["metrics"]
        assert racy in reg.to_prom_text()


def _run_once(tmp_path, tag):
    log = tmp_path / f"calls-{tag}.log"
    cells = [Cell(tag=f"c{i}", log=str(log)) for i in range(4)]
    cache = ResultCache(tmp_path / f"cache-{tag}", fingerprint=FP)
    fleet_dir = tmp_path / f"fleet-{tag}"
    result = run_fleet(cells, fleet_dir=fleet_dir, cache=cache,
                       workers=0, runner=compute, lease_ttl=5.0)
    assert result.complete
    return fleet_dir


def test_fleet_run_writes_byte_identical_metrics(tmp_path):
    """Two fresh seeded fleet runs → byte-identical metrics.json; the
    prom file exists and parses."""
    dir_a = _run_once(tmp_path, "a")
    dir_b = _run_once(tmp_path, "b")
    json_a = (dir_a / METRICS_JSON_NAME).read_bytes()
    json_b = (dir_b / METRICS_JSON_NAME).read_bytes()
    assert json_a == json_b
    doc = json.loads(json_a)
    assert doc["metrics"]["repro_fleet_cells"]["samples"] == [
        {"labels": {"status": "done"}, "value": 4},
        {"labels": {"status": "failed"}, "value": 0},
        {"labels": {"status": "pending"}, "value": 0},
    ]
    samples = parse_prom((dir_a / METRICS_PROM_NAME).read_text())
    assert samples["repro_fleet_claims_total"][()] == 4
    assert samples["repro_fleet_done_total"][(("from_cache", "false"),)] == 4


# -- one reader, one verdict ------------------------------------------------

def _cli(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def _html_rows(html: str, panel: str) -> list[list[str]]:
    section = re.search(f'<section id="{panel}">(.*?)</section>', html).group(1)
    return [re.findall(r"<td>(.*?)</td>", row)
            for row in re.findall(r"<tr>(.*?)</tr>", section)][1:]


def _report(capsys, tmp_path, fleet_dir) -> tuple[str, dict, dict]:
    """(stdout, overview facts, worker → live column) of ``fleet report``."""
    html_path = tmp_path / "report.html"
    out = _cli(capsys, "fleet", "report", fleet_dir, "--html", str(html_path))
    html = html_path.read_text()
    overview = dict(_html_rows(html, "panel-overview"))
    live = {row[0]: row[2] for row in _html_rows(html, "panel-workers")}
    return out, overview, live


def test_first_sight_frozen_worker_is_stale_in_every_reader(tmp_path, capsys):
    """A status file that froze (``state: running``, heartbeat older than
    the TTL) reads not-live in ``fleet status`` text and ``--json``, in
    one ``fleet top`` frame and in ``fleet report``'s workers table."""
    paths = _plan(tmp_path, ["aaa"], lease_ttl=5.0)
    _status(paths, "w1", heartbeat=time.time() - 3600.0)
    fleet_dir = str(paths.root)

    for argv in (("fleet", "status", "--dir", fleet_dir),
                 ("fleet", "top", "--dir", fleet_dir,
                  "--iterations", "1", "--no-clear")):
        text = _cli(capsys, *argv)
        assert "0/1 worker(s) live" in text
        assert "[stale]" in text and "[live]" not in text
    doc = json.loads(_cli(capsys, "fleet", "status", "--dir", fleet_dir,
                          "--json"))
    assert [w["live"] for w in doc["workers"]] == [False]
    out, overview, live = _report(capsys, tmp_path, fleet_dir)
    assert "0/1 worker(s) live" in out
    assert overview["workers live"] == "0/1"
    assert live == {"w1": "no"}


def test_every_reader_agrees_on_one_directory(tmp_path, capsys):
    """Counts and liveness are identical in the heartbeat line, ``fleet
    status`` text and ``--json``, a ``fleet top`` frame and the
    ``fleet report`` overview and workers tables."""
    now = time.time()
    paths = _plan(tmp_path, ["done", "fail", "hit", "back", "crash"],
                  lease_ttl=30.0)
    _append(
        paths,
        {"kind": "claim", "cell": "done", "worker": "alive", "t": now - 60},
        {"kind": "done", "cell": "done", "worker": "alive", "t": now - 50,
         "elapsed": 10.0},
        {"kind": "claim", "cell": "fail", "worker": "dead", "t": now - 45},
        {"kind": "error", "cell": "fail", "worker": "dead", "t": now - 44,
         "error": "ConfigError: bad", "attempt": 1, "fatal": True,
         "terminal": True, "not_before": now - 44},
        {"kind": "claim", "cell": "hit", "worker": "alive", "t": now - 41},
        {"kind": "done", "cell": "hit", "worker": "alive", "t": now - 40,
         "from_cache": True},
        {"kind": "claim", "cell": "back", "worker": "gone", "t": now - 30},
        {"kind": "error", "cell": "back", "worker": "gone", "t": now - 29,
         "error": "ValueError: flaky", "attempt": 1, "fatal": False,
         "not_before": now + 3600},
        {"kind": "drain", "worker": "gone", "signal": "SIGTERM",
         "t": now - 28},
        {"kind": "claim", "cell": "crash", "worker": "dead", "t": now - 20})
    _lease(paths, "crash", "dead", heartbeat=now - 3600)
    _status(paths, "alive", heartbeat=now, uptime=60.0)
    _status(paths, "dead", heartbeat=now - 3600, uptime=30.0)
    _status(paths, "gone", state="drained", heartbeat=now, uptime=40.0)
    fleet_dir = str(paths.root)
    expected_live = {"alive": True, "dead": False, "gone": False}

    heartbeat = format_summary(FleetObserver(fleet_dir).refresh())
    assert heartbeat.startswith(
        "[fleet] 2/5 done [1 failed, 1 backing off] — 1/3 worker(s) live")
    status = _cli(capsys, "fleet", "status", "--dir", fleet_dir)
    top = _cli(capsys, "fleet", "top", "--dir", fleet_dir,
               "--iterations", "1", "--no-clear")
    for frame in (status, top):
        lines = frame.splitlines()
        assert lines[1] == heartbeat
        assert "cells: 2/5 done, 1 failed, 2 pending (0 running)" in lines[2]
        assert "1 stale lease(s) awaiting reclaim" in lines
        marks = {row.split()[0]: "[live]" in row for row in lines
                 if row.startswith("  ") and row.split()[0] in expected_live}
        assert marks == expected_live

    doc = json.loads(_cli(capsys, "fleet", "status", "--dir", fleet_dir,
                          "--json"))
    assert doc["cells"] == {"total": 5, "done": 2, "failed": 1,
                            "pending": 2, "running": 0, "backoff": 1}
    assert {w["worker"]: w["live"] for w in doc["workers"]} == expected_live
    assert [(lease["cell"], lease["stale"]) for lease in doc["leases"]] == [
        ("crash", True)]
    # every key the pre-view status document carried, same meaning
    assert {"dir", "header", "cells", "workers", "leases"} <= set(doc)
    for w in doc["workers"]:
        assert {"worker", "pid", "host", "state", "cell", "done", "failed",
                "age", "uptime", "beats", "live"} <= set(w)
    assert {w["worker"]: (w["done"], w["failed"]) for w in doc["workers"]} \
        == {"alive": (2, 0), "dead": (0, 1), "gone": (0, 0)}
    assert set(doc["leases"][0]) == {"cell", "worker", "age", "stale"}

    out, overview, live = _report(capsys, tmp_path, fleet_dir)
    assert out.splitlines()[0] == heartbeat
    assert {k: overview[k] for k in (
        "cells", "done", "failed", "pending", "running", "backing off",
        "workers live")} == {
        "cells": "5", "done": "2", "failed": "1", "pending": "2",
        "running": "0", "backing off": "1", "workers live": "1/3"}
    assert live == {name: "yes" if v else "no"
                    for name, v in expected_live.items()}


def test_fleet_result_carries_the_metrics_it_wrote(tmp_path):
    cells = [Cell(tag=f"c{i}") for i in range(3)]
    result = run_fleet(cells, fleet_dir=tmp_path / "fleet",
                       cache=ResultCache(tmp_path / "cache", fingerprint=FP),
                       workers=0, runner=compute)
    assert result.metrics.canonical_json() == (
        tmp_path / "fleet" / METRICS_JSON_NAME).read_text()


def test_idle_worker_waiting_on_a_long_cell_stays_live(tmp_path):
    """A worker with nothing left to claim keeps heartbeating while
    another worker runs a long cell, so every refresh reads it live."""
    cache = ResultCache(tmp_path / "cache", fingerprint=FP)
    fleet_dir = tmp_path / "fleet"
    plan_fleet(fleet_dir, [Cell(tag="slow", sleep=2.0), Cell(tag="quick")],
               cache=cache, runner=compute, lease_ttl=0.4)
    paths = FleetPaths(fleet_dir)

    def start(name):
        worker = FleetWorker(fleet_dir, cache=cache, runner=compute,
                             worker_name=name, poll=0.05)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        return thread

    busy = start("busy")
    deadline = time.monotonic() + 5.0
    while not paths.lease_files():  # "busy" holds the slow cell first
        assert time.monotonic() < deadline
        time.sleep(0.01)
    idle = start("idle")
    observer = FleetObserver(fleet_dir)
    while observer.refresh().counts["done"] < 1:  # "idle" ran the quick cell
        assert time.monotonic() < deadline
        time.sleep(0.01)
    seen = []
    for _ in range(6):
        time.sleep(0.2)
        view = observer.refresh()
        if view.counts["pending"] == 0:
            break
        seen.append((view.workers["idle"].live, view.workers["busy"].live))
    busy.join(timeout=10.0)
    idle.join(timeout=10.0)
    assert not busy.is_alive() and not idle.is_alive()
    assert len(seen) >= 4
    assert seen == [(True, True)] * len(seen)
