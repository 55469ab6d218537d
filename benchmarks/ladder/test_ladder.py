"""Self-test of the benchmark ladder at ``--smoke`` size.

Run with ``python -m pytest benchmarks/ladder -q`` (outside the tier-1
``testpaths``).  The whole ladder runs once at ~1/20 size; every other
test reuses that run or calls the harness in-process.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.ladder import REPO_ROOT, compare, layers, run, workloads
from benchmarks.ladder.metrics import END_TO_END, PER_LAYER

MANIFEST = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _ladder(out: Path, seed: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.ladder.run", "--smoke",
         "--seed", str(seed), "--out", str(out)],
        cwd=REPO_ROOT, capture_output=True, text=True)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("ladder") / "smoke.json"
    done = _ladder(out, seed=5)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return json.loads(out.read_text()), done.stdout


def test_manifest_matches_the_declared_metrics():
    assert MANIFEST["paths"] == ["benchmarks/ladder"]
    assert [w["name"] for w in MANIFEST["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in MANIFEST["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in MANIFEST["per_layer"]] == [row[:3] for row in PER_LAYER]
    names = [m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]
             + MANIFEST["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    setup = MANIFEST["end_to_end"][0]
    assert setup["name"] == "setup_s"
    assert setup["bound"] == max(m["bound"] for m in MANIFEST["end_to_end"])


def test_every_declared_name_is_reported_with_a_finite_value(smoke):
    doc, stdout = smoke
    assert doc["correct"]
    assert sorted(doc["workloads"]) == sorted(workloads.WORKLOADS)
    assert "generator_lateness: n/a" in stdout and "nproc:" in stdout
    for name, entry in doc["workloads"].items():
        e2e = entry["untraced"]["end_to_end"]
        for metric, unit, _, _ in END_TO_END:
            assert math.isfinite(e2e[metric]["value"]) and e2e[metric]["value"] > 0
            assert re.search(rf"{re.escape(metric)}\s+[\d.,e+-]+ {re.escape(unit)}",
                             stdout), metric
        layer_values = entry["traced"]["layers"]
        for metric, _, _, _, _, _ in PER_LAYER:
            assert math.isfinite(layer_values[metric]), (name, metric)
            assert metric in stdout
        assert entry["untraced"]["failed"] == 0
        assert entry["traced"]["outcome"]["outcome_digest"] == \
            entry["untraced"]["outcome"]["outcome_digest"]


def test_layer_separation_shows_in_the_trace(smoke):
    doc, _ = smoke
    grid = doc["workloads"]["tiny_grid"]["traced"]
    assert grid["layers"]["cache.misses"] == 0
    assert not any(row["phase"] == "warm" and row["name"] == "sim.run"
                   for row in grid["span_table"])
    web = doc["workloads"]["websearch_fabric"]["traced"]["attribution"]
    assert web["profile_coverage"] >= 0.95
    assert sum(web["shares"].values()) > 0.8


def test_one_workload_run_ends_with_the_driver_json_line():
    done = subprocess.run(
        [sys.executable, "benchmarks/ladder/run.py", "--workload", "tiny_grid",
         "--seed", "5", "--seconds", "1", "--trace", "0", "--smoke"],
        cwd=REPO_ROOT, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr[-3000:]
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in MANIFEST["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == \
        {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}


def test_two_runs_of_one_seed_give_identical_digests_and_counts(smoke, tmp_path):
    doc, _ = smoke
    again = tmp_path / "again.json"
    assert _ladder(again, seed=5).returncode == 0
    lines, ok = compare.compare([doc], [json.loads(again.read_text())])
    assert not [line for line in lines if "OUTCOME DIFFERS" in line]
    for name, entry in json.loads(again.read_text())["workloads"].items():
        first = doc["workloads"][name]
        assert entry["untraced"]["outcome"] == first["untraced"]["outcome"]
        for metric, _, _, _, source, _ in PER_LAYER:
            if source == "count":
                assert entry["traced"]["layers"][metric] == \
                    first["traced"]["layers"][metric], metric


def test_checks_fire_on_a_corrupted_result(monkeypatch, capsys):
    workload = workloads.WORKLOADS["tiny_grid"]
    configs = workload.configs(5, workloads.SMOKE_SCALE)
    with workloads.work_dir() as tmp:
        _, results = workloads.cold_phase(configs, tmp / "cache")
    good = workloads.outcome(results)
    assert workloads.check_outcome(good, good) == []
    for key, value in (("completed", good["completed"] - 1),
                       ("short_delivery", 1), ("port_leaks", 2),
                       ("cells_failed", 1)):
        assert workloads.check_outcome({**good, key: value}, good)
    assert workloads.check_outcome({**good, "outcome_digest": "0" * 64}, good)

    real_observe = workloads.observe
    calls = []

    def flaky_observe(result):
        out = real_observe(result)
        calls.append(1)
        if len(calls) % 7 == 0:  # not every pass sees the same cells corrupted
            out["ladder_digest"] = "corrupted"
        return out

    monkeypatch.setattr(workloads, "observe", flaky_observe)
    code = run.main(["--workload", "tiny_grid", "--seed", "5", "--seconds", "1",
                     "--trace", "0", "--smoke", "--quiet"])
    line = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1 and not line["correct"] and line["failed"] > 0


def test_a_rung_cannot_silently_time_an_error_path(monkeypatch):
    assert layers._switch_once(100, rounds=1) > 0
    monkeypatch.setattr(layers._StubPort, "enqueue", lambda self, pkt: False)
    with pytest.raises(layers.RungError):
        layers._switch_once(100, rounds=1)


def test_compare_labels_noise_wider_than_the_bound_unresolved():
    def doc(wall, digest="d"):
        metric = {"samples": wall}
        e2e = {name: metric for name, _, _, _ in END_TO_END}
        out = dict.fromkeys(compare.EXACT, 1) | {"outcome_digest": digest}
        return {"seed": 1, "workloads": {"w": {"untraced": {
            "end_to_end": e2e, "outcome": out}}}}

    steady, slower = [1.0, 1.01, 1.02, 1.0], [1.3, 1.31, 1.32, 1.3]
    noisy = [1.0, 1.4, 0.8, 1.2]
    assert compare.judge(steady, steady, "lower", 0.1)["label"] == "within"
    assert compare.judge(steady, slower, "lower", 0.1)["label"] == "regressed"
    assert compare.judge(slower, steady, "lower", 0.1)["label"] == "better"
    assert compare.judge(slower[:2], steady[:2], "lower", 0.1)["label"] == "within"
    assert compare.judge(steady, noisy, "lower", 0.1)["label"] == "unresolved"
    assert compare.compare([doc(steady)], [doc(steady)])[1]
    assert not compare.compare([doc(steady)], [doc(noisy)])[1]
    lines, ok = compare.compare([doc(steady)], [doc(steady, digest="e")])
    assert not ok and any("OUTCOME DIFFERS: outcome_digest" in l for l in lines)
