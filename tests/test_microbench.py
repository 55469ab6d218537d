"""Tests for the hot-path microbenchmark harness (``repro bench --micro``)."""

import json

import pytest

from repro.cli import main
from repro.errors import ConfigError
from repro.experiments.microbench import (
    SCENARIOS,
    compare_to_baseline,
    format_rows,
    run_microbench,
    write_microbench_json,
)


def test_rows_have_required_fields():
    rows = run_microbench(["event_storm", "port_saturation"],
                          seed=1, scale=0.02, repeats=1)
    assert [r["scenario"] for r in rows] == ["event_storm", "port_saturation"]
    for row in rows:
        assert row["throughput_events_per_s"] > 0
        assert len(row["checksum"]) == 16
        int(row["checksum"], 16)  # hex
    assert rows[1]["throughput_packets_per_s"] > 0


def test_checksums_are_scale_and_repeat_free():
    # The determinism probe is fixed-size: a reduced CI budget must hash
    # to the same value as a full local run.
    a = run_microbench(["event_storm"], seed=7, scale=0.02, repeats=1)
    b = run_microbench(["event_storm"], seed=7, scale=0.05, repeats=2)
    assert a[0]["checksum"] == b[0]["checksum"]


def test_checksum_depends_on_seed():
    a = run_microbench(["event_storm"], seed=1, scale=0.02, repeats=1)
    b = run_microbench(["event_storm"], seed=2, scale=0.02, repeats=1)
    assert a[0]["checksum"] != b[0]["checksum"]


def test_invalid_inputs_rejected():
    with pytest.raises(ConfigError):
        run_microbench(["no_such_scenario"], scale=0.02)
    with pytest.raises(ConfigError):
        run_microbench(scale=0.0)


def test_compare_annotates_speedups_and_flags():
    rows = [{"scenario": "event_storm", "throughput_events_per_s": 200_000,
             "checksum": "aa"}]
    base = [{"scenario": "event_storm", "throughput_events_per_s": 100_000,
             "checksum": "aa"}]
    warnings, drift = compare_to_baseline(rows, base)
    assert warnings == [] and drift == []
    assert rows[0]["speedup_events"] == 2.0
    assert rows[0]["baseline_throughput_events_per_s"] == 100_000
    assert rows[0]["checksum_match"] is True
    assert "2.00x baseline" in format_rows(rows)


def test_compare_warns_on_slowdown_but_hard_flags_drift():
    rows = [{"scenario": "event_storm", "throughput_events_per_s": 50_000,
             "checksum": "aa"}]
    base = [{"scenario": "event_storm", "throughput_events_per_s": 100_000,
             "checksum": "bb"}]
    warnings, drift = compare_to_baseline(rows, base)
    assert len(warnings) == 1 and "0.50x" in warnings[0]
    assert len(drift) == 1 and "checksum" in drift[0]
    assert rows[0]["checksum_match"] is False


def test_all_scenarios_registered():
    assert set(SCENARIOS) == {"event_storm", "port_saturation", "leaf_spine"}


def test_cli_micro_writes_json_and_compares(tmp_path, capsys):
    out = tmp_path / "micro.json"
    assert main(["bench", "--micro", "--micro-scale", "0.02",
                 "--repeats", "1", "--json", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert {r["scenario"] for r in rows} == set(SCENARIOS)

    # Same code vs its own output: checksums identical, exit 0 even
    # under --require-identical.
    out2 = tmp_path / "micro2.json"
    assert main(["bench", "--micro", "--micro-scale", "0.02",
                 "--repeats", "1", "--json", str(out2),
                 "--baseline", str(out), "--require-identical"]) == 0

    # A tampered baseline checksum is determinism drift: exit 2.
    rows[0]["checksum"] = "0" * 16
    tampered = tmp_path / "tampered.json"
    write_microbench_json(tampered, rows)
    capsys.readouterr()
    assert main(["bench", "--micro", "--micro-scale", "0.02",
                 "--repeats", "1", "--json", str(tmp_path / "micro3.json"),
                 "--baseline", str(tampered), "--require-identical"]) == 2
    assert "DETERMINISM DRIFT" in capsys.readouterr().err


def test_packet_scenarios_are_judged_and_printed_in_packets_per_s():
    """Fewer events per packet must not read as a slowdown."""
    rows = [{"scenario": "leaf_spine", "throughput_events_per_s": 70_000,
             "throughput_packets_per_s": 65_000, "checksum": "aa"}]
    base = [{"scenario": "leaf_spine", "throughput_events_per_s": 100_000,
             "throughput_packets_per_s": 50_000, "checksum": "aa"}]
    warnings, drift = compare_to_baseline(rows, base)
    assert warnings == [] and drift == []
    assert "(1.30x baseline pkt/s, 0.70x ev/s)" in format_rows(rows)
    rows[0]["throughput_packets_per_s"] = 25_000
    warnings, _ = compare_to_baseline(rows, base)
    assert len(warnings) == 1 and "packets" in warnings[0]
