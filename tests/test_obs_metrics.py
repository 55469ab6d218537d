"""The metrics registry: instruments, exposition, determinism, merging."""

import json
import math
import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    METRICS_JSON_NAME,
    METRICS_PROM_NAME,
    MetricsRegistry,
    get_registry,
    parse_prom,
)


# -- instruments ------------------------------------------------------------

def test_counter_labels_and_totals():
    reg = MetricsRegistry()
    c = reg.counter("hits_total", "Hits.")
    c.inc()
    c.inc(2, scheme="tlb")
    c.inc(scheme="tlb")
    assert c.value() == 1
    assert c.value(scheme="tlb") == 3
    assert c.value(scheme="ecmp") == 0
    assert c.total() == 4


def test_counter_rejects_negative():
    c = MetricsRegistry().counter("c")
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_set_inc_dec():
    g = MetricsRegistry().gauge("depth")
    g.set(5)
    g.inc(2)
    g.inc(-1)
    assert g.value() == 6
    g.set(1.5, queue="a")
    assert g.value(queue="a") == 1.5


def test_histogram_cumulative_buckets():
    h = MetricsRegistry().histogram("lat", buckets=(0.1, 1.0, 10.0))
    for v in (0.05, 0.5, 0.5, 5.0, 50.0):
        h.observe(v)
    assert h.count() == 5
    assert h.sum() == pytest.approx(56.05)
    snap = h._children[()]
    # per-bucket (non-cumulative) internal counts: <=0.1, <=1, <=10, +Inf
    assert snap["counts"] == [1, 2, 1, 1]


def test_registry_get_or_create_and_kind_clash():
    reg = MetricsRegistry()
    a = reg.counter("x", "first help wins")
    b = reg.counter("x", "ignored")
    assert a is b
    assert a.help == "first help wins"
    with pytest.raises(ValueError):
        reg.gauge("x")


def test_registry_reset_and_names():
    reg = MetricsRegistry()
    reg.counter("b")
    reg.gauge("a")
    assert reg.names() == ["a", "b"]
    reg.reset()
    assert reg.names() == []


def test_thread_safety_under_contention():
    reg = MetricsRegistry()
    c = reg.counter("n")

    def work():
        for _ in range(1000):
            c.inc()

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert c.value() == 8000


# -- prometheus exposition --------------------------------------------------

def _populated():
    reg = MetricsRegistry()
    reg.counter("req_total", "Requests.").inc(3, code="200")
    reg.counter("req_total").inc(1, code="500")
    reg.gauge("workers", "Live workers.").set(2)
    h = reg.histogram("lat_seconds", "Latency.", buckets=(0.1, 1.0))
    h.observe(0.05)
    h.observe(0.5)
    h.observe(5.0)
    return reg


def test_prom_text_format():
    text = _populated().to_prom_text()
    assert "# HELP req_total Requests." in text
    assert "# TYPE req_total counter" in text
    assert 'req_total{code="200"} 3' in text
    assert "# TYPE lat_seconds histogram" in text
    # cumulative buckets: 1 <= 0.1, 2 <= 1.0, 3 <= +Inf
    assert 'lat_seconds_bucket{le="0.1"} 1' in text
    assert 'lat_seconds_bucket{le="1"} 2' in text
    assert 'lat_seconds_bucket{le="+Inf"} 3' in text
    assert "lat_seconds_count 3" in text
    assert text.endswith("\n")


def test_parse_prom_round_trip():
    samples = parse_prom(_populated().to_prom_text())
    assert samples["req_total"][(("code", "200"),)] == 3
    assert samples["req_total"][(("code", "500"),)] == 1
    assert samples["workers"][()] == 2
    assert samples["lat_seconds_bucket"][(("le", "+Inf"),)] == 3
    assert samples["lat_seconds_count"][()] == 3
    assert samples["lat_seconds_sum"][()] == pytest.approx(5.55)


def test_parse_prom_escapes_and_infinities():
    reg = MetricsRegistry()
    reg.counter("c").inc(1, path='we"ird\\thing')
    reg.gauge("g").set(math.inf)
    samples = parse_prom(reg.to_prom_text())
    assert samples["c"][(("path", 'we"ird\\thing'),)] == 1
    assert samples["g"][()] == math.inf


def test_parse_prom_rejects_malformed():
    with pytest.raises(ValueError):
        parse_prom("just_a_name_no_value\n")
    with pytest.raises(ValueError):
        parse_prom("x{label=unquoted} 1\n")


# -- deterministic canonical JSON -------------------------------------------

def test_canonical_json_is_order_independent():
    a = MetricsRegistry()
    a.counter("x", "X.").inc(1, s="tlb")
    a.counter("x").inc(2, s="ecmp")
    a.gauge("y", "Y.").set(7)

    b = MetricsRegistry()
    b.gauge("y", "Y.").set(7)
    b.counter("x", "X.").inc(2, s="ecmp")
    b.counter("x").inc(1, s="tlb")

    assert a.canonical_json() == b.canonical_json()


def test_canonical_json_excludes_volatile_prom_includes_it():
    reg = MetricsRegistry()
    reg.counter("stable_total", "Deterministic.").inc()
    reg.histogram("wall_seconds", "Racy.", volatile=True).observe(0.123)
    doc = json.loads(reg.canonical_json())
    assert "stable_total" in doc["metrics"]
    assert "wall_seconds" not in doc["metrics"]
    assert doc["schema"] == 1
    assert "wall_seconds" in reg.to_prom_text()


def test_write_files(tmp_path):
    prom, js = _populated().write_files(tmp_path / "out")
    assert prom.name == METRICS_PROM_NAME
    assert js.name == METRICS_JSON_NAME
    assert parse_prom(prom.read_text())["workers"][()] == 2
    assert json.loads(js.read_text())["metrics"]["workers"]["samples"] == [
        {"labels": {}, "value": 2}]


def test_default_registry_is_a_singleton():
    assert get_registry() is get_registry()
    assert isinstance(DEFAULT_BUCKETS, tuple)
