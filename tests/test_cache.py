"""Result-cache keying and store behaviour.

The keying tests pin the ISSUE's invalidation contract: any semantic
config change (seed, load, fault spec, asymmetry, ...) must miss;
observability-only knobs (trace verbosity, telemetry, live time series)
must still hit; a code-fingerprint change must invalidate everything;
and a corrupted entry must degrade to a miss, never a crash.
"""

import pickle

import pytest

import repro.cache.key as key_mod
from repro.cache import (
    NON_SEMANTIC_FIELDS,
    ResultCache,
    cache_key,
    canonical_config,
    code_fingerprint,
    config_digest,
    parse_size,
)
from repro.errors import ConfigError
from repro.experiments.common import ScenarioConfig, run_scenario_metrics
from repro.metrics.export import metrics_to_dict

FP = "f" * 64
BASE = ScenarioConfig()


def make_cache(tmp_path, fingerprint=FP):
    return ResultCache(tmp_path / "cache", fingerprint=fingerprint)


# -- key derivation --------------------------------------------------------


@pytest.mark.parametrize("change", [
    {"seed": 2},
    {"load": 0.55},
    {"scheme": "ecmp"},
    {"scheme_params": {"flowlet_timeout": 1e-4}},
    {"faults": "0.1:link_down:leaf0-spine1"},
    {"fault_detection_delay": 0.002},
    {"link_overrides": ((0, 1, 0.5, 0.0),)},
    {"n_paths": 9},
    {"horizon": 1.5},
    {"workload": "poisson"},
    {"n_short": 42},
    {"transport": "tcp"},
])
def test_semantic_field_change_misses(change):
    assert config_digest(BASE.with_(**change)) != config_digest(BASE)


@pytest.mark.parametrize("change", [
    {"trace_kinds": ("enqueue", "drop")},
    {"telemetry": True},
    {"timeseries": True},
    {"bin_width": 0.5},
    {"spans": True},
    {"profile": True},
    {"metrics": True},
])
def test_non_semantic_knobs_still_hit(change):
    assert config_digest(BASE.with_(**change)) == config_digest(BASE)


def test_metrics_emission_does_not_break_cache_hits(tmp_path):
    """A result stored without --metrics is served to a metrics-enabled
    rerun (and vice versa): the metrics.* outputs are observability,
    never part of the keyed experiment."""
    cache = make_cache(tmp_path)
    cache.put(BASE, {"value": 42})
    assert cache.get(BASE.with_(metrics=True)) == {"value": 42}
    cache.put(BASE.with_(metrics=True, seed=9), {"value": 43})
    assert cache.get(BASE.with_(seed=9)) == {"value": 43}
    assert cache.hits == 2 and cache.misses == 0


def test_cache_instruments_injected_registry(tmp_path):
    from repro.obs.metrics import MetricsRegistry

    reg = MetricsRegistry()
    cache = ResultCache(tmp_path / "cache", fingerprint=FP, metrics=reg)
    cache.get(BASE)  # miss
    cache.put(BASE, {"v": 1})
    cache.get(BASE)  # hit
    lookups = reg.counter("repro_cache_lookups_total")
    assert lookups.value(result="miss") == 1
    assert lookups.value(result="hit") == 1
    assert reg.counter("repro_cache_puts_total").total() == 1
    assert reg.counter("repro_cache_put_bytes_total").total() > 0


def test_non_semantic_fields_all_exist_on_scenario_config():
    # Guards against a rename leaving a stale entry silently excluding
    # nothing (a typo here would never be noticed otherwise).
    import dataclasses

    names = {f.name for f in dataclasses.fields(ScenarioConfig)}
    assert NON_SEMANTIC_FIELDS <= names


def test_canonical_config_excludes_only_non_semantic():
    canon = canonical_config(BASE)
    assert set(canon) & NON_SEMANTIC_FIELDS == set()
    assert "seed" in canon and "scheme" in canon and "faults" in canon


def test_faults_axis_is_canonical_in_the_digest():
    flap = "0.1:link_down:leaf0-spine1;0.3:link_up:leaf0-spine1"
    respelled = (" 0.30:link_up:leaf0-spine1 ;"
                 " 0.10:link_down:leaf0-spine1:drop;")
    assert canonical_config(BASE.with_(faults=respelled))["faults"] == flap
    assert config_digest(BASE.with_(faults=respelled)) == \
        config_digest(BASE.with_(faults=flap))
    # ...but losslessly so: schedules 1 us apart stay different cells
    assert config_digest(
        BASE.with_(faults="1.000001:link_down:leaf0-spine1")) != \
        config_digest(BASE.with_(faults="1:link_down:leaf0-spine1"))


def test_digest_is_stable_across_equal_configs():
    assert config_digest(ScenarioConfig(seed=3)) == \
        config_digest(ScenarioConfig(seed=3))


def test_cache_key_folds_in_fingerprint():
    assert cache_key(BASE, "a" * 64) != cache_key(BASE, "b" * 64)


def test_cache_key_rejects_non_dataclass():
    with pytest.raises(TypeError):
        cache_key("not-a-config", FP)


def test_code_fingerprint_tracks_source_tree(tmp_path):
    tree = tmp_path / "pkg"
    tree.mkdir()
    (tree / "a.py").write_text("x = 1\n")
    fp1 = code_fingerprint(tree)
    key_mod._fingerprint_cache.clear()
    (tree / "a.py").write_text("x = 2\n")
    fp2 = code_fingerprint(tree)
    key_mod._fingerprint_cache.clear()
    (tree / "b.py").write_text("")
    fp3 = code_fingerprint(tree)
    assert len({fp1, fp2, fp3}) == 3


# -- store behaviour -------------------------------------------------------


def test_put_get_roundtrip_and_counters(tmp_path):
    cache = make_cache(tmp_path)
    assert cache.get(BASE) is None
    assert cache.misses == 1 and cache.hits == 0
    path = cache.put(BASE, {"afct": 1.25})
    assert path is not None and path.exists()
    assert cache.get(BASE) == {"afct": 1.25}
    assert cache.hits == 1


def test_fingerprint_change_invalidates_entries(tmp_path):
    make_cache(tmp_path, "a" * 64).put(BASE, "old")
    assert make_cache(tmp_path, "b" * 64).get(BASE) is None


def test_corrupted_entry_is_a_miss_and_quarantined(tmp_path):
    cache = make_cache(tmp_path)
    path = cache.put(BASE, [1, 2, 3])
    path.write_bytes(path.read_bytes()[: max(1, path.stat().st_size // 2)])
    assert cache.get(BASE) is None
    assert not path.exists()  # quarantined, ready to recompute
    cache.put(BASE, [1, 2, 3])
    assert cache.get(BASE) == [1, 2, 3]


def test_garbage_bytes_entry_is_a_miss(tmp_path):
    cache = make_cache(tmp_path)
    path = cache.put(BASE, "real")
    path.write_bytes(b"not a pickle at all")
    assert cache.get(BASE) is None


def test_put_leaves_no_temp_files(tmp_path):
    cache = make_cache(tmp_path)
    cache.put(BASE, list(range(100)))
    leftovers = [p for p in (cache.root / "objects").iterdir()
                 if not p.name.endswith(".pkl")]
    assert leftovers == []


def test_unpicklable_result_is_silently_uncacheable(tmp_path):
    cache = make_cache(tmp_path)
    assert cache.put(BASE, lambda: None) is None
    assert cache.stats().entries == 0


def test_non_dataclass_config_is_uncacheable(tmp_path):
    cache = make_cache(tmp_path)
    assert cache.key_or_none("a string") is None
    assert cache.key_or_none(BASE) is not None
    assert cache.get("a string") is None
    assert cache.put("a string", 1) is None


def test_stats_clear_and_index(tmp_path):
    cache = make_cache(tmp_path)
    for seed in (1, 2, 3):
        cache.put(BASE.with_(seed=seed), f"result-{seed}")
    stats = cache.stats()
    assert stats.entries == 3
    assert stats.total_bytes > 0
    assert stats.by_scheme.get("tlb") == 3
    assert "3" in stats.summary()
    assert cache.clear() == 3
    assert cache.stats().entries == 0


def test_gc_evicts_oldest_first(tmp_path):
    import os

    cache = make_cache(tmp_path)
    paths = {s: cache.put(BASE.with_(seed=s), f"r{s}") for s in (1, 2, 3)}
    os.utime(paths[1], (1, 1))
    os.utime(paths[2], (2, 2))
    keep = paths[3].stat().st_size
    removed, freed = cache.gc(keep)
    assert removed == 2 and freed > 0
    assert not paths[1].exists() and not paths[2].exists()
    assert paths[3].exists()
    assert cache.get(BASE.with_(seed=3)) == "r3"
    # index was compacted to the survivor
    assert len(cache._read_index()) == 1


def test_gc_validates_max_bytes(tmp_path):
    with pytest.raises(ConfigError):
        make_cache(tmp_path).gc(-1)


def test_contains_probes_without_counting(tmp_path):
    cache = make_cache(tmp_path)
    assert not cache.contains(BASE)
    cache.put(BASE, "x")
    assert cache.contains(BASE)
    assert not cache.contains("a string")  # unkeyable: False, no crash
    assert cache.hits == 0 and cache.misses == 0  # probes are free


def test_quarantine_accounting_and_gc_purge(tmp_path):
    """A corrupt entry is moved aside (not deleted), shows up in stats
    with a byte count, and `gc` purges it even with a huge size cap."""
    cache = make_cache(tmp_path)
    path = cache.put(BASE, [1, 2, 3])
    path.write_bytes(b"corrupt garbage")
    assert cache.get(BASE) is None  # quarantined on read
    stats = cache.stats()
    assert stats.quarantined == 1
    assert stats.quarantined_bytes > 0
    assert "quarantine" in stats.summary()
    quarantined = list((cache.root / "quarantine").iterdir())
    assert len(quarantined) == 1
    removed, freed = cache.gc(10**12)  # cap far above usage: purge only
    assert removed == 1 and freed > 0
    assert cache.stats().quarantined == 0
    assert not quarantined[0].exists()


def test_clear_empties_quarantine_too(tmp_path):
    cache = make_cache(tmp_path)
    path = cache.put(BASE, "x")
    path.write_bytes(b"junk")
    assert cache.get(BASE) is None
    cache.clear()
    stats = cache.stats()
    assert stats.entries == 0 and stats.quarantined == 0


def test_gc_compacts_stale_index_without_evicting(tmp_path):
    """Repeated puts of the same key grow index.jsonl with duplicate
    lines; gc rewrites it to one line per live entry even when nothing
    gets evicted."""
    cache = make_cache(tmp_path)
    for _ in range(4):
        cache.put(BASE, "same key every time")
    stats = cache.stats()
    assert stats.entries == 1 and stats.index_lines == 4
    assert "index" in stats.summary()
    removed, _ = cache.gc(10**12)
    assert removed == 0
    stats = cache.stats()
    assert stats.entries == 1 and stats.index_lines == 1


def test_gc_protects_active_fleet_cells(tmp_path):
    """Cells planned by a fleet with fresh heartbeats survive LRU
    eviction — a concurrent `repro cache gc` cannot pull results out
    from under a running sweep."""
    import json
    import os

    cache = make_cache(tmp_path)
    protected_cfg = BASE.with_(seed=1)
    victim_cfg = BASE.with_(seed=2)
    protected = cache.put(protected_cfg, "precious")
    victim = cache.put(victim_cfg, "evictable")
    # make the protected entry the LRU candidate
    os.utime(protected, (1, 1))
    fleet_dir = cache.root / "fleets" / "f1"
    (fleet_dir / "leases").mkdir(parents=True)
    (fleet_dir / "leases" / "live.json").write_text("{}")  # fresh mtime
    cell = {"kind": "cell", "cell": cache.key_for(protected_cfg),
            "index": 0, "config": {}}
    (fleet_dir / "fleet.jsonl").write_text(json.dumps(cell) + "\n")
    removed, _ = cache.gc(0)
    assert removed == 1
    assert protected.exists() and not victim.exists()
    # once the fleet goes quiet (stale heartbeats), protection lapses
    old = 1.0
    os.utime(fleet_dir / "leases" / "live.json", (old, old))
    removed, _ = cache.gc(0)
    assert removed == 1 and not protected.exists()


def test_concurrent_style_put_same_key_last_wins(tmp_path):
    a = make_cache(tmp_path)
    b = ResultCache(a.root, fingerprint=FP)
    a.put(BASE, "from-a")
    b.put(BASE, "from-b")
    assert make_cache(tmp_path).get(BASE) == "from-b"
    assert make_cache(tmp_path).stats().entries == 1


def test_parse_size():
    assert parse_size("1024") == 1024
    assert parse_size("1K") == 1024
    assert parse_size("1.5M") == int(1.5 * 1024 ** 2)
    assert parse_size("2G") == 2 * 1024 ** 3
    assert parse_size("500MB") == 500 * 1024 ** 2
    for bad in ("", "x", "-1M"):
        with pytest.raises(ConfigError):
            parse_size(bad)


def test_session_summary_shape(tmp_path):
    cache = make_cache(tmp_path)
    cache.get(BASE)
    summary = cache.session_summary()
    assert summary["misses"] == 1 and summary["hits"] == 0
    assert summary["dir"] == str(cache.root)


# -- real metrics round-trip ----------------------------------------------


def test_cached_run_metrics_identical_to_fresh(tmp_path):
    """A cached RunMetrics must export byte-identically to a fresh one
    (the `repro diff` acceptance criterion, in miniature)."""
    config = ScenarioConfig(scheme="ecmp", n_short=6, n_long=1, n_paths=4,
                            hosts_per_leaf=8, horizon=0.4)
    fresh = run_scenario_metrics(config)
    cache = make_cache(tmp_path)
    cache.put(config, fresh)
    cached = cache.get(config)
    assert cached is not fresh
    assert metrics_to_dict(cached) == metrics_to_dict(fresh)
    assert pickle.dumps(cached, protocol=4) == pickle.dumps(fresh, protocol=4)


def test_stored_entry_never_carries_observer_output(tmp_path):
    """What `put` stores is a function of the key: the observer flags are
    not in it, so neither is what they write into extras.  The caller's
    object keeps everything (the ladder reads extras["profile"])."""
    from repro.cache.key import OBSERVER_EXTRAS
    from repro.experiments.runner import run_many

    config = ScenarioConfig(scheme="ecmp", n_short=6, n_long=1, n_paths=4,
                            hosts_per_leaf=8, horizon=0.4)
    cache = make_cache(tmp_path)
    [live] = run_many(
        [config.with_(telemetry=True, profile=True, spans=True)], cache=cache)
    assert OBSERVER_EXTRAS <= set(live.extras)
    stored = cache.get(config)
    assert not OBSERVER_EXTRAS & set(stored.extras)
    assert stored.extras == {k: v for k, v in live.extras.items()
                             if k not in OBSERVER_EXTRAS}
    # ... and equals what an observer-free run stores and returns.
    assert metrics_to_dict(stored) == metrics_to_dict(
        run_scenario_metrics(config))


# -- pinned keys: the fast canonicalisation is byte-identical --------------

CDF_TRACE = "# size_bytes, cdf\n1000, 0.0\n10000, 0.5\n100000 1.0\n"

#: name -> ScenarioConfig overrides.  Together they cover an int-valued
#: float, -0.0, nan, None optionals, nested link_overrides, non-empty
#: scheme_params, a faults spec, a workload alias, incast:, mix: and a
#: cdf:file= trace (a relative path, resolved in the test's directory).
PINNED_CONFIGS = {
    "default": {},
    "int_valued_floats": {"load": 1.0, "horizon": 3.0, "seed": 7},
    "signed_zero_nan_params": {
        "fault_detection_delay": -0.0,
        "scheme_params": {"flowlet_timeout": 1e-4, "gain": float("nan"),
                          "enabled": True, "paths": [1, 2.5, None]}},
    "none_optionals": {"ecn_threshold": None, "min_rto": None,
                       "truncate_tail": None, "transport": "tcp"},
    "nested_overrides_faults": {
        "link_overrides": ((0, 1, 0.5, 0.0), (1, 3, 0.25, 1e-05)),
        "faults": " 0.30:link_up:leaf0-spine1 ; 0.10:link_down:leaf0-spine1"},
    "alias": {"workload": "tenantA", "n_leaves": 4},
    "incast": {"workload": "incast:period=10ms,fanin=8", "n_leaves": 4},
    "mix": {"workload": "mix:tenantA@0.7+incast@0.3", "n_leaves": 4},
    "cdf_file": {"workload": "cdf:file=trace.csv,load=0.3", "n_leaves": 4},
}

#: config_digest of each PINNED_CONFIGS entry, recorded before the
#: per-type field plan replaced the per-call ``dataclasses.fields`` walk
PINNED_DIGESTS = {
    "alias":
        "bca6f3a2b93ab2b277db9ae50f30a78726a672c850079c4e593da62cc70c4ab8",
    "cdf_file":
        "31485a46c2a5fb0f7fbb94dfad825d011c395ee5516a539967f40f99f804b4ae",
    "default":
        "c8a67840aefd7b685f5d7802cd3ef9238b5ec2c9900e3fa940336129e4a4e76e",
    "incast":
        "27a5ce525b1803babb9f82bd1b11affe1c26824f194debc66c3f3bd4f8d4da85",
    "int_valued_floats":
        "a5322f5e6f7162c83f0f5c82ac8bfa0369a1d5b6c7b37515d053ec949196b256",
    "mix":
        "099b4d0432ed6092b7b96cf2aee8079d10aa100b844c749a06efbb98968d41e4",
    "nested_overrides_faults":
        "c5afe340d50b814f95de7aca72efc5c4ce3136e78fc3c7fa3707a31bdec8c09b",
    "none_optionals":
        "679c2d211801f7fc9a70fb3440d7107a75ab4bfe0bb673ca4babb253e231ab55",
    "signed_zero_nan_params":
        "cad1ceed4ca568325c74bbd2cc41e6c6273895840916e2c14896bda25e04f205",
}


@pytest.fixture
def in_trace_dir(tmp_path, monkeypatch):
    """cwd = a directory holding ``trace.csv`` (the cdf pin's trace)."""
    (tmp_path / "trace.csv").write_text(CDF_TRACE)
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("name", sorted(PINNED_CONFIGS))
def test_config_digests_are_pinned(name, in_trace_dir):
    config = ScenarioConfig(**PINNED_CONFIGS[name])
    assert config_digest(config) == PINNED_DIGESTS[name]
    assert cache_key(config, FP) == cache_key(config, FP)


# -- the fast path equals the reference ------------------------------------


def _reference_canonical(config):
    """``canonical_config`` as a per-call ``dataclasses.fields`` walk
    through ``_canon`` — the definition the field plan must reproduce."""
    import dataclasses

    out = {f.name: key_mod._canon(getattr(config, f.name))
           for f in dataclasses.fields(config)
           if f.name not in NON_SEMANTIC_FIELDS}
    if isinstance(out.get("workload"), str):
        out["workload"] = key_mod._canon_workload(out["workload"])
    if isinstance(out.get("faults"), str) and out["faults"]:
        out["faults"] = key_mod._canon_faults(out["faults"])
    return out


def _reference_digest(config) -> str:
    import hashlib
    import json

    payload = json.dumps(_reference_canonical(config), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _field_values():
    import enum

    import numpy as np
    from hypothesis import strategies as st

    class Level(enum.IntEnum):
        LOW = 1

    scalars = st.one_of(
        st.none(), st.booleans(), st.integers(),
        st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=6),
        st.floats(allow_nan=False).map(np.float64),
        st.integers(-2 ** 62, 2 ** 62).map(np.int64),
        st.just(Level.LOW))
    return st.recursive(scalars, lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=3)),
        max_leaves=8)


def _overridable_fields() -> list:
    import dataclasses

    return [f.name for f in dataclasses.fields(ScenarioConfig)
            if f.name not in NON_SEMANTIC_FIELDS | {"workload", "faults"}]


def test_canonical_config_equals_the_reference_walk():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    workloads = st.sampled_from(
        ["static", "poisson", "tenantA", "incast:fanin=8,period=10ms",
         "mix:tenantA@0.7+incast@0.3", "not a spec"])
    faults = st.sampled_from(
        ["", "0.1:link_down:leaf0-spine1", "garbage:::"])

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.sampled_from(_overridable_fields()),
                           _field_values(), max_size=6),
           workloads, faults)
    def check(overrides, workload, fault):
        config = ScenarioConfig()
        # bypass __post_init__: keying must not depend on validity
        for name, value in {**overrides, "workload": workload,
                            "faults": fault}.items():
            object.__setattr__(config, name, value)
        assert canonical_config(config) == _reference_canonical(config)
        assert config_digest(config) == _reference_digest(config)

    check()


def test_field_plan_handles_one_and_zero_semantic_fields():
    import dataclasses

    @dataclasses.dataclass
    class One:
        x: float = 0.5
        telemetry: bool = True

    @dataclasses.dataclass
    class Observers:
        trace_kinds: tuple = ()

    assert canonical_config(One()) == _reference_canonical(One()) == {"x": "0.5"}
    assert canonical_config(Observers()) == {}
    with pytest.raises(TypeError):
        canonical_config(One)  # the class, not an instance


def test_numpy_scalars_key_as_the_python_numbers_they_equal():
    import numpy as np

    plain = ScenarioConfig(load=0.4, seed=3)
    numpyish = ScenarioConfig(load=np.float64(0.4), seed=np.int64(3))
    assert numpyish == plain
    assert config_digest(numpyish) == config_digest(plain)
    assert config_digest(BASE.with_(scheme_params={"k": [np.int64(2)]})) == \
        config_digest(BASE.with_(scheme_params={"k": [2]}))
    # ...by value and type class, not equality: True, 1 and 1.0 are equal
    # yet canonicalise differently, so they stay three cells
    assert len({config_digest(BASE.with_(scheme_params={"k": v}))
                for v in (True, 1, 1.0)}) == 3


# -- no key is remembered per config ----------------------------------------


def test_keys_are_recomputed_not_remembered(in_trace_dir):
    cache = make_cache(in_trace_dir)
    config = BASE.with_(scheme_params={"flowlet_timeout": 1e-4})
    before = cache.key_for(config)
    config.scheme_params["flowlet_timeout"] = 2e-4  # a dict in a frozen config
    assert cache.key_for(config) != before
    # a fresh (unpickled) object keys exactly as the original
    assert cache.key_for(pickle.loads(pickle.dumps(config))) == \
        cache.key_for(config)
    # a trace edit is seen by the next lookup in the same process
    cdf = ScenarioConfig(**PINNED_CONFIGS["cdf_file"])
    first = cache.key_for(cdf)
    assert cache.key_for(cdf) == first
    with open("trace.csv", "a") as fh:
        fh.write("# touched\n")
    assert cache.key_for(cdf) != first
    assert "#files[trace.csv=" in canonical_config(cdf)["workload"]


def test_importing_the_cache_leaves_the_observability_stack_unloaded():
    import os
    import subprocess
    import sys

    code = ("import sys, repro.cache\n"
            "print('repro.obs.recorder' in sys.modules)\n"
            "from repro.obs import FlightRecorder, MetricsRegistry\n"
            "print('repro.obs.recorder' in sys.modules)\n")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out == ["False", "True"]
