"""Each cell's cache key is derived once per call.

The fleet journal carries the key its plan derived, and workers and the
collector look results up by it; ``run_many`` keeps the key of a miss
for its write-back.  Counting goes through ``repro.cache.store``'s
``cache_key``, the one function every ``ResultCache`` key comes from.
"""

import pytest

import repro.cache.store as store
from fleet_helpers import Cell, compute
from repro.cache import ResultCache
from repro.experiments.runner import run_many
from repro.fleet import plan_fleet, run_fleet

FP = "0" * 64


def _cells(tmp_path, n=4):
    return [Cell(tag=f"c{i}", log=str(tmp_path / "calls.log"))
            for i in range(n)]


@pytest.fixture
def key_calls(monkeypatch):
    """How many keys have been derived since the fixture was set up."""
    calls = []
    derive = store.cache_key

    def counting(config, fingerprint=None):
        calls.append(config)
        return derive(config, fingerprint)

    monkeypatch.setattr(store, "cache_key", counting)
    return calls


def test_journal_key_is_the_cache_key(tmp_path):
    cache = ResultCache(tmp_path / "cache", fingerprint=FP)
    state = plan_fleet(tmp_path / "fleet", _cells(tmp_path), cache=cache)
    cells = state.ordered()
    assert len(cells) == 4
    for cell in cells:
        assert cell.key == cache.key_for(state.config_for(cell))


def test_inline_fleet_derives_one_key_per_cell(tmp_path, key_calls):
    cache = ResultCache(tmp_path / "cache", fingerprint=FP)
    results = run_many(_cells(tmp_path), fleet_dir=tmp_path / "fleet",
                       cache=cache, processes=0, runner=compute)
    assert [r["tag"] for r in results] == ["c0", "c1", "c2", "c3"]
    assert len(key_calls) == 4  # the plan; claim, put and collect reuse it


def test_fleet_collect_recomputes_an_evicted_cell_under_its_key(tmp_path):
    cache = ResultCache(tmp_path / "cache", fingerprint=FP)
    cells = _cells(tmp_path)
    first = run_fleet(cells, fleet_dir=tmp_path / "fleet", cache=cache,
                      workers=0, runner=compute)
    cache.clear()
    again = run_fleet(cells, fleet_dir=tmp_path / "fleet", cache=cache,
                      workers=0, runner=compute)
    assert again.results == first.results
    assert all(cache.contains(c) for c in cells)


def test_run_many_keeps_the_miss_key_for_the_write_back(tmp_path, key_calls):
    cache = ResultCache(tmp_path / "cache", fingerprint=FP)
    cells = _cells(tmp_path)
    run_many(cells, cache=cache, processes=0, runner=compute)
    assert len(key_calls) == 4 and cache.misses == 4
    del key_calls[:]
    assert run_many(cells, cache=cache, processes=0, runner=compute) == \
        [compute(c) for c in cells]
    assert len(key_calls) == 4 and cache.hits == 4
