"""run_many's cache-aware scheduling and chunked pool submission.

Runners and the config dataclass are module-level so they pickle into
worker processes.  Cross-process call counting goes through files whose
paths ride along in the config (one line appended per invocation).
"""

import io
from dataclasses import dataclass

import pytest

from repro.cache import ResultCache
from repro.errors import ConfigError
from repro.experiments.runner import (
    TaskError,
    TaskFailure,
    _auto_chunksize,
    run_many,
)
from repro.obs.progress import ProgressReporter

FP = "0" * 64


@dataclass(frozen=True)
class Cfg:
    tag: str
    log: str = ""  # file to append one line to per runner invocation
    seed: int = 0


def _calls(path) -> int:
    try:
        return len(path.read_text().splitlines())
    except FileNotFoundError:
        return 0


def _echo(cfg):
    if cfg.log:
        with open(cfg.log, "a") as fh:
            fh.write(cfg.tag + "\n")
    return ("ran", cfg.tag)


def _fail_bad(cfg):
    result = _echo(cfg)  # log the invocation even when about to fail
    if cfg.tag == "bad":
        raise ValueError("bad task")
    return result


def _fail_once(cfg):
    """Fails the first time each config runs (any process), then succeeds."""
    with open(cfg.log, "a") as fh:
        fh.write(cfg.tag + "\n")
    if _calls_str(cfg.log, cfg.tag) == 1:
        raise RuntimeError(f"transient:{cfg.tag}")
    return ("ran", cfg.tag)


def _calls_str(log, tag) -> int:
    with open(log) as fh:
        return sum(1 for line in fh if line.strip() == tag)


def _never(cfg):
    raise AssertionError("runner must not be invoked on a full-hit batch")


def make_cache(tmp_path):
    return ResultCache(tmp_path / "cache", fingerprint=FP)


# -- cache-aware scheduling ------------------------------------------------


def test_serial_second_run_is_all_hits(tmp_path):
    log = tmp_path / "calls"
    configs = [Cfg(t, str(log)) for t in ("a", "b", "c")]
    first = run_many(configs, processes=0, runner=_echo,
                     cache=make_cache(tmp_path))
    assert _calls(log) == 3
    second = run_many(configs, processes=0, runner=_never,
                      cache=make_cache(tmp_path))
    assert second == first == [("ran", t) for t in ("a", "b", "c")]
    assert _calls(log) == 3  # nothing recomputed


def test_partial_hits_preserve_order(tmp_path):
    cache = make_cache(tmp_path)
    configs = [Cfg(t) for t in ("a", "b", "c", "d")]
    cache.put(configs[1], ("ran", "b"))
    cache.put(configs[3], ("ran", "d"))
    results = run_many(configs, processes=0, runner=_echo, cache=cache)
    assert results == [("ran", t) for t in ("a", "b", "c", "d")]
    assert cache.hits == 2 and cache.misses == 2
    # the misses were written back
    warm = ResultCache(cache.root, fingerprint=FP)
    assert run_many(configs, processes=0, runner=_never, cache=warm) == results


def test_full_hit_batch_never_spawns_a_pool(tmp_path):
    cache = make_cache(tmp_path)
    configs = [Cfg(t) for t in ("a", "b")]
    for c in configs:
        cache.put(c, ("ran", c.tag))
    # processes=8 with a runner that would explode: proof the pool path
    # (and the runner) is never reached when every row is a hit.
    results = run_many(configs, processes=8, runner=_never, cache=cache)
    assert results == [("ran", "a"), ("ran", "b")]


def test_pool_misses_written_back(tmp_path):
    log = tmp_path / "calls"
    configs = [Cfg(f"t{i}", str(log)) for i in range(6)]
    cold = run_many(configs, processes=2, runner=_echo,
                    cache=make_cache(tmp_path))
    assert cold == [("ran", f"t{i}") for i in range(6)]
    assert _calls(log) == 6
    warm_cache = make_cache(tmp_path)
    warm = run_many(configs, processes=2, runner=_never, cache=warm_cache)
    assert warm == cold
    assert warm_cache.hits == 6 and warm_cache.misses == 0
    assert _calls(log) == 6


def test_failures_are_not_cached(tmp_path):
    log = tmp_path / "calls"
    configs = [Cfg("good", str(log)), Cfg("bad", str(log))]
    first = run_many(configs, processes=0, runner=_fail_bad,
                     on_error="record", cache=make_cache(tmp_path))
    assert first[0] == ("ran", "good")
    assert isinstance(first[1], TaskFailure)
    # second pass: the success hits, the failure is re-attempted
    cache = make_cache(tmp_path)
    second = run_many(configs, processes=0, runner=_fail_bad,
                      on_error="record", cache=cache)
    assert second[0] == ("ran", "good")
    assert isinstance(second[1], TaskFailure)
    assert cache.hits == 1 and cache.misses == 1
    assert _calls(log) == 3  # good once (then cached), bad twice


def test_progress_reporter_counts_kinds(tmp_path):
    cache = make_cache(tmp_path)
    configs = [Cfg(t) for t in ("a", "bad", "c")]
    cache.put(configs[2], ("ran", "c"))
    reporter = ProgressReporter(3, label="t", stream=io.StringIO())
    run_many(configs, processes=0, runner=_fail_bad, on_error="record",
             cache=cache, progress=reporter)
    assert reporter.computed == 1
    assert reporter.cached == 1
    assert reporter.failed == 1
    assert reporter.done == 3


# -- chunked submission ----------------------------------------------------


def test_chunksize_validation():
    with pytest.raises(ConfigError):
        run_many([Cfg("a")], runner=_echo, chunksize=0)


def test_auto_chunksize():
    assert _auto_chunksize(100, 4) == 6
    assert _auto_chunksize(10, 8) == 1      # small batch → singles
    assert _auto_chunksize(10_000, 4) == 16  # capped at _MAX_CHUNK


def test_chunked_pool_preserves_order(tmp_path):
    configs = [Cfg(f"t{i:02d}") for i in range(11)]
    results = run_many(configs, processes=2, runner=_echo, chunksize=3)
    assert results == [("ran", f"t{i:02d}") for i in range(11)]


def test_chunked_per_item_error_isolation():
    configs = [Cfg(t) for t in ("a", "bad", "c", "d", "e", "f")]
    results = run_many(configs, processes=2, runner=_fail_bad,
                       on_error="record", chunksize=3)
    failure = results[1]
    assert isinstance(failure, TaskFailure)
    assert "bad task" in failure.error
    ok = [r for i, r in enumerate(results) if i != 1]
    assert ok == [("ran", t) for t in ("a", "c", "d", "e", "f")]


def test_chunked_raise_surfaces_task_error():
    configs = [Cfg(t) for t in ("a", "bad", "c", "d")]
    with pytest.raises((TaskError, ValueError), match="bad task"):
        run_many(configs, processes=2, runner=_fail_bad,
                 on_error="raise", chunksize=2)


def test_chunked_item_retries_as_single(tmp_path):
    log = tmp_path / "calls"
    log.touch()
    configs = [Cfg(f"t{i}", str(log)) for i in range(4)]
    results = run_many(configs, processes=2, runner=_fail_once,
                       retries=1, on_error="record", chunksize=2)
    assert results == [("ran", f"t{i}") for i in range(4)]
    # every task failed once then succeeded on its retry
    assert _calls(log) == 8


def test_chunked_with_cache_and_partial_hits(tmp_path):
    cache = make_cache(tmp_path)
    configs = [Cfg(f"t{i}") for i in range(8)]
    for i in (0, 3, 7):
        cache.put(configs[i], ("ran", f"t{i}"))
    results = run_many(configs, processes=2, runner=_echo,
                       cache=cache, chunksize=2)
    assert results == [("ran", f"t{i}") for i in range(8)]
    assert cache.hits == 3 and cache.misses == 5
