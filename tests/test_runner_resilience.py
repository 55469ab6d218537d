"""run_many resilience: crash isolation, retries, fallback.

The runners below are module-level so they pickle into worker
processes; "configs" are plain strings/tuples (run_many never inspects
them beyond passing them to the runner).
"""

import os
from dataclasses import dataclass

import pytest

from repro.errors import ConfigError
from repro.experiments.runner import TaskFailure, partition_results, run_many


def _echo(config):
    return config


@dataclass(frozen=True)
class _KeyedCfg:
    """A cache-keyable config (the result cache only keys dataclasses)."""

    tag: str


def _boom(config):
    if config == "bad":
        raise ValueError("boom")
    return config


def _crash_in_worker(config):
    """Hard-kill the process — but only when running in a *worker*.

    The parent pid rides along in the config so the serial rescue path
    (same process as pytest) survives re-running the task.
    """
    tag, parent = config
    if tag == "die" and os.getpid() != parent:
        os._exit(1)
    return tag


def test_parameter_validation():
    with pytest.raises(ConfigError):
        run_many(["a"], runner=_echo, on_error="ignore")
    with pytest.raises(ConfigError):
        run_many(["a"], runner=_echo, retries=-1)


def test_serial_record_preserves_partial_results():
    results = run_many(["a", "bad", "c"], processes=0, runner=_boom,
                       on_error="record")
    assert results[0] == "a" and results[2] == "c"
    failure = results[1]
    assert isinstance(failure, TaskFailure)
    assert failure.index == 1
    assert failure.config == "bad"
    assert "ValueError: boom" in failure.error
    assert "boom" in failure.traceback
    assert failure.attempts == 1
    ok, bad = partition_results(results)
    assert ok == ["a", "c"] and bad == [failure]


def test_serial_raise_is_still_the_default():
    with pytest.raises(ValueError, match="boom"):
        run_many(["a", "bad"], processes=0, runner=_boom)


def test_serial_retry_eventually_succeeds():
    calls = {"n": 0}

    def flaky(config):
        calls["n"] += 1
        if calls["n"] < 3:
            raise RuntimeError("transient")
        return "ok"

    assert run_many(["x"], processes=0, runner=flaky, retries=2) == ["ok"]
    assert calls["n"] == 3


def test_serial_retries_exhausted_records_attempt_count():
    [failure] = run_many(["bad"], processes=0, runner=_boom,
                         on_error="record", retries=2)
    assert isinstance(failure, TaskFailure)
    assert failure.attempts == 3  # 1 + retries


def test_pool_task_exception_becomes_failure_row():
    results = run_many(["a", "bad", "c", "d"], processes=2, runner=_boom,
                       on_error="record", retries=1)
    assert results[0] == "a" and results[2] == "c" and results[3] == "d"
    assert isinstance(results[1], TaskFailure)
    assert results[1].attempts == 2
    assert "ValueError: boom" in results[1].error


def test_pool_worker_crash_rescues_remaining_tasks_serially():
    """A hard-killed worker breaks the whole pool; every unfinished task
    (the crasher included) must still produce a result via the serial
    rescue — this is the ISSUE acceptance scenario."""
    parent = os.getpid()
    configs = [("a", parent), ("die", parent), ("c", parent), ("d", parent)]
    results = run_many(configs, processes=2, runner=_crash_in_worker,
                       on_error="record")
    assert results == ["a", "die", "c", "d"]


def _fail_then_crash(config):
    """Attempt 1 raises a retryable error in a worker, attempt 2 kills
    its worker, and any run in the parent process raises again.  The
    call log counts invocations across processes."""
    tag, parent, log = config
    if tag != "flaky":
        return tag
    with open(log, "a") as fh:
        fh.write("call\n")
    if os.getpid() != parent and _count_lines(log) == 2:
        os._exit(1)
    raise OSError("transient")


def test_serial_rescue_keeps_the_task_retry_budget(tmp_path):
    """The serial rescue of a broken pool resumes a task on the attempt
    the pool killed; it does not grant a fresh budget.  With retries=1:
    attempt 1 raises in a worker, attempt 2 kills its worker and is run
    again serially, uncharged — three invocations, two attempts."""
    log = str(tmp_path / "calls.log")
    parent = os.getpid()
    configs = [("a", parent, log), ("flaky", parent, log)]
    results = run_many(configs, processes=2, runner=_fail_then_crash,
                       on_error="record", retries=1)
    assert results[0] == "a"
    failure = results[1]
    assert isinstance(failure, TaskFailure)
    assert "OSError: transient" in failure.error
    assert failure.attempts == 2
    assert _count_lines(log) == 3


def test_pool_creation_failure_falls_back_to_serial(monkeypatch):
    import repro.experiments.runner as runner_mod

    def no_pool(*args, **kwargs):
        raise OSError("fork unavailable")

    monkeypatch.setattr(runner_mod, "ProcessPoolExecutor", no_pool)
    assert run_many(["a", "b", "c"], processes=4, runner=_echo) == \
        ["a", "b", "c"]


def test_empty_input_short_circuits():
    assert run_many([], runner=_echo) == []


# -- fatal-error fail-fast ---------------------------------------------------

def _fatal_boom(config):
    """Deterministic config problem: must never be retried."""
    path, tag = config
    with open(path, "a") as fh:
        fh.write(tag + "\n")
    raise ConfigError(f"bad config {tag}")


def _count_lines(path):
    try:
        with open(path) as fh:
            return sum(1 for _ in fh)
    except FileNotFoundError:
        return 0


def test_serial_fatal_error_never_retries(tmp_path):
    """A ConfigError is a pure function of the config — retrying it burns
    the budget on a foregone conclusion.  Regression test for the old
    behaviour of retrying *every* exception type."""
    log = tmp_path / "calls.log"
    [failure] = run_many([(str(log), "x")], processes=0, runner=_fatal_boom,
                         on_error="record", retries=3)
    assert isinstance(failure, TaskFailure)
    assert failure.attempts == 1  # failed fast, budget untouched
    assert "ConfigError" in failure.error
    assert _count_lines(log) == 1  # exactly one invocation


def test_serial_fatal_error_raise_mode_is_immediate(tmp_path):
    log = tmp_path / "calls.log"
    with pytest.raises(ConfigError):
        run_many([(str(log), "x")], processes=0, runner=_fatal_boom,
                 retries=5)
    assert _count_lines(log) == 1


def test_pool_chunked_fatal_error_never_retries(tmp_path):
    """The worker classifies fatality while the live exception is in
    hand; the parent honours it across the pickle boundary."""
    log = tmp_path / "calls.log"
    configs = [(str(log), "x")] * 3
    results = run_many(configs, processes=2, runner=_fatal_boom,
                       on_error="record", retries=2, chunksize=3)
    assert all(isinstance(r, TaskFailure) for r in results)
    assert all(r.attempts == 1 for r in results)
    assert _count_lines(log) == 3  # one invocation per task, no retries


def test_retryable_attribute_overrides_type(tmp_path):
    """An exception can opt out of its type's classification."""
    calls = {"n": 0}

    def soft_config_error(config):
        calls["n"] += 1
        exc = ConfigError("transient despite the type")
        exc.retryable = True
        if calls["n"] < 2:
            raise exc
        return "ok"

    assert run_many(["x"], processes=0, runner=soft_config_error,
                    retries=1) == ["ok"]
    assert calls["n"] == 2


# -- interrupt write-back ----------------------------------------------------

def test_pool_interrupt_harvests_finished_results_into_cache(
        tmp_path, monkeypatch):
    """Ctrl-C mid-sweep must not abandon results already computed:
    completed futures are written through the cache before the
    interrupt propagates, so the rerun resumes instead of redoing."""
    import repro.experiments.runner as runner_mod
    from concurrent.futures import ALL_COMPLETED
    from concurrent.futures import wait as real_wait

    from repro.cache import ResultCache

    def interrupting_wait(futures, timeout=None, return_when=None):
        # let every in-flight task finish, then interrupt the sweep
        real_wait(futures, return_when=ALL_COMPLETED)
        raise KeyboardInterrupt

    monkeypatch.setattr(runner_mod, "wait", interrupting_wait)
    cache = ResultCache(tmp_path / "cache", fingerprint="0" * 64)
    configs = [_KeyedCfg(tag) for tag in ("a", "b", "c")]
    with pytest.raises(KeyboardInterrupt):
        run_many(configs, processes=2, runner=_echo, cache=cache)
    # every computed result made it to the cache despite the interrupt
    assert [cache.get(c) for c in configs] == configs
