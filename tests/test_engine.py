"""Tests for the discrete-event kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_clock_starts_at_custom_time():
    assert Simulator(start=5.0).now == 5.0


def test_events_fire_in_time_order(sim):
    order = []
    sim.call_later(0.3, order.append, "c")
    sim.call_later(0.1, order.append, "a")
    sim.call_later(0.2, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fire_in_schedule_order(sim):
    order = []
    for tag in "abcde":
        sim.schedule(1.0, order.append, tag)
    sim.run()
    assert order == list("abcde")


def test_clock_advances_to_event_time(sim):
    seen = []
    sim.call_later(0.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [0.5]
    assert sim.now == 0.5


def test_run_until_stops_before_later_events(sim):
    fired = []
    sim.call_later(1.0, fired.append, "late")
    sim.call_later(0.1, fired.append, "early")
    sim.run(until=0.5)
    assert fired == ["early"]
    assert sim.now == 0.5
    sim.run(until=2.0)
    assert fired == ["early", "late"]


def test_run_until_advances_clock_even_without_events(sim):
    sim.run(until=3.0)
    assert sim.now == 3.0


def test_cancelled_event_does_not_fire(sim):
    fired = []
    ev = sim.call_later(0.1, fired.append, "x")
    ev.cancel()
    sim.run()
    assert fired == []


def test_cancel_is_idempotent(sim):
    ev = sim.call_later(0.1, lambda: None)
    ev.cancel()
    ev.cancel()
    sim.run()


def test_cancel_releases_references(sim):
    payload = object()
    ev = sim.call_later(0.1, lambda p: None, payload)
    ev.cancel()
    assert ev.args == ()


def test_schedule_in_past_raises(sim):
    sim.call_later(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule(0.5, lambda: None)


def test_negative_delay_raises(sim):
    with pytest.raises(SimulationError):
        sim.call_later(-0.1, lambda: None)


def test_events_scheduled_during_run_execute(sim):
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.call_later(0.1, chain, n + 1)

    sim.call_later(0.0, chain, 1)
    sim.run()
    assert fired == [1, 2, 3]


def test_stop_halts_run(sim):
    fired = []

    def first():
        fired.append(1)
        sim.stop()

    sim.call_later(0.1, first)
    sim.call_later(0.2, fired.append, 2)
    sim.run()
    assert fired == [1]
    assert sim.pending == 1


def test_run_not_reentrant(sim):
    def reenter():
        sim.run()

    sim.call_later(0.1, reenter)
    with pytest.raises(SimulationError):
        sim.run()


def test_max_events_guard(sim):
    def loop():
        sim.call_later(0.001, loop)

    sim.call_later(0.0, loop)
    with pytest.raises(SimulationError):
        sim.run(max_events=100)


def test_max_events_budget_is_per_run_call(sim):
    # The guard must count events per run() invocation, not against the
    # simulator's cumulative lifetime counter.
    fired = []
    for i in range(5):
        sim.call_later(0.001 * (i + 1), fired.append, i)
    sim.run(until=0.003, max_events=3)
    assert fired == [0, 1, 2]
    sim.run(max_events=3)  # 2 events left; must NOT trip on _processed >= 3
    assert fired == [0, 1, 2, 3, 4]
    assert sim.events_processed == 5


def test_events_processed_counter(sim):
    for _ in range(5):
        sim.call_later(0.1, lambda: None)
    sim.run()
    assert sim.events_processed == 5


# -- edge cases around lazy deletion, until/stop, and the fast path -------


def test_run_until_with_cancelled_event_at_heap_top(sim):
    # A cancelled event at the top of the heap must neither fire, nor
    # advance the clock to its timestamp, nor stop the run early.
    fired = []
    ev = sim.call_later(0.1, fired.append, "cancelled")
    sim.call_later(0.2, fired.append, "live")
    ev.cancel()
    sim.run(until=0.5)
    assert fired == ["live"]
    assert sim.now == 0.5


def test_cancelled_event_beyond_until_is_discarded_not_requeued(sim):
    # Lazy deletion may discard cancelled entries even past the horizon:
    # they can never fire, so they must not survive as pending work.
    ev = sim.call_later(1.0, lambda: None)
    ev.cancel()
    sim.run(until=0.5)
    assert sim.pending == 0
    assert sim.now == 0.5


def test_stop_prevents_final_clock_advance_to_until(sim):
    # run(until=X) normally leaves now == X, but stop() means "freeze
    # where we are" — the clock must stay at the stopping event's time.
    sim.call_later(0.1, sim.stop)
    sim.run(until=5.0)
    assert sim.now == 0.1


def test_max_events_ignores_skipped_cancelled_events(sim):
    fired = []
    cancelled = [sim.call_later(0.001 * i, fired.append, i) for i in range(1, 6)]
    for ev in cancelled:
        ev.cancel()
    sim.call_later(0.1, fired.append, "a")
    sim.call_later(0.2, fired.append, "b")
    # Budget of exactly 2: the five skipped cancellations must not count.
    sim.run(max_events=2)
    assert fired == ["a", "b"]


def test_fast_path_events_interleave_deterministically(sim):
    # Handle-less fast-path entries share the calendar with cancellable
    # ones; ties on time still fire in scheduling order across both kinds.
    order = []
    sim.schedule(1.0, order.append, "a")
    sim.schedule_fast(1.0, order.append, "b")
    sim.call_later(1.0, order.append, "c")
    sim.call_later_fast(1.0, order.append, "d")
    sim.run()
    assert order == ["a", "b", "c", "d"]


def test_fast_path_validates_like_slow_path(sim):
    with pytest.raises(SimulationError):
        sim.call_later_fast(-0.1, lambda: None)
    sim.call_later(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_fast(0.5, lambda: None)


def test_mass_cancellation_triggers_sweep_and_preserves_live_events(sim):
    # Cancel enough events to cross the sweep threshold; the calendar
    # must compact (bounded memory) while every live event still fires.
    fired = []
    doomed = [sim.call_later(0.1 + 0.001 * i, fired.append, i) for i in range(400)]
    sim.call_later(9.0, fired.append, "live")
    for ev in doomed:
        ev.cancel()
    # The next scheduling call runs the batched sweep.
    sim.call_later(9.5, fired.append, "tail")
    assert sim.pending == 2
    sim.run()
    assert fired == ["live", "tail"]


def test_same_seed_runs_are_identical(sim):
    # Two simulators fed the same schedule (mixed fast/slow entries,
    # cancellations, ties) must execute the identical event sequence.
    def drive(s):
        order = []
        evs = []
        for i in range(50):
            t = 0.001 * (i % 7) + 0.0001 * i
            if i % 3 == 0:
                s.schedule_fast(t, order.append, ("fast", i))
            else:
                evs.append(s.call_later(t, order.append, ("slow", i)))
        for ev in evs[::4]:
            ev.cancel()
        s.run()
        return order, s.now, s.events_processed

    a = drive(sim)
    b = drive(Simulator())
    assert a == b


# -- cleanup hooks --------------------------------------------------------


def test_cleanup_hooks_fire_on_crash_not_on_normal_exit(sim):
    fired = []
    sim.add_cleanup_hook(lambda: fired.append("hook"))
    sim.call_later(0.1, lambda: None)
    sim.run()
    assert fired == []  # normal completion: no cleanup needed

    def boom():
        raise RuntimeError("handler crashed")

    sim.call_later(0.2, boom)
    with pytest.raises(RuntimeError):
        sim.run()
    assert fired == ["hook"]


def test_cleanup_hooks_fire_on_max_events_abort(sim):
    fired = []
    sim.add_cleanup_hook(lambda: fired.append("hook"))
    for i in range(5):
        sim.call_later(0.001 * (i + 1), lambda: None)
    with pytest.raises(SimulationError):
        sim.run(max_events=2)
    assert fired == ["hook"]


def test_crashing_cleanup_hook_does_not_mask_the_error(sim):
    order = []

    def bad_hook():
        order.append("bad")
        raise ValueError("hook bug")

    sim.add_cleanup_hook(bad_hook)
    sim.add_cleanup_hook(lambda: order.append("good"))
    sim.call_later(0.1, lambda: (_ for _ in ()).throw(RuntimeError("boom")))
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()
    assert order == ["bad", "good"]  # every hook ran; original error kept


def test_cleanup_hooks_fire_under_profiler(sim):
    from repro.obs.profiler import EngineProfiler

    EngineProfiler(sample_every=1).install(sim)
    fired = []
    sim.add_cleanup_hook(lambda: fired.append("hook"))

    def boom():
        raise RuntimeError("profiled crash")

    sim.call_later(0.1, boom)
    with pytest.raises(RuntimeError):
        sim.run()
    assert fired == ["hook"]


# -- the one-event port's kernel contract ---------------------------------

def test_cur_seq_names_the_running_event_and_its_calendar_position(sim):
    """``(now, _cur_seq)`` is the position being executed: everything
    scheduled earlier for this instant has run, nothing later has."""
    import sys

    assert sim._cur_seq == -1  # nothing has run yet
    seen = []
    sim.schedule_fast(1.0, lambda: seen.append(sim._cur_seq))   # seq 0
    sim.schedule(1.0, lambda: seen.append(sim._cur_seq))        # seq 1
    sim.schedule_fast(1.0, lambda: seen.append(sim._cur_seq))   # seq 2
    sim.run()
    assert seen == [0, 1, 2]
    # a drained run has passed every position at its final clock
    assert sim._cur_seq == sys.maxsize


def test_cur_seq_after_until_stop_and_step(sim):
    import sys

    seen = []
    sim.schedule_fast(1.0, lambda: None)
    sim.schedule_fast(1.0, sim.stop)
    sim.schedule_fast(1.0, lambda: seen.append(sim._cur_seq))
    sim.run(until=0.5)
    assert (sim.now, sim._cur_seq) == (0.5, sys.maxsize)
    sim.run()  # stops inside t=1.0 with one event of that instant pending
    assert (sim.now, sim._cur_seq, sim.pending) == (1.0, 1, 1)
    sim.run()
    assert seen == [2]


def test_revoke_removes_exactly_one_fast_entry(sim):
    fired = []
    for i in range(50):
        sim.schedule_fast(1.0 + (i * 7 % 13), fired.append, i)  # seq == i
    sim.revoke(17)
    assert sim.pending == 49
    sim.run()
    assert sorted(fired) == [i for i in range(50) if i != 17]
    assert fired == sorted(fired, key=lambda i: (1.0 + (i * 7 % 13), i))


def test_revoke_during_run_and_of_missing_entry(sim):
    fired = []
    sim.schedule_fast(1.0, lambda: sim.revoke(1))
    sim.schedule_fast(2.0, fired.append, "revoked")
    sim.schedule_fast(3.0, fired.append, "kept")
    sim.run()
    assert fired == ["kept"]
    with pytest.raises(SimulationError):
        sim.revoke(1)
    ev = sim.schedule(4.0, fired.append, "cancellable")
    with pytest.raises(SimulationError):
        sim.revoke(ev.seq)  # Event entries are cancelled, not revoked
