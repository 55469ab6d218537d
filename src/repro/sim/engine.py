"""The discrete-event simulation kernel.

Design notes
------------
The kernel is a classic calendar built on :mod:`heapq`.  Three details
matter for reproducibility and speed:

* **Deterministic tie-breaking.**  Events scheduled for the same timestamp
  fire in scheduling order (a monotonically increasing sequence number is
  part of the heap key).  This makes every run bit-reproducible for a fixed
  seed, which the test suite relies on.
* **C-speed heap keys.**  Heap entries are plain tuples whose first two
  elements are ``(time, seq)``.  Because ``seq`` is unique, tuple
  comparison never looks past it, so every ``heappush``/``heappop``
  comparison runs in C instead of calling a Python ``__lt__`` — on large
  calendars the comparisons are most of the per-event cost.  Two entry
  shapes share the heap: ``(time, seq, Event)`` for cancellable events
  and ``(time, seq, fn, args)`` for the no-handle fast path
  (:meth:`Simulator.call_later_fast`) used by per-packet events that are
  never cancelled.
* **O(1) cancellation, batched sweeps.**  Cancelled events are flagged
  and skipped when popped instead of being removed from the heap (the
  standard lazy-deletion trick).  Retransmission timers are cancelled far
  more often than they fire, so this path must be cheap.  To stop a
  cancel-heavy run from growing the calendar without bound, the
  simulator counts live cancellations and compacts the heap in one
  O(n) ``heapify`` when cancelled entries exceed half the calendar
  (past a minimum size), instead of paying per-cancel removal costs.

* **Reserved sequence numbers.**  A sequence number may be drawn now and
  used later: an entry pushed under it sorts, among events of equal
  time, as if it had been scheduled when the number was drawn.  The
  kernel also publishes the number of the event it is executing
  (``Simulator._cur_seq``, one slot store per event).  Together they let
  :class:`~repro.net.port.Port` — which pushes its per-packet entries
  onto the calendar itself — keep a serialisation completion as plain
  state, materialise it as an event only when something depends on it,
  at exactly the calendar position the event would have had, and decide
  at an exact time tie whether that position has been passed.
  :meth:`Simulator.revoke` removes one handle-less entry again (a link
  cut while its packet is on the wire).

Times are ``float`` seconds.  The kernel never rounds: any quantisation
would distort the sub-microsecond serialisation delays of 1 Gbps links.
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush
from sys import maxsize
from typing import Any, Callable, Optional

from repro.errors import SimulationError

__all__ = ["Event", "Simulator"]

#: Lazy-deletion sweep trigger: compact when more than this many events
#: are cancelled AND they make up over half the calendar.  High enough
#: that steady-state timer churn on a small calendar (which lazy pops
#: already clean up for free) never triggers O(n) compaction.
_SWEEP_MIN_CANCELLED = 256


class Event:
    """A scheduled callback.

    Instances are returned by :meth:`Simulator.schedule` ("fire at absolute
    time") / :meth:`Simulator.call_later` ("fire after a delay") and can be
    cancelled with :meth:`cancel` at any point before they fire.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "sim")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple,
                 sim: "Optional[Simulator]" = None):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.sim = sim

    def cancel(self) -> None:
        """Prevent this event from firing.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        # Drop references so cancelled retransmit timers don't pin packets.
        self.fn = _noop
        self.args = ()
        # Let the owning simulator batch-compact its calendar once
        # cancelled entries dominate it.
        sim = self.sim
        if sim is not None:
            sim._n_cancelled += 1

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.9f} seq={self.seq} {state}>"


def _noop(*_args: Any) -> None:
    return None


class Simulator:
    """Event heap plus simulation clock.

    Parameters
    ----------
    start:
        Initial clock value in seconds (default ``0.0``).

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.call_later(1.5, fired.append, "a")
    >>> _ = sim.call_later(0.5, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    1.5
    """

    __slots__ = ("_heap", "_counter", "_now", "_cur_seq", "_running",
                 "_processed", "_stopped", "_n_cancelled", "_profiler",
                 "_cleanup_hooks")

    def __init__(self, start: float = 0.0):
        #: entries are ``(time, seq, Event)`` or ``(time, seq, fn, args)``
        self._heap: list[tuple] = []
        self._counter = itertools.count()
        self._now = float(start)
        #: sequence number of the executing (else the last executed)
        #: event: every calendar position ``<= (now, _cur_seq)`` has been
        #: passed, every later one has not.  ``-1`` before the first
        #: event; ``maxsize`` once a :meth:`run` has drained every event
        #: due at the clock it returns with.
        self._cur_seq = -1
        self._running = False
        self._stopped = False
        self._processed = 0
        self._n_cancelled = 0
        self._profiler = None
        self._cleanup_hooks: list[Callable[[], None]] = []

    # -- clock ---------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (monitoring/profiling aid)."""
        return self._processed

    @property
    def pending(self) -> int:
        """Events still in the calendar (including lazily-cancelled ones)."""
        return len(self._heap)

    # -- scheduling ------------------------------------------------------

    def schedule(self, when: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulation time ``when``.

        Raises
        ------
        SimulationError
            If ``when`` lies in the simulated past.
        """
        if when < self._now:
            raise SimulationError(
                f"cannot schedule event at t={when:.9f}s before now={self._now:.9f}s"
            )
        heap = self._heap
        n_cancelled = self._n_cancelled
        if n_cancelled > _SWEEP_MIN_CANCELLED and n_cancelled * 2 > len(heap):
            self._sweep()
        ev = Event(when, next(self._counter), fn, args, self)
        heappush(heap, (when, ev.seq, ev))
        return ev

    def call_later(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` after ``delay`` seconds.

        Raises
        ------
        SimulationError
            If ``delay`` is negative.
        """
        # schedule() inlined: this runs once per timer arm, and a
        # non-negative delay can never land in the simulated past.
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        heap = self._heap
        n_cancelled = self._n_cancelled
        if n_cancelled > _SWEEP_MIN_CANCELLED and n_cancelled * 2 > len(heap):
            self._sweep()
        when = self._now + delay
        ev = Event(when, next(self._counter), fn, args, self)
        heappush(heap, (when, ev.seq, ev))
        return ev

    def schedule_fast(self, when: float, fn: Callable[..., Any], *args: Any) -> None:
        """:meth:`schedule` without a cancellation handle.

        The hot path for events that are never cancelled (packet
        serialisation completions, propagation deliveries): no
        :class:`Event` is allocated, the calendar holds a raw
        ``(time, seq, fn, args)`` tuple.
        """
        if when < self._now:
            raise SimulationError(
                f"cannot schedule event at t={when:.9f}s before now={self._now:.9f}s"
            )
        heap = self._heap
        n_cancelled = self._n_cancelled
        if n_cancelled > _SWEEP_MIN_CANCELLED and n_cancelled * 2 > len(heap):
            self._sweep()
        heappush(heap, (when, next(self._counter), fn, args))

    def call_later_fast(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """:meth:`call_later` without a cancellation handle (see
        :meth:`schedule_fast`).  Off the per-packet path: a port pushes
        its deliveries onto the calendar itself, and calls this only to
        re-deliver a packet whose link failed and recovered
        mid-serialisation."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        heap = self._heap
        n_cancelled = self._n_cancelled
        if n_cancelled > _SWEEP_MIN_CANCELLED and n_cancelled * 2 > len(heap):
            self._sweep()
        heappush(heap, (self._now + delay, next(self._counter), fn, args))

    def revoke(self, seq: int) -> None:
        """Remove the handle-less entry scheduled under ``seq``.

        O(calendar) — a control-plane helper (a link cut revoking the
        delivery of the packet on the wire), never on a per-packet path.
        In place, like :meth:`_sweep`, so a running loop keeps seeing
        the calendar.
        """
        heap = self._heap
        for i, entry in enumerate(heap):
            if entry[1] == seq and len(entry) == 4:
                heap[i] = heap[-1]
                heap.pop()
                heapify(heap)
                return
        raise SimulationError(f"no pending fast event with seq {seq}")

    def _sweep(self) -> None:
        """Batch lazy-deletion: drop cancelled entries, re-heapify in place.

        In-place (``heap[:] =``) so a ``run()`` loop holding a local
        reference to the list keeps seeing the compacted calendar.
        """
        heap = self._heap
        heap[:] = [e for e in heap if len(e) != 3 or not e[2].cancelled]
        heapify(heap)
        self._n_cancelled = 0

    # -- observation hooks -----------------------------------------------

    def set_profiler(self, profiler) -> None:
        """Install (or with ``None``, remove) an event-loop profiler.

        The check happens once per :meth:`run` call, so a simulator with
        no profiler pays nothing per event; with one installed,
        execution goes through :meth:`_run_profiled`, which attributes
        event counts and sampled wall time to handler components (see
        :class:`repro.obs.profiler.EngineProfiler`).
        """
        self._profiler = profiler

    def add_cleanup_hook(self, fn: Callable[[], None]) -> None:
        """Register ``fn`` to run if :meth:`run` exits via an exception.

        The hooks exist so durable trace sinks can flush their buffered
        tail when a run dies mid-flight (a truncated trace is precisely
        the one forensics needs intact).  They fire only on the
        exception path — the normal path stays hook-free and the
        original exception always propagates.
        """
        self._cleanup_hooks.append(fn)

    def _fire_cleanup(self) -> None:
        for fn in self._cleanup_hooks:
            try:
                fn()
            except Exception:  # pragma: no cover - best-effort on the way down
                pass

    # -- execution -------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events in time order.

        Parameters
        ----------
        until:
            Stop once the next event would fire strictly after ``until``
            and advance the clock to ``until``.  ``None`` drains the heap.
        max_events:
            Safety valve: raise :class:`SimulationError` after this many
            events *in this call* (catches accidental event storms in
            tests).  The budget is per ``run()`` invocation, not
            cumulative over the simulator's lifetime.  Skipped cancelled
            events do not consume budget.
        """
        if self._profiler is not None:
            self._run_profiled(until, max_events)
            return
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        self._stopped = False
        heap = self._heap
        pop = heappop
        bound = float("inf") if until is None else until
        budget = maxsize if max_events is None else max_events
        executed = 0
        try:
            while heap:
                entry = pop(heap)
                if len(entry) == 4:
                    when, seq, fn, args = entry
                else:
                    when, seq, ev = entry
                    if ev.cancelled:
                        # Skipped, not run: consumes neither budget nor
                        # clock, and is discarded even beyond ``until``.
                        self._n_cancelled -= 1
                        continue
                    fn = ev.fn
                    args = ev.args
                if when > bound:
                    heappush(heap, entry)
                    break
                if executed >= budget:
                    heappush(heap, entry)
                    raise SimulationError(
                        f"exceeded max_events={max_events} (possible event storm)"
                    )
                self._now = when
                self._cur_seq = seq
                fn(*args)
                executed += 1
                if self._stopped:
                    break
        except BaseException:
            self._fire_cleanup()
            raise
        finally:
            self._processed += executed
            self._running = False
        self._settle_clock(until)

    def _run_profiled(self, until: Optional[float], max_events: Optional[int]) -> None:
        """:meth:`run` with per-handler attribution.

        Semantics are identical to the unprofiled loop — same budget
        accounting, ``until`` clock advance, stop handling, and
        cancelled-event skips — so profiling a seeded run cannot change
        its event sequence.  Every executed event increments its
        handler's count; wall time is measured for one event in
        ``profiler.sample_every`` to keep the ``perf_counter`` overhead
        off most events.
        """
        from time import perf_counter

        prof = self._profiler
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        self._stopped = False
        heap = self._heap
        pop = heappop
        bound = float("inf") if until is None else until
        budget = maxsize if max_events is None else max_events
        executed = 0
        counts = prof.counts
        sampled_time = prof.sampled_time
        sampled_events = prof.sampled_events
        sample_every = prof.sample_every
        timer = perf_counter
        run_t0 = timer()
        try:
            while heap:
                entry = pop(heap)
                if len(entry) == 4:
                    when, seq, fn, args = entry
                else:
                    when, seq, ev = entry
                    if ev.cancelled:
                        self._n_cancelled -= 1
                        continue
                    fn = ev.fn
                    args = ev.args
                if when > bound:
                    heappush(heap, entry)
                    break
                if executed >= budget:
                    heappush(heap, entry)
                    raise SimulationError(
                        f"exceeded max_events={max_events} (possible event storm)"
                    )
                self._now = when
                self._cur_seq = seq
                name = getattr(fn, "__qualname__", None) or repr(fn)
                counts[name] += 1
                if executed % sample_every == 0:
                    t0 = timer()
                    fn(*args)
                    sampled_time[name] += timer() - t0
                    sampled_events[name] += 1
                else:
                    fn(*args)
                executed += 1
                if self._stopped:
                    break
        except BaseException:
            self._fire_cleanup()
            raise
        finally:
            prof.wall_s += timer() - run_t0
            prof.runs += 1
            self._processed += executed
            self._running = False
        self._settle_clock(until)

    def _settle_clock(self, until: Optional[float]) -> None:
        """Normal exit of a run: every event due at the final clock ran."""
        if self._stopped:
            return  # events at the current instant may still be pending
        self._cur_seq = maxsize
        if until is not None and self._now < until:
            self._now = until

    def stop(self) -> None:
        """Stop :meth:`run` after the currently executing event returns."""
        self._stopped = True
