"""Timed fault events and the schedule that holds them.

The paper evaluates load balancers under *static* asymmetry (two
pre-degraded leaf–spine links, §7 Figs. 16–17); this module models the
harder regime: faults that strike *while traffic is flowing*.  A
:class:`FaultSchedule` is an immutable, time-sorted list of
:class:`FaultEvent` records.  Arming one against a live network is the
:class:`~repro.faults.injector.FaultInjector`'s job; this module only
describes *what* happens *when*.

Spec format
-----------
Schedules have a compact one-line text form for the CLI
(``repro run --faults SPEC``) and for config files::

    0.1:link_down:leaf0-spine1;0.3:link_up:leaf0-spine1

Events are separated by ``;``; each is ``time:kind:target[:arg]``:

====================  ==========================  ==========================
kind                  target                      arg
====================  ==========================  ==========================
``link_down``         ``leaf-spine`` link         mode, ``drop``/``park``
                                                  (default ``drop``)
``link_up``           ``leaf-spine`` link         —
``degrade``           ``leaf-spine`` link         rate factor in (0, 1]
``restore``           ``leaf-spine`` link         —
``loss_start``        ``leaf-spine`` link         loss probability in (0, 1)
``loss_stop``         ``leaf-spine`` link         —
``blackhole``         switch name                 —
``blackhole_clear``   switch name                 —
====================  ==========================  ==========================

Link events apply to *both* directions of the physical link, like
:func:`~repro.net.asymmetry.apply_asymmetry` does for static overrides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from repro.errors import FaultError
from repro.units import short_float

__all__ = [
    "FaultEvent",
    "FaultSchedule",
    "LINK_KINDS",
    "NODE_KINDS",
    "link_flap",
    "random_link_flaps",
]

#: kinds whose target is a (leaf, spine) physical link
LINK_KINDS = frozenset({
    "link_down", "link_up", "degrade", "restore", "loss_start", "loss_stop",
})
#: kinds whose target is a single switch
NODE_KINDS = frozenset({"blackhole", "blackhole_clear"})

_DOWN_MODES = ("drop", "park")


@dataclass(frozen=True)
class FaultEvent:
    """One timed fault transition.

    Exactly one of ``link`` / ``node`` is set, matching ``kind`` (see
    :data:`LINK_KINDS` / :data:`NODE_KINDS`).  ``mode``, ``rate_factor``
    and ``loss_rate`` are only meaningful for ``link_down``, ``degrade``
    and ``loss_start`` respectively.
    """

    time: float
    kind: str
    link: Optional[tuple[str, str]] = None
    node: Optional[str] = None
    mode: str = "drop"
    rate_factor: float = 1.0
    loss_rate: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.time) and self.time >= 0):
            raise FaultError(
                f"fault time must be finite and >= 0, got {self.time!r}")
        if self.kind in LINK_KINDS:
            if self.link is None or self.node is not None:
                raise FaultError(f"{self.kind!r} needs a link target")
            if len(self.link) != 2 or not all(self.link):
                raise FaultError(f"bad link target {self.link!r}")
        elif self.kind in NODE_KINDS:
            if self.node is None or self.link is not None:
                raise FaultError(f"{self.kind!r} needs a switch target")
        else:
            known = ", ".join(sorted(LINK_KINDS | NODE_KINDS))
            raise FaultError(f"unknown fault kind {self.kind!r}; known: {known}")
        if self.mode not in _DOWN_MODES:
            raise FaultError(
                f"link_down mode must be one of {_DOWN_MODES}, got {self.mode!r}")
        if self.kind == "degrade" and not 0.0 < self.rate_factor <= 1.0:
            raise FaultError(
                f"degrade rate_factor must be in (0, 1], got {self.rate_factor!r}")
        if self.kind == "loss_start" and not 0.0 < self.loss_rate < 1.0:
            raise FaultError(
                f"loss_start loss_rate must be in (0, 1), got {self.loss_rate!r}")

    @property
    def target(self) -> str:
        """The target rendered as in the spec (``a-b`` or a node name)."""
        if self.link is not None:
            return f"{self.link[0]}-{self.link[1]}"
        return self.node  # type: ignore[return-value]

    def spec(self) -> str:
        """This event in ``time:kind:target[:arg]`` spec form (lossless:
        :meth:`parse` gives back an equal event)."""
        parts = [short_float(self.time), self.kind, self.target]
        if self.kind == "link_down" and self.mode != "drop":
            parts.append(self.mode)
        elif self.kind == "degrade":
            parts.append(short_float(self.rate_factor))
        elif self.kind == "loss_start":
            parts.append(short_float(self.loss_rate))
        return ":".join(parts)

    @classmethod
    def parse(cls, text: str) -> "FaultEvent":
        """Parse one ``time:kind:target[:arg]`` event."""
        parts = [p.strip() for p in text.strip().split(":")]
        if len(parts) < 3:
            raise FaultError(
                f"fault event {text!r} must be time:kind:target[:arg]")
        raw_time, kind, target = parts[0], parts[1], parts[2]
        args = parts[3:]
        try:
            time = float(raw_time)
        except ValueError:
            raise FaultError(f"bad fault time {raw_time!r} in {text!r}") from None
        if len(args) > 1:
            raise FaultError(f"too many fields in fault event {text!r}")
        arg = args[0] if args else None
        kwargs: dict = {}
        if kind in NODE_KINDS:
            kwargs["node"] = target
        else:
            endpoints = tuple(target.split("-"))
            if len(endpoints) != 2:
                raise FaultError(
                    f"link target must be 'a-b', got {target!r} in {text!r}")
            kwargs["link"] = endpoints
        if arg is not None:
            if kind == "link_down":
                kwargs["mode"] = arg
            elif kind == "degrade":
                kwargs["rate_factor"] = _parse_float(arg, text)
            elif kind == "loss_start":
                kwargs["loss_rate"] = _parse_float(arg, text)
            else:
                raise FaultError(f"{kind!r} takes no argument (in {text!r})")
        return cls(time=time, kind=kind, **kwargs)


def _parse_float(raw: str, context: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise FaultError(f"bad numeric argument {raw!r} in {context!r}") from None


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable, time-sorted sequence of :class:`FaultEvent` records.

    Construction sorts events by ``(time, insertion order)`` — ties fire
    in the order given, matching the simulator's deterministic
    tie-breaking.
    """

    events: tuple[FaultEvent, ...] = field(default=())

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.events, key=lambda e: e.time))
        object.__setattr__(self, "events", ordered)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    @property
    def targets(self) -> list[str]:
        """Distinct targets, in first-occurrence order."""
        seen: dict[str, None] = {}
        for ev in self.events:
            seen.setdefault(ev.target, None)
        return list(seen)

    def spec(self) -> str:
        """The whole schedule in CLI spec form (round-trips via
        :meth:`from_spec`)."""
        return ";".join(ev.spec() for ev in self.events)

    @classmethod
    def from_spec(cls, spec: str) -> "FaultSchedule":
        """Parse a ``;``-separated event list (see module docstring)."""
        chunks = [c for c in (piece.strip() for piece in spec.split(";")) if c]
        if not chunks:
            raise FaultError(f"empty fault spec {spec!r}")
        return cls(tuple(FaultEvent.parse(c) for c in chunks))


def link_flap(link: tuple[str, str], down_at: float, up_at: float,
              mode: str = "drop") -> FaultSchedule:
    """Convenience: one link failing at ``down_at``, recovering at ``up_at``."""
    if up_at <= down_at:
        raise FaultError(
            f"recovery at {up_at!r} must follow failure at {down_at!r}")
    return FaultSchedule((
        FaultEvent(time=down_at, kind="link_down", link=tuple(link), mode=mode),
        FaultEvent(time=up_at, kind="link_up", link=tuple(link)),
    ))


def random_link_flaps(
    links: Sequence[tuple[str, str]],
    *,
    count: int,
    window: tuple[float, float],
    min_outage: float,
    max_outage: float,
    rng,
    mode: str = "drop",
) -> FaultSchedule:
    """``count`` seeded random link flaps inside ``window``.

    ``rng`` is a seeded generator (normally the experiment's
    ``repro.sim.rng`` ``"faults"`` stream) exposing ``integers`` and
    ``uniform`` — draws come only from it, so the schedule is a pure
    function of the seed.
    """
    if count < 1:
        raise FaultError("count must be >= 1")
    if not links:
        raise FaultError("no links to flap")
    lo, hi = window
    if hi <= lo:
        raise FaultError(f"bad window {window!r}")
    if not 0 < min_outage <= max_outage:
        raise FaultError("need 0 < min_outage <= max_outage")
    events: list[FaultEvent] = []
    for _ in range(count):
        link = tuple(links[int(rng.integers(0, len(links)))])
        down = float(rng.uniform(lo, hi))
        outage = float(rng.uniform(min_outage, max_outage))
        events.append(FaultEvent(time=down, kind="link_down", link=link, mode=mode))
        events.append(FaultEvent(time=down + outage, kind="link_up", link=link))
    return FaultSchedule(tuple(events))
