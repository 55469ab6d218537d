"""Drive a :class:`~repro.faults.schedule.FaultSchedule` against a live net.

The injector turns the declarative schedule into simulator events:
:meth:`FaultInjector.arm` validates every target against the built
:class:`~repro.net.topology.Network` and registers one kernel event per
fault.  When an event fires it

* mutates the live data plane — :class:`~repro.net.port.Port`
  administrative state, rate, injected loss, or
  :class:`~repro.net.switch.Switch` blackhole state — on **both**
  directions of the targeted physical link;
* notifies the affected switches' load balancers through the
  :class:`~repro.lb.base.PathStateObserver` hook (optionally after a
  ``detection_delay``, modelling how long BFD/LAG monitoring takes to
  notice), so schemes exclude dead uplinks and re-admit recovered ones;
* emits a trace record of the transition (kind = the fault kind), which
  ``repro trace summarize`` and :class:`~repro.obs.SpanBuffer`
  aggregate into fault timelines.

Loss bursts draw from the network's seeded ``"faults"`` RNG stream
(:class:`~repro.sim.rng.RngRegistry`), so a whole faulted run stays a
pure function of the experiment seed.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Optional

from repro.errors import FaultError
from repro.faults.schedule import FaultEvent, FaultSchedule, LINK_KINDS
from repro.sim.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.port import Port
    from repro.net.topology import Network

__all__ = ["FaultInjector"]

#: name of the RNG stream loss bursts draw from
FAULTS_STREAM = "faults"


class FaultInjector:
    """Bind a schedule to a network and fire it off simulator timers.

    Parameters
    ----------
    net:
        A built network (its ``sim``, ``ports``, ``switches`` and seeded
        ``rngs`` are used).
    schedule:
        What to break, and when.
    detection_delay:
        Seconds between a link transition taking effect on the data
        plane and the owning switch's balancer being notified.  Zero
        (default) models an oracle control plane; the data plane is
        always mutated immediately.
    tracer:
        Trace sink for fault transition records; defaults to the
        network's own tracer.

    Attributes
    ----------
    applied:
        ``(time, FaultEvent)`` pairs in application order.
    counts:
        Per-kind totals of applied events (e.g. ``{"link_down": 1}``).
    """

    def __init__(
        self,
        net: "Network",
        schedule: FaultSchedule,
        *,
        detection_delay: float = 0.0,
        tracer: Optional[Tracer] = None,
    ):
        if detection_delay < 0:
            raise FaultError(
                f"detection_delay must be >= 0, got {detection_delay!r}")
        self.net = net
        self.schedule = schedule
        self.detection_delay = float(detection_delay)
        self.tracer = tracer if tracer is not None else net.tracer
        self.applied: list[tuple[float, FaultEvent]] = []
        self.counts: Counter[str] = Counter()
        #: (src, dst) -> rate before the first un-restored degrade
        self._saved_rates: dict[tuple[str, str], float] = {}
        self._armed = False

    # -- set-up -----------------------------------------------------------

    def arm(self) -> "FaultInjector":
        """Validate targets and schedule every event.  Returns ``self``."""
        if self._armed:
            raise FaultError("injector is already armed")
        for ev in self.schedule:
            self._validate(ev)
        for ev in self.schedule:
            self.net.sim.schedule(ev.time, self._apply, ev)
        self._armed = True
        return self

    def _validate(self, ev: FaultEvent) -> None:
        if ev.kind in LINK_KINDS:
            a, b = ev.link  # type: ignore[misc]
            for key in ((a, b), (b, a)):
                if key not in self.net.ports:
                    raise FaultError(
                        f"fault {ev.spec()!r}: no link {key[0]} -> {key[1]}")
        else:
            if ev.node not in self.net.switches:
                raise FaultError(
                    f"fault {ev.spec()!r}: unknown switch {ev.node!r}")

    # -- event application -------------------------------------------------

    def _apply(self, ev: FaultEvent) -> None:
        handler = getattr(self, f"_do_{ev.kind}")
        handler(ev)
        self.applied.append((self.net.sim.now, ev))
        self.counts[ev.kind] += 1
        if self.tracer.enabled:
            fields: dict = {"node": ev.target}
            if ev.kind in LINK_KINDS:
                # Both directed port names, so span forensics can match
                # port-attributed drop records back to this fault.
                a, b = ev.link  # type: ignore[misc]
                fields["ports"] = [f"{a}->{b}", f"{b}->{a}"]
            if ev.kind == "link_down":
                fields["mode"] = ev.mode
            elif ev.kind == "degrade":
                fields["rate_factor"] = ev.rate_factor
            elif ev.kind == "loss_start":
                fields["loss_rate"] = ev.loss_rate
            self.tracer.emit(self.net.sim.now, ev.kind, **fields)

    def _link_ports(self, ev: FaultEvent) -> list[tuple[str, "Port"]]:
        """Both directed ports of the event's physical link, with owners."""
        a, b = ev.link  # type: ignore[misc]
        return [(a, self.net.ports[(a, b)]), (b, self.net.ports[(b, a)])]

    def _notify(self, owner: str, method: str, port: "Port") -> None:
        """Deliver a PathStateObserver notification to ``owner``'s LB."""
        switch = self.net.switches.get(owner)
        if switch is None or switch.lb is None:
            return
        fn = getattr(switch.lb, method)
        if self.detection_delay > 0:
            self.net.sim.call_later(self.detection_delay, fn, port)
        else:
            fn(port)

    def _do_link_down(self, ev: FaultEvent) -> None:
        for owner, port in self._link_ports(ev):
            port.fail(mode=ev.mode)
            self._notify(owner, "path_down", port)

    def _do_link_up(self, ev: FaultEvent) -> None:
        for owner, port in self._link_ports(ev):
            port.recover()
            self._notify(owner, "path_up", port)

    def _do_degrade(self, ev: FaultEvent) -> None:
        a, b = ev.link  # type: ignore[misc]
        for key in ((a, b), (b, a)):
            port = self.net.ports[key]
            base = self._saved_rates.setdefault(key, port.rate)
            port.rate = base * ev.rate_factor

    def _do_restore(self, ev: FaultEvent) -> None:
        a, b = ev.link  # type: ignore[misc]
        for key in ((a, b), (b, a)):
            saved = self._saved_rates.pop(key, None)
            if saved is not None:
                self.net.ports[key].rate = saved

    def _do_loss_start(self, ev: FaultEvent) -> None:
        rng = self.net.rngs.stream(FAULTS_STREAM)
        for _, port in self._link_ports(ev):
            port.set_loss(ev.loss_rate, rng)

    def _do_loss_stop(self, ev: FaultEvent) -> None:
        for _, port in self._link_ports(ev):
            port.set_loss(0.0, None)

    def _do_blackhole(self, ev: FaultEvent) -> None:
        self._set_blackhole(ev.node, True)  # type: ignore[arg-type]

    def _do_blackhole_clear(self, ev: FaultEvent) -> None:
        self._set_blackhole(ev.node, False)  # type: ignore[arg-type]

    def _set_blackhole(self, node: str, on: bool) -> None:
        """Flip a switch's blackhole state and notify its upstream LBs.

        Every port *into* the blackholed switch is reported down to the
        balancer of the switch that owns it — traffic still physically
        reaches the dead switch (and dies there), but the control plane
        steers new decisions away, exactly as a routing withdrawal would.
        """
        self.net.switches[node].set_blackhole(on)
        method = "path_down" if on else "path_up"
        for (src, dst), port in self.net.ports.items():
            if dst == node and src in self.net.switches:
                self._notify(src, method, port)

    # -- reporting ---------------------------------------------------------

    def summary(self) -> dict[str, int]:
        """Applied-event totals per kind (stable ordering)."""
        return dict(sorted(self.counts.items()))
