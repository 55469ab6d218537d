"""Dynamic fault injection: spec grammar, live mutation, observers.

Covers the ``repro.faults`` subsystem end to end — parsing and
round-tripping schedules, arming them against a live fabric, the
data-plane effects of every fault kind, PathStateObserver delivery
(including detection delay), composition with static asymmetry, and the
determinism guarantee (same seed → byte-identical exported metrics).
"""

import numpy as np
import pytest

from repro.errors import FaultError
from repro.experiments import ScenarioConfig, run_scenario
from repro.faults import (
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    link_flap,
    random_link_flaps,
)
from repro.lb import attach_scheme
from repro.lb.base import LoadBalancer
from repro.metrics.export import write_metrics_json
from repro.net.topology import build_two_leaf_fabric
from repro.sim.trace import RecordingTracer


# -- spec grammar ---------------------------------------------------------


def test_spec_round_trip():
    spec = "0.1:link_down:leaf0-spine1;0.3:link_up:leaf0-spine1"
    sched = FaultSchedule.from_spec(spec)
    assert len(sched) == 2
    assert sched.spec() == spec
    assert sched.targets == ["leaf0-spine1"]


def test_spec_round_trip_with_arguments():
    spec = ("0.05:loss_start:leaf0-spine0:0.02;"
            "0.1:link_down:leaf1-spine2:park;"
            "0.2:degrade:leaf0-spine1:0.25;"
            "0.3:loss_stop:leaf0-spine0")
    sched = FaultSchedule.from_spec(spec)
    assert sched.spec() == spec
    down = sched.events[1]
    assert down.kind == "link_down" and down.mode == "park"
    assert sched.events[0].loss_rate == 0.02
    assert sched.events[2].rate_factor == 0.25


def test_spec_round_trip_is_lossless():
    # %g keeps six significant digits; a time, rate factor or loss rate
    # that needs seven must still come back as the same schedule
    sched = FaultSchedule.from_spec(
        "1.000001:link_down:leaf0-spine1;"
        "1.5:degrade:leaf0-spine2:0.5000001;"
        "2:loss_start:leaf0-spine0:0.01000001")
    assert FaultSchedule.from_spec(sched.spec()) == sched
    assert sched.spec().startswith("1.000001:link_down")


def test_schedule_sorts_by_time():
    sched = FaultSchedule.from_spec(
        "0.3:link_up:leaf0-spine0;0.1:link_down:leaf0-spine0")
    assert [e.kind for e in sched] == ["link_down", "link_up"]
    assert [e.time for e in sched] == [0.1, 0.3]


def test_node_kinds_take_switch_targets():
    sched = FaultSchedule.from_spec(
        "0.1:blackhole:spine2;0.2:blackhole_clear:spine2")
    assert sched.events[0].node == "spine2"
    assert sched.events[0].link is None
    assert sched.spec() == "0.1:blackhole:spine2;0.2:blackhole_clear:spine2"


@pytest.mark.parametrize("bad", [
    "",
    ";;",
    "0.1:link_down",                       # missing target
    "x:link_down:leaf0-spine0",            # bad time
    "-1:link_down:leaf0-spine0",           # negative time
    "nan:link_down:leaf0-spine0",          # non-finite times
    "inf:link_down:leaf0-spine0",
    "0.1:meteor_strike:leaf0-spine0",      # unknown kind
    "0.1:link_down:leaf0",                 # link target without '-'
    "0.1:link_down:leaf0-spine0:melt",     # unknown down mode
    "0.1:link_up:leaf0-spine0:drop",       # link_up takes no argument
    "0.1:degrade:leaf0-spine0:0",          # factor out of (0, 1]
    "0.1:degrade:leaf0-spine0:1.5",
    "0.1:loss_start:leaf0-spine0:1.0",     # loss rate out of (0, 1)
    "0.1:loss_start:leaf0-spine0:zz",
    "0.1:link_down:leaf0-spine0:drop:x",   # too many fields
])
def test_spec_rejects_malformed_events(bad):
    with pytest.raises(FaultError):
        FaultSchedule.from_spec(bad)


def test_event_constructor_validates_target_kind_match():
    with pytest.raises(FaultError):
        FaultEvent(time=0.1, kind="link_down", node="spine0")
    with pytest.raises(FaultError):
        FaultEvent(time=0.1, kind="blackhole", link=("leaf0", "spine0"))


def test_link_flap_rejects_inverted_window():
    with pytest.raises(FaultError):
        link_flap(("leaf0", "spine0"), down_at=0.3, up_at=0.1)


def test_random_link_flaps_are_a_pure_function_of_the_seed():
    links = [("leaf0", "spine0"), ("leaf0", "spine1"), ("leaf1", "spine0")]
    make = lambda: random_link_flaps(  # noqa: E731
        links, count=4, window=(0.0, 1.0), min_outage=0.01, max_outage=0.1,
        rng=np.random.default_rng(7))
    assert make().spec() == make().spec()
    other = random_link_flaps(
        links, count=4, window=(0.0, 1.0), min_outage=0.01, max_outage=0.1,
        rng=np.random.default_rng(8))
    assert other.spec() != make().spec()


# -- arming & validation --------------------------------------------------


def _fabric(n_paths=3, tracer=None):
    net = build_two_leaf_fabric(n_paths=n_paths, hosts_per_leaf=2,
                                tracer=tracer)
    attach_scheme(net, "ecmp")
    return net


def test_arm_rejects_unknown_targets():
    net = _fabric()
    bad_link = FaultSchedule.from_spec("0.1:link_down:leaf0-spine99")
    with pytest.raises(FaultError, match="no link"):
        FaultInjector(net, bad_link).arm()
    bad_node = FaultSchedule.from_spec("0.1:blackhole:nucleus0")
    with pytest.raises(FaultError, match="unknown switch"):
        FaultInjector(net, bad_node).arm()


def test_arm_twice_is_refused():
    net = _fabric()
    inj = FaultInjector(net, link_flap(("leaf0", "spine0"), 0.1, 0.2)).arm()
    with pytest.raises(FaultError, match="already armed"):
        inj.arm()


def test_negative_detection_delay_is_refused():
    net = _fabric()
    with pytest.raises(FaultError):
        FaultInjector(net, link_flap(("leaf0", "spine0"), 0.1, 0.2),
                      detection_delay=-1.0)


# -- data-plane effects ---------------------------------------------------


def test_link_down_takes_both_directions_and_link_up_restores():
    tracer = RecordingTracer()
    net = _fabric(tracer=tracer)
    inj = FaultInjector(net, link_flap(("leaf0", "spine1"), 0.1, 0.3)).arm()
    fwd = net.port_between("leaf0", "spine1")
    rev = net.port_between("spine1", "leaf0")
    lb = net.switches["leaf0"].lb

    net.sim.run(until=0.2)
    assert not fwd.admin_up and not rev.admin_up
    assert fwd in lb.down_ports
    assert inj.summary() == {"link_down": 1}

    net.sim.run(until=0.4)
    assert fwd.admin_up and rev.admin_up
    assert not lb.down_ports
    assert inj.summary() == {"link_down": 1, "link_up": 1}
    assert tracer.count("link_down") == 1 and tracer.count("link_up") == 1
    assert tracer.of_kind("link_down")[0].fields["node"] == "leaf0-spine1"


def test_degrade_and_restore_compose_with_static_asymmetry():
    """The satellite: dynamic degrade stacks on a pre-degraded link and
    restore returns to the *static* (asymmetric) rate, not the pristine
    one."""
    from repro.net.asymmetry import LinkOverride, apply_asymmetry

    net = _fabric()
    port = net.port_between("leaf0", "spine0")
    pristine = port.rate
    apply_asymmetry(net, [LinkOverride("leaf0", "spine0", rate_factor=0.5)])
    static_rate = port.rate
    assert static_rate == pytest.approx(pristine * 0.5)

    sched = FaultSchedule.from_spec(
        "0.1:degrade:leaf0-spine0:0.2;0.3:restore:leaf0-spine0")
    FaultInjector(net, sched).arm()
    net.sim.run(until=0.2)
    assert port.rate == pytest.approx(static_rate * 0.2)
    net.sim.run(until=0.4)
    assert port.rate == pytest.approx(static_rate)


def test_loss_burst_uses_seeded_stream_and_stops_cleanly():
    net = _fabric()
    sched = FaultSchedule.from_spec(
        "0.1:loss_start:leaf0-spine0:0.2;0.3:loss_stop:leaf0-spine0")
    FaultInjector(net, sched).arm()
    port = net.port_between("leaf0", "spine0")
    net.sim.run(until=0.2)
    assert port.loss_rate == 0.2
    assert port.loss_rng is net.rngs.stream("faults")
    net.sim.run(until=0.4)
    assert port.loss_rate == 0.0 and port.loss_rng is None


def test_blackhole_eats_packets_and_notifies_upstream_balancers():
    from tests.conftest import make_packet

    tracer = RecordingTracer()
    net = _fabric(tracer=tracer)
    sched = FaultSchedule.from_spec(
        "0.1:blackhole:spine1;0.3:blackhole_clear:spine1")
    FaultInjector(net, sched).arm()
    spine = net.switches["spine1"]
    into = net.port_between("leaf0", "spine1")
    lb = net.switches["leaf0"].lb

    net.sim.run(until=0.2)
    assert spine.blackholed
    assert into in lb.down_ports
    spine.receive(make_packet())
    assert spine.packets_blackholed == 1
    drops = [r for r in tracer.of_kind("drop")
             if r.fields.get("reason") == "blackhole"]
    assert len(drops) == 1 and drops[0].fields["node"] == "spine1"

    net.sim.run(until=0.4)
    assert not spine.blackholed and not lb.down_ports
    spine.receive(make_packet(seq=1))
    assert spine.packets_blackholed == 1


def test_detection_delay_defers_observer_not_data_plane():
    net = _fabric()
    FaultInjector(net, link_flap(("leaf0", "spine0"), 0.1, 0.5),
                  detection_delay=0.05).arm()
    port = net.port_between("leaf0", "spine0")
    lb = net.switches["leaf0"].lb
    net.sim.run(until=0.12)
    assert not port.admin_up          # data plane fails immediately
    assert port not in lb.down_ports  # ...but the LB hasn't noticed yet
    net.sim.run(until=0.2)
    assert port in lb.down_ports


# -- PathStateObserver filtering ------------------------------------------


class _FirstPort(LoadBalancer):
    """Deterministic test double: always the first offered port."""

    def select_port(self, pkt, ports):
        return ports[0]


def test_pick_filters_down_ports_and_falls_back_when_all_dead():
    net = build_two_leaf_fabric(n_paths=3, hosts_per_leaf=2)
    lb = _FirstPort()
    ports = [net.port_between("leaf0", f"spine{i}") for i in range(3)]

    assert lb.pick(None, ports) is ports[0]
    lb.path_down(ports[0])
    assert lb.pick(None, ports) is ports[1]
    lb.path_down(ports[1])
    lb.path_down(ports[2])
    # Every candidate dead: filtering would leave nothing to send on, so
    # the full set is offered again (data plane drops still apply).
    assert lb.pick(None, ports) is ports[0]
    lb.path_up(ports[0])
    assert lb.pick(None, ports) is ports[0]
    assert lb.path_events == 4
    assert lb.path_down(ports[0]) is None  # idempotent re-notification
    assert ports[0] in lb.down_ports


# -- end-to-end: the ISSUE demo scenario ----------------------------------


def _demo_config(scheme, **overrides):
    base = dict(
        scheme=scheme, n_paths=6, hosts_per_leaf=8, n_short=30, n_long=2,
        short_window=0.4, horizon=2.0,
        faults="0.1:link_down:leaf0-spine1;0.3:link_up:leaf0-spine1",
        trace_kinds=("link_down", "link_up"),
    )
    base.update(overrides)
    return ScenarioConfig(**base)


@pytest.mark.parametrize("scheme", ["tlb", "conga"])
def test_mid_run_link_flap_completes_all_flows(scheme):
    result = run_scenario(_demo_config(scheme))
    m = result.metrics
    assert result.completed_all
    assert m.all_fct.n_flows - m.all_fct.n_completed == 0  # zero stuck
    assert m.extras["faults_applied"] == {"link_down": 1, "link_up": 1}
    # Trace records and injector counters agree on the fault timeline.
    assert result.tracer.count("link_down") == result.injector.counts["link_down"]
    assert result.tracer.count("link_up") == result.injector.counts["link_up"]
    assert result.tracer.count("link_down") == 1
    # Both observer notifications (down + up) reached the leaf balancer.
    assert m.extras["path_events"] >= 2


def test_static_asymmetry_composes_with_dynamic_faults_deterministically():
    """The satellite: apply_asymmetry at build time + mid-run flap, twice
    with the same seed, gives identical results."""
    def once():
        cfg = _demo_config(
            "tlb", n_short=20,
            link_overrides=(("leaf0", "spine0", 0.5, 0.0),))
        return run_scenario(cfg)

    a, b = once(), once()
    assert a.metrics.extras["faults_applied"] == {"link_down": 1, "link_up": 1}
    assert a.metrics.short_fct.mean == b.metrics.short_fct.mean
    assert a.metrics.all_fct.n_completed == b.metrics.all_fct.n_completed
    assert a.metrics.extras["events"] == b.metrics.extras["events"]
    # The degraded link is still at its static rate after recovery.
    assert a.net.port_between("leaf0", "spine0").rate == pytest.approx(
        a.net.port_between("leaf0", "spine2").rate * 0.5)


def test_fault_comparison_driver_reports_failures_without_dying():
    from repro.experiments.faults import (
        FaultRow, default_fault_spec, fault_demo_config,
        run_fault_comparison, tabulate)

    config = fault_demo_config(n_short=8, n_long=1, short_window=0.08,
                               horizon=1.0)
    spec = default_fault_spec(config, down_at=0.01, up_at=0.05)
    assert default_fault_spec(config, down_at=0.01, up_at=0.05) == spec
    rows = run_fault_comparison(spec, schemes=("ecmp", "tlb"),
                                config=config, processes=0)
    assert [r.scheme for r in rows] == ["ecmp", "tlb"]
    assert all(not r.failed and r.link_downs == 1 and r.link_ups == 1
               for r in rows)
    crashed = FaultRow(scheme="ghost", completed_all=False, stuck_flows=-1,
                       short_afct=float("nan"),
                       long_goodput_bps=float("nan"),
                       deadline_miss=float("nan"), link_downs=0, link_ups=0,
                       error="RuntimeError: worker died")
    text = tabulate(rows + [crashed], spec)
    assert "failed runs (reported, not fatal):" in text
    assert "ghost: RuntimeError: worker died" in text


def test_same_seed_faulted_runs_export_byte_identical_metrics(tmp_path):
    """The determinism satellite: a faulted run (including a seeded loss
    burst) is a pure function of the seed, down to the exported bytes."""
    spec = ("0.05:loss_start:leaf0-spine0:0.03;"
            "0.1:link_down:leaf0-spine1;"
            "0.2:loss_stop:leaf0-spine0;"
            "0.3:link_up:leaf0-spine1")
    paths = []
    for name in ("a.json", "b.json"):
        cfg = _demo_config("tlb", n_short=20, faults=spec, seed=11)
        result = run_scenario(cfg)
        paths.append(write_metrics_json(tmp_path / name, [result.metrics]))
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_usable_ports_is_cached_per_candidate_set_and_invalidated():
    """Same ports, same order, same all-down fallback — without a list
    rebuilt per packet."""
    net = build_two_leaf_fabric(n_paths=4, hosts_per_leaf=2)
    lb = _FirstPort()
    ports = tuple(net.port_between("leaf0", f"spine{i}") for i in range(4))
    other = ports[:3]
    assert lb.usable_ports(ports) is ports      # nothing down: untouched
    lb.path_down(ports[1])
    live = lb.usable_ports(ports)
    assert live == (ports[0], ports[2], ports[3])
    assert lb.usable_ports(ports) is live       # second packet: a lookup
    assert lb.usable_ports(list(ports)) is live  # lists are welcome too
    assert lb.usable_ports(other) == (ports[0], ports[2])
    lb.path_down(ports[0])                      # invalidates every set
    assert lb.usable_ports(ports) == (ports[2], ports[3])
    lb.path_down(ports[2])
    assert lb.usable_ports(other) is other      # all of them down: fall back
    lb.path_up(ports[1])
    assert lb.usable_ports(ports) == (ports[1], ports[3])
    lb.path_up(ports[0])
    lb.path_up(ports[2])
    assert lb.usable_ports(ports) is ports
