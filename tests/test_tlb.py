"""Tests for the TLB forwarding manager (unit-level, fake ports)."""

import pytest

from repro.core.config import TlbConfig
from repro.core.tlb import TlbBalancer
from repro.errors import ConfigError
from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.sim.trace import RecordingTracer
from repro.units import Gbps, KB

from tests.test_lb import FakePort, FakeSwitch


def make_tlb(n_ports=4, qth=None, sim=None, **cfg_overrides):
    sim = sim or Simulator()
    cfg = TlbConfig(**cfg_overrides) if cfg_overrides else TlbConfig()
    lb = TlbBalancer(seed=1, config=cfg, n_paths=n_ports,
                     link_rate=Gbps(1), buffer_packets=256)
    FakeSwitch(sim).attach(lb)
    if qth is not None:
        lb.qth = qth
    ports = [FakePort(f"p{i}") for i in range(n_ports)]
    return sim, lb, ports


def data(flow_id=1, seq=0, size=1500, **kw):
    return Packet(flow_id, "h0", "h1", seq, size, **kw)


def syn(flow_id=1, deadline=None):
    return Packet(flow_id, "h0", "h1", 0, 40, syn=True, deadline=deadline)


def fin(flow_id=1):
    return Packet(flow_id, "h0", "h1", 99, 40, fin=True)


def send_bytes(lb, ports, flow_id, nbytes, size=1460):
    seq = 0
    while nbytes > 0:
        lb.select_port(data(flow_id=flow_id, seq=seq, size=min(size, nbytes)),
                       ports)
        nbytes -= size
        seq += 1


def test_short_flows_go_to_shortest_queue():
    sim, lb, ports = make_tlb()
    ports[2].queue_length = 0
    for i in (0, 1, 3):
        ports[i].queue_length = 10
    assert lb.select_port(data(), ports).name == "p2"


def test_short_flow_switches_every_packet():
    sim, lb, ports = make_tlb()
    assert lb.select_port(data(seq=0), ports).name == "p0"
    for i in (0, 1, 2):
        ports[i].queue_length = 5
    ports[3].queue_length = 0
    assert lb.select_port(data(seq=1), ports).name == "p3"


def test_long_flow_sticks_below_threshold():
    sim, lb, ports = make_tlb(qth=10)
    # Push the flow past the 100 KB classification threshold.
    send_bytes(lb, ports, 1, 150_000)
    entry = lb.table.get((1, False))
    assert entry.is_long
    stick = entry.port_idx
    ports[stick].queue_length = 9  # below qth
    other = (stick + 1) % 4
    ports[other].queue_length = 0
    assert lb.select_port(data(seq=200), ports).name == f"p{stick}"


def test_long_flow_reroutes_at_threshold():
    sim, lb, ports = make_tlb(qth=10)
    send_bytes(lb, ports, 1, 150_000)
    entry = lb.table.get((1, False))
    stick = entry.port_idx
    ports[stick].queue_length = 10  # reaches qth
    target = (stick + 1) % 4
    for i in range(4):
        if i != target and i != stick:
            ports[i].queue_length = 10
    ports[target].queue_length = 0
    assert lb.select_port(data(seq=200), ports).name == f"p{target}"
    assert entry.port_idx == target
    assert lb.long_reroutes >= 1


def test_flow_counting_via_syn_fin():
    sim, lb, ports = make_tlb()
    lb.select_port(syn(flow_id=1), ports)
    lb.select_port(syn(flow_id=2), ports)
    assert lb.table.m_short == 2
    lb.select_port(fin(flow_id=1), ports)
    assert lb.table.m_short == 1


def test_deadline_collection_from_syn():
    sim, lb, ports = make_tlb()
    lb.select_port(syn(flow_id=1, deadline=0.012), ports)
    assert lb.deadline_stats.n_observations == 1


def test_deadline_ignored_in_agnostic_mode():
    sim, lb, ports = make_tlb(use_deadline_info=False, default_deadline=0.015)
    lb.select_port(syn(flow_id=1, deadline=0.012), ports)
    assert lb.deadline_stats.n_observations == 0
    assert lb.deadline_stats.value() == 0.015


def test_periodic_tick_updates_qth():
    sim, lb, ports = make_tlb()
    # create long-flow pressure so qth is meaningful
    for f in (1, 2, 3):
        send_bytes(lb, ports, f, 150_000)
    for f in range(10, 40):
        lb.select_port(syn(flow_id=f, deadline=0.010), ports)
        lb.select_port(data(flow_id=f, seq=1), ports)
    sim.run(until=0.002)  # several 500 us ticks
    assert lb.counters.timer_ticks >= 3
    assert lb.qth >= 1
    assert lb.calculator.last_decision is not None


def test_fixed_qth_mode_never_updates():
    sim, lb, ports = make_tlb(fixed_qth=40)
    assert lb.qth == 40
    sim.run(until=0.005)
    assert lb.qth == 40
    assert lb.calculator.last_decision is None


def test_idle_eviction_via_tick():
    sim, lb, ports = make_tlb()
    lb.select_port(syn(flow_id=1), ports)
    assert lb.table.m_short == 1
    sim.run(until=0.0015)  # > 2 ticks with no further packets
    assert lb.table.m_short == 0


def test_short_size_samples_feed_estimator():
    sim, lb, ports = make_tlb()
    send_bytes(lb, ports, 1, 50_000)
    lb.select_port(fin(flow_id=1), ports)
    assert lb.size_estimator.samples == 1
    # sample is wire bytes of the flow (~50 kB)
    assert lb.size_estimator.value == pytest.approx(50_000, rel=0.1)


def test_ack_direction_sizes_not_sampled():
    sim, lb, ports = make_tlb()
    ack = Packet(1, "h1", "h0", 0, 40, is_ack=True)
    lb.select_port(ack, ports)
    fin_ack = Packet(1, "h1", "h0", 1, 40, is_ack=True, fin=True)
    lb.select_port(fin_ack, ports)
    assert lb.size_estimator.samples == 0


def test_qth_history_recording():
    sim, lb, ports = make_tlb()
    lb.switch.tracer = RecordingTracer(kinds={"qth"})
    lb.select_port(syn(flow_id=1), ports)
    sim.run(until=0.002)
    qth_history = lb.switch.tracer.of_kind("qth")
    assert len(qth_history) >= 3
    assert qth_history[0].time == pytest.approx(0.0005)
    # the latest record is the calculator's latest decision
    assert qth_history[-1].fields == {
        "node": "leaf0", **lb.calculator.last_decision.as_dict(),
        "load_bps": lb.load.rate_bps}


def test_stop_cancels_timer():
    sim, lb, ports = make_tlb()
    lb.stop()
    sim.run(until=0.01)
    assert lb.counters.timer_ticks == 0


def test_state_entries_reports_table_size():
    sim, lb, ports = make_tlb()
    lb.select_port(syn(flow_id=1), ports)
    lb.select_port(syn(flow_id=2), ports)
    assert lb.state_entries() == 2


def test_registry_factory_builds_from_network():
    from repro.lb.registry import attach_scheme
    from repro.net.topology import build_two_leaf_fabric

    net = build_two_leaf_fabric(n_paths=5, hosts_per_leaf=2)
    balancers = attach_scheme(net, "tlb", fixed_qth=17)
    # only the two leaves balance in a leaf-spine fabric
    assert set(balancers) == {"leaf0", "leaf1"}
    lb = balancers["leaf0"]
    assert isinstance(lb, TlbBalancer)
    assert lb.qth == 17
    assert lb.calculator.n_paths == 5
    assert lb.config.rtt == net.config.rtt


def test_invalid_config_validation():
    with pytest.raises(ConfigError):
        TlbConfig(update_interval=0)
    with pytest.raises(ConfigError):
        TlbConfig(deadline_percentile=100)
    with pytest.raises(ConfigError):
        TlbConfig(fixed_qth=0)
    with pytest.raises(ConfigError):
        TlbConfig(min_qth=0)
    with pytest.raises(ConfigError):
        TlbConfig(size_ema_gain=0)
