"""Unit tests for the baseline load balancers (decision logic in isolation)."""

import pytest

from repro.errors import SchemeError
from repro.lb.base import LoadBalancer, shortest_queue_index
from repro.lb.conga import CongaLiteBalancer
from repro.lb.drill import DrillBalancer
from repro.lb.ecmp import EcmpBalancer
from repro.lb.granularity import FixedGranularityBalancer
from repro.lb.letflow import LetFlowBalancer
from repro.lb.presto import PrestoBalancer
from repro.lb.rps import RpsBalancer
from repro.lb.wcmp import WcmpBalancer
from repro.net.packet import Packet
from repro.sim.engine import Simulator


class FakePort:
    def __init__(self, name, qlen=0, rate=1e9):
        self.name = name
        self.queue_length = qlen
        self.rate = rate

    @property
    def queue_bytes(self):
        # tests manipulate queue_length; mirror it in bytes
        return self.queue_length * 1500

    # what a scheme's per-packet loop reads on a real Port
    # (docs/extending.md): the slots behind ``rate`` and ``queue_length``
    _rate = property(lambda self: self.rate)
    _queue = property(lambda self: range(self.queue_length))

    def __repr__(self):
        return f"<FakePort {self.name} q={self.queue_length}>"


class FakeSwitch:
    def __init__(self, sim, name="leaf0"):
        self.sim = sim
        self.name = name

    def attach(self, lb):
        lb.bind(self)


@pytest.fixture
def ports():
    return [FakePort(f"p{i}") for i in range(4)]


@pytest.fixture
def fswitch():
    return FakeSwitch(Simulator())


def pkt(flow_id=1, seq=0, size=1500, **kw):
    return Packet(flow_id, "h0", "h1", seq, size, **kw)


def bound(lb, fswitch):
    fswitch.attach(lb)
    return lb


# -- shortest_queue_index ---------------------------------------------------

def test_shortest_queue_index_picks_min(ports):
    ports[2].queue_length = -1  # sentinel minimum
    assert shortest_queue_index(ports) == 2


def test_shortest_queue_index_tie_breaks_low(ports):
    assert shortest_queue_index(ports) == 0


# -- ECMP ---------------------------------------------------------------------

def test_ecmp_is_deterministic_per_flow(ports, fswitch):
    lb = bound(EcmpBalancer(seed=1), fswitch)
    picks = {lb.select_port(pkt(flow_id=7, seq=s), ports).name for s in range(20)}
    assert len(picks) == 1


def test_ecmp_spreads_flows(ports, fswitch):
    lb = bound(EcmpBalancer(seed=1), fswitch)
    picks = {lb.select_port(pkt(flow_id=f), ports).name for f in range(200)}
    assert picks == {"p0", "p1", "p2", "p3"}


def test_ecmp_direction_hashes_independently(ports, fswitch):
    lb = bound(EcmpBalancer(seed=3), fswitch)
    fwd = [lb.select_port(pkt(flow_id=f), ports).name for f in range(50)]
    rev = [lb.select_port(pkt(flow_id=f, is_ack=True), ports).name
           for f in range(50)]
    assert fwd != rev  # at least one flow maps differently


def test_ecmp_salt_differs_across_instances(ports):
    a = bound(EcmpBalancer(seed=1), FakeSwitch(Simulator()))
    b = bound(EcmpBalancer(seed=2), FakeSwitch(Simulator()))
    pa = [a.select_port(pkt(flow_id=f), ports).name for f in range(100)]
    pb = [b.select_port(pkt(flow_id=f), ports).name for f in range(100)]
    assert pa != pb


# -- RPS ----------------------------------------------------------------------

def test_rps_uses_all_ports(ports, fswitch):
    lb = bound(RpsBalancer(seed=1), fswitch)
    picks = {lb.select_port(pkt(seq=s), ports).name for s in range(100)}
    assert picks == {"p0", "p1", "p2", "p3"}


def test_rps_roughly_uniform(ports, fswitch):
    lb = bound(RpsBalancer(seed=1), fswitch)
    counts = {p.name: 0 for p in ports}
    for s in range(4000):
        counts[lb.select_port(pkt(seq=s), ports).name] += 1
    for c in counts.values():
        assert 800 < c < 1200


def test_rps_holds_no_state(ports, fswitch):
    lb = bound(RpsBalancer(seed=1), fswitch)
    lb.select_port(pkt(), ports)
    assert lb.state_entries() == 0


# -- Presto ---------------------------------------------------------------------

def test_presto_switches_every_flowcell(ports, fswitch):
    lb = bound(PrestoBalancer(seed=1, cell_bytes=3000), fswitch)
    picks = [lb.select_port(pkt(seq=s, size=1500), ports).name for s in range(8)]
    # port changes after every 2 packets (3000 B cell)
    assert picks[0] == picks[1]
    assert picks[1] != picks[2]
    assert picks[2] == picks[3]
    assert picks[3] != picks[4]


def test_presto_round_robin_cycles_all_ports(ports, fswitch):
    lb = bound(PrestoBalancer(seed=1, cell_bytes=1500), fswitch)
    picks = [lb.select_port(pkt(seq=s, size=1500), ports).name for s in range(4)]
    assert sorted(set(picks)) == ["p0", "p1", "p2", "p3"]


def test_presto_cleans_state_on_fin(ports, fswitch):
    lb = bound(PrestoBalancer(seed=1), fswitch)
    lb.select_port(pkt(seq=0), ports)
    assert lb.state_entries() == 1
    lb.select_port(pkt(seq=1, size=40, fin=True), ports)
    assert lb.state_entries() == 0


# -- LetFlow --------------------------------------------------------------------

def test_letflow_sticks_within_flowlet(ports, fswitch):
    lb = bound(LetFlowBalancer(seed=1, flowlet_timeout=150e-6), fswitch)
    picks = {lb.select_port(pkt(seq=s), ports).name for s in range(10)}
    assert len(picks) == 1  # no time passes: single flowlet


def test_letflow_repicks_after_gap(ports):
    sim = Simulator()
    lb = bound(LetFlowBalancer(seed=1, flowlet_timeout=100e-6), FakeSwitch(sim))
    first = lb.select_port(pkt(seq=0), ports).name
    picks = set()
    for i in range(30):
        sim.run(until=sim.now + 200e-6)  # exceed the timeout each round
        picks.add(lb.select_port(pkt(seq=i + 1), ports).name)
    assert len(picks) > 1


def test_letflow_no_repick_within_timeout(ports):
    sim = Simulator()
    lb = bound(LetFlowBalancer(seed=1, flowlet_timeout=1.0), FakeSwitch(sim))
    first = lb.select_port(pkt(seq=0), ports).name
    for i in range(10):
        sim.run(until=sim.now + 0.05)
        assert lb.select_port(pkt(seq=i + 1), ports).name == first


# -- DRILL ----------------------------------------------------------------------

def test_drill_prefers_short_queues(ports, fswitch):
    for i, p in enumerate(ports):
        p.queue_length = i * 10
    lb = bound(DrillBalancer(seed=1, d=4, m=1), fswitch)  # d=n: sees all
    for s in range(20):
        assert lb.select_port(pkt(seq=s), ports).name == "p0"


def test_drill_memory_tracks_last_best(ports, fswitch):
    lb = bound(DrillBalancer(seed=1, d=1, m=1), fswitch)
    lb.select_port(pkt(seq=0), ports)
    assert len(lb._memory) == 1


def test_drill_validates_params():
    with pytest.raises(SchemeError):
        DrillBalancer(d=0)
    with pytest.raises(SchemeError):
        DrillBalancer(m=-1)


# -- CONGA-lite -------------------------------------------------------------------

def test_conga_picks_least_loaded_at_flowlet_start(ports, fswitch):
    ports[3].queue_length = 0
    for i in range(3):
        ports[i].queue_length = 5
    lb = bound(CongaLiteBalancer(seed=1), fswitch)
    assert lb.select_port(pkt(seq=0), ports).name == "p3"


def test_conga_sticks_until_gap(ports):
    sim = Simulator()
    lb = bound(CongaLiteBalancer(seed=1, flowlet_timeout=1.0), FakeSwitch(sim))
    first = lb.select_port(pkt(seq=0), ports).name
    ports[1].queue_length = -5  # another port becomes better
    assert lb.select_port(pkt(seq=1), ports).name == first  # still same flowlet
    sim.run(until=2.0)
    assert lb.select_port(pkt(seq=2), ports).name == "p1"  # re-picked


# -- WCMP -----------------------------------------------------------------------

def test_wcmp_weights_by_rate(fswitch):
    fast = [FakePort("fast0", rate=9e9), FakePort("slow", rate=1e9)]
    lb = bound(WcmpBalancer(seed=1), fswitch)
    counts = {"fast0": 0, "slow": 0}
    for f in range(2000):
        counts[lb.select_port(pkt(flow_id=f), fast).name] += 1
    assert counts["fast0"] > 5 * counts["slow"]


def test_wcmp_equal_rates_spread(ports, fswitch):
    lb = bound(WcmpBalancer(seed=1), fswitch)
    picks = {lb.select_port(pkt(flow_id=f), ports).name for f in range(200)}
    assert picks == {"p0", "p1", "p2", "p3"}


# -- FixedGranularity --------------------------------------------------------------

def test_fixed_flow_level_never_switches(ports, fswitch):
    lb = bound(FixedGranularityBalancer(seed=1, granularity_bytes=None), fswitch)
    picks = {lb.select_port(pkt(seq=s), ports).name for s in range(50)}
    assert len(picks) == 1


def test_fixed_packet_level_switches_every_packet(ports, fswitch):
    lb = bound(FixedGranularityBalancer(seed=1, granularity_bytes=1500), fswitch)
    picks = [lb.select_port(pkt(seq=s, size=1500), ports).name for s in range(40)]
    assert len(set(picks)) > 1


def test_fixed_congestion_aware_targets_shortest(ports, fswitch):
    ports[2].queue_length = -1
    lb = bound(FixedGranularityBalancer(
        seed=1, granularity_bytes=1500, congestion_aware=True), fswitch)
    assert lb.select_port(pkt(seq=0), ports).name == "p2"


def test_fixed_invalid_granularity():
    with pytest.raises(SchemeError):
        FixedGranularityBalancer(granularity_bytes=0)


# -- base class -------------------------------------------------------------------

def test_counters_accumulate(ports, fswitch):
    lb = bound(EcmpBalancer(seed=1), fswitch)
    for f in range(10):
        lb.select_port(pkt(flow_id=f), ports)
    assert lb.counters.decisions == 10
    assert lb.counters.hash_ops == 10
    assert lb.counters.total_ops() >= 10


def test_base_select_port_abstract(ports, fswitch):
    lb = bound(LoadBalancer(), fswitch)
    with pytest.raises(NotImplementedError):
        lb.select_port(pkt(), ports)
