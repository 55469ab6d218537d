"""The flight recorder as a periodic queue-occupancy sampler.

These drive :class:`~repro.obs.recorder.FlightRecorder` over bare ports
(no fabric, no flow registry): sampling cadence, the queue-depth series,
stop, and the cap-and-decimate ring.  Whole-run recordings are covered
in ``test_recorder.py``.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.lb import attach_scheme
from repro.net.topology import build_two_leaf_fabric
from repro.obs.recorder import FlightRecorder
from repro.transport.flow import FlowRegistry
from repro.workload.generator import StaticWorkload

from tests.conftest import make_packet, make_port


def _recorder(sim, ports, period, **kwargs) -> FlightRecorder:
    """A recorder sampling ``ports`` on a bare simulator."""
    return FlightRecorder(cadence=period, **kwargs).attach(
        SimpleNamespace(sim=sim, switches={}), ports=ports)


def _qdepth(rec: FlightRecorder) -> np.ndarray:
    return rec.to_arrays()["qdepth"]


def test_samples_on_period(sim, sink):
    port = make_port(sim, sink)
    rec = _recorder(sim, [port], 0.1)
    sim.run(until=0.55)
    assert rec.n_samples == 5
    assert rec.to_arrays()["times"] == pytest.approx([0.1, 0.2, 0.3, 0.4, 0.5])


def test_captures_queue_buildup(sim, sink):
    # A slow port: 1500 B at 1 Mbps = 12 ms per packet.
    port = make_port(sim, sink, rate=1e6, buffer_packets=100)
    rec = _recorder(sim, [port], 0.001)
    for seq in range(10):
        port.enqueue(make_packet(seq=seq))
    sim.run(until=0.005)
    assert _qdepth(rec)[:, 0].max() >= 8  # queue was deep at the first samples
    sim.run(until=0.2)
    assert _qdepth(rec)[-1, 0] == 0  # drained by the end


def test_stop_halts_sampling(sim, sink):
    port = make_port(sim, sink)
    rec = _recorder(sim, [port], 0.1)
    sim.run(until=0.25)
    rec.stop()
    sim.run(until=1.0)
    assert rec.n_samples == 2
    assert rec.ticks == 2
    rec.stop()  # idempotent


def test_aggregates(sim, sink):
    a = make_port(sim, sink, name="a")
    b = make_port(sim, sink, name="b")
    rec = _recorder(sim, [a, b], 0.1)
    # park packets on 'a' only (no transmission: make it glacial)
    a.rate = 1.0
    for seq in range(5):
        a.enqueue(make_packet(seq=seq))
    sim.run(until=0.35)
    qdepth = _qdepth(rec)
    assert rec.port_names == ["a", "b"]
    assert qdepth[:, 0].max() >= 4
    assert qdepth[:, 1].max() == 0
    assert qdepth[:, 0].mean() > qdepth[:, 1].mean()


def test_empty_monitor_views(sim, sink):
    rec = _recorder(sim, [make_port(sim, sink)], 0.1)
    assert rec.n_samples == 0
    assert _qdepth(rec).shape == (0, 1)
    assert rec.to_arrays()["times"].size == 0


def test_stop_before_first_sample_is_idempotent(sim, sink):
    rec = _recorder(sim, [make_port(sim, sink)], 0.1)
    rec.stop()
    rec.stop()  # idempotent even when nothing ever fired
    sim.run(until=1.0)
    assert rec.n_samples == 0
    assert rec.ticks == 0
    assert _qdepth(rec).shape == (0, 1)


def test_validation(sim, sink):
    with pytest.raises(ConfigError):
        FlightRecorder(cadence=0.0)
    rec = _recorder(sim, [make_port(sim, sink)], 0.1)
    with pytest.raises(ConfigError):
        rec.attach(SimpleNamespace(sim=sim, switches={}))


def test_ecmp_less_balanced_than_rps_in_monitor():
    """The Fig. 2 story told by queue occupancy: packet spraying keeps
    uplink queues more even than flow hashing."""
    def spread(scheme):
        net = build_two_leaf_fabric(n_paths=4, hosts_per_leaf=30)
        attach_scheme(net, scheme)
        rec = FlightRecorder(cadence=0.0005).attach(
            net, ports=net.uplink_ports(net.leaves[0]))
        reg = FlowRegistry()
        StaticWorkload(net, reg, n_short=20, n_long=3, long_size=1_000_000,
                       short_window=0.005).install()
        net.sim.run(until=0.05)
        qdepth = _qdepth(rec)
        imbalance = qdepth.max(axis=1) - qdepth.min(axis=1)
        return imbalance.mean() if imbalance.size else 0.0

    assert spread("rps") < spread("ecmp")


# -- bounded memory (cap + decimation) ---------------------------------------

def test_monitor_caps_memory_by_decimating(sim, sink):
    port = make_port(sim, sink)
    rec = _recorder(sim, [port], 0.001, max_samples=16)
    sim.run(until=1.0)
    # ~1000 sample opportunities, yet storage stays under the cap
    assert rec.n_samples < 16
    assert rec.cadence_now > rec.cadence
    times = rec.to_arrays()["times"]
    assert (np.diff(times) > 0).all()
    assert _qdepth(rec).shape == (rec.n_samples, 1)


def test_monitor_decimation_keeps_uniform_spacing(sim, sink):
    port = make_port(sim, sink)
    rec = _recorder(sim, [port], 0.01, max_samples=8)
    sim.run(until=2.0)
    times = rec.to_arrays()["times"]
    deltas = {round(b - a, 9) for a, b in zip(times, times[1:])}
    # after k decimations the surviving rows are 2**k periods apart
    assert len(deltas) == 1
    assert deltas.pop() == pytest.approx(rec.cadence_now)
    assert rec.cadence_now / 0.01 == 2 ** round(np.log2(rec.cadence_now / 0.01))


def test_monitor_rejects_tiny_cap():
    with pytest.raises(ConfigError):
        FlightRecorder(cadence=0.1, max_samples=1)
