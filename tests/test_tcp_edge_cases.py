"""Further TCP sender edge cases: reordering, control-packet loss, windows."""

import pytest

from repro.sim.engine import Simulator
from repro.transport.flow import Flow, FlowRegistry
from repro.transport.rto import RtoEstimator
from repro.transport.tcp import TcpConfig, TcpSender

from tests.test_tcp import FakeHost, ack, establish, fin_ack, make_sender, syn_ack


def test_reordering_induced_spurious_retransmit():
    """Three dup ACKs caused by reordering (not loss) still cut the
    window — the cost the paper charges to fine granularities."""
    sim, host, sender, stats = make_sender(n_packets=40)
    establish(sim, host, sender)
    for v in (1, 2, 3, 4):
        sender.handle(ack(v))
    cwnd_before = sender.cwnd
    # packets 4.. arrive out of order at the receiver -> dups, then the
    # cumulative ACK covers everything outstanding (no actual loss)
    for _ in range(3):
        sender.handle(ack(4))
    assert stats.retransmits == 1  # spurious
    sender.handle(ack(sender.recover))  # reordered packets all delivered
    assert sender.state == 1  # back in congestion avoidance
    assert sender.cwnd < cwnd_before  # window was cut for nothing


def test_dup_acks_below_threshold_harmless():
    sim, host, sender, stats = make_sender(n_packets=20)
    establish(sim, host, sender)
    sender.handle(ack(2))
    cwnd = sender.cwnd
    sender.handle(ack(2))
    sender.handle(ack(2))  # only 2 dups
    assert stats.retransmits == 0
    assert sender.cwnd == cwnd


def test_syn_ack_loss_recovers_via_syn_retry():
    sim, host, sender, stats = make_sender()
    sender.start()
    # SYN-ACK never arrives; the RTO fires and re-sends the SYN,
    # then the handshake completes
    sim.run(until=0.2)
    assert sum(1 for p in host.sent if p.syn) >= 2
    sender.handle(syn_ack())
    assert sender.established
    data = [p for p in host.sent if not p.syn]
    assert len(data) == 2  # initial window follows immediately


def test_fin_ack_loss_recovers():
    sim, host, sender, _ = make_sender(n_packets=2)
    establish(sim, host, sender)
    sender.handle(ack(2))
    sim.run(until=1.0)  # FIN-ACK lost: FIN retried
    assert sum(1 for p in host.sent if p.fin) >= 2
    sender.handle(fin_ack())
    assert sender.closed


def test_window_limited_sender_pauses():
    cfg = TcpConfig(rwnd_bytes=4 * 1460)
    sim, host, sender, _ = make_sender(n_packets=50, config=cfg)
    establish(sim, host, sender)
    for v in range(1, 30):
        sender.handle(ack(v))
    # in flight never exceeds the 4-packet receive window
    assert sender.in_flight <= 4
    data = [p for p in host.sent if not p.syn]
    assert max(p.seq for p in data) < 29 + 4


def test_cwnd_growth_slows_in_congestion_avoidance():
    cfg = TcpConfig(initial_ssthresh=4.0)
    sim, host, sender, _ = make_sender(n_packets=200, config=cfg)
    establish(sim, host, sender)
    # slow start until cwnd >= 4, then CA: growth per ACK ~ 1/cwnd
    for v in range(1, 5):
        sender.handle(ack(v))
    assert sender.state == 1
    cwnd = sender.cwnd
    sender.handle(ack(5))
    assert sender.cwnd - cwnd == pytest.approx(1.0 / cwnd, rel=1e-6)


def test_rto_backoff_grows_across_consecutive_timeouts():
    sim, host, sender, stats = make_sender(n_packets=30)
    establish(sim, host, sender)
    sender.handle(ack(1))
    sim.run(until=3.0)  # several RTOs, no ACKs
    assert stats.timeouts >= 3
    # backoff made gaps grow: infer from retransmission spacing
    times = [p.sent_time for p in host.sent if not p.syn and p.seq == 1]
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert len(gaps) >= 2
    assert gaps[-1] > gaps[0]


def test_rtt_samples_skip_retransmitted_segments():
    """Karn's rule: after a retransmission of seq k, an ACK covering k
    must not poison the RTT estimate."""
    sim, host, sender, _ = make_sender(n_packets=20)
    establish(sim, host, sender)
    sender.handle(ack(1))
    srtt_before = sender.rto.srtt
    for _ in range(3):
        sender.handle(ack(1))  # fast retransmit of seq 1
    sim.run(until=sim.now + 1.5)  # a long pause before the ACK arrives
    sender.handle(ack(2))
    # a 1.5 s "RTT" sample would have exploded srtt; Karn forbids it
    assert sender.rto.srtt == pytest.approx(srtt_before, abs=0.05)


def test_zero_data_after_establish_without_loss():
    """Every data packet is sent at most once on a clean path."""
    sim, host, sender, stats = make_sender(n_packets=64)
    establish(sim, host, sender)
    for v in range(1, 65):
        sender.handle(ack(v))
    seqs = [p.seq for p in host.sent if not p.syn and not p.fin]
    assert sorted(seqs) == sorted(set(seqs))
    assert stats.retransmits == 0


# -- the predicted ACK and its boundaries ---------------------------------------

def test_ack_covering_several_segments_samples_only_its_last():
    """``newly > 1``: every covered send time is forgotten and the RTT
    sample is that of ``ack - 1``, not of an earlier covered segment."""
    sim, host, sender, _ = make_sender(n_packets=40)
    establish(sim, host, sender)                 # t=0: seqs 0, 1
    sim.schedule(1e-3, sender.handle, ack(1))    # t=1 ms: seqs 2, 3
    sim.schedule(3e-3, sender.handle, ack(4))    # covers 1, 2, 3
    sim.run(until=4e-3)
    assert sender.snd_una == 4
    assert sorted(sender._send_times) == list(range(4, sender.snd_nxt))
    expected = RtoEstimator(sender.config.min_rto, sender.config.max_rto)
    for rtt in (0.0, 1e-3, 3e-3 - 1e-3):         # handshake, seq 0, seq 3
        expected.sample(rtt)
    assert sender.rto.srtt == expected.srtt
    assert sender.rto.rto == expected.rto


def test_last_segment_of_an_uneven_flow_carries_the_remainder():
    sim = Simulator()
    host = FakeHost(sim)
    flow = Flow(id=1, src="h0", dst="h1", size=3 * 1460 + 100, start_time=0.0)
    sender = TcpSender(sim, host, flow, FlowRegistry().add(flow), TcpConfig())
    establish(sim, host, sender)
    for v in (1, 2, 3):
        sender.handle(ack(v))
    data = [p for p in host.sent if not p.syn and not p.fin]
    assert [p.seq for p in data] == [0, 1, 2, 3]
    assert [p.size for p in data] == [1500, 1500, 1500, 140]
    assert sum(p.size - 40 for p in data) == flow.size


def test_partial_ack_in_fast_recovery_is_not_a_predicted_ack():
    sim, host, sender, stats = make_sender(n_packets=40)
    establish(sim, host, sender)
    for v in range(1, 9):
        sender.handle(ack(v))
    for _ in range(3):
        sender.handle(ack(8))                    # enter FR, retransmit 8
    recover, cwnd = sender.recover, sender.cwnd
    sender.handle(ack(10))                       # partial: 2 newly acked
    assert sender.state == 2 and sender.recover == recover
    assert sender.cwnd == max(1.0, cwnd - 2 + 1)  # deflated, not grown
    assert stats.retransmits == 2 and stats.fast_recoveries == 1
    assert 10 in sender._retransmitted


def test_ack_before_the_handshake_completes_sends_nothing():
    sim, host, sender, _ = make_sender(n_packets=10)
    sender.start()
    sender.handle(ack(1))
    assert [p for p in host.sent if not p.syn] == []


def test_dup_ack_once_everything_is_acked_is_ignored():
    sim, host, sender, stats = make_sender(n_packets=3)
    establish(sim, host, sender)
    for v in (1, 2, 3):
        sender.handle(ack(v))
    assert sender.fin_sent and stats.acked is not None
    sent = len(host.sent)
    sender.handle(ack(3))                        # snd_una == n: not a dup
    assert stats.dup_acks_received == 0 and sender.dupacks == 0
    assert len(host.sent) == sent
