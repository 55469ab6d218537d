"""DCTCP: ECN-fraction-proportional window scaling.

The paper runs DCTCP end to end ("We use DCTCP as the underlying transport
protocol", §4.2).  The sender below follows the SIGCOMM 2010 algorithm:

* data packets are ECN-capable; congested queues mark them at an
  instantaneous-queue threshold K (see :class:`~repro.net.port.Port`);
* the receiver echoes each mark on the corresponding ACK;
* per congestion window, the sender measures the marked fraction *F* and
  maintains ``alpha = (1-g) * alpha + g * F`` with ``g = 1/16``;
* when a window sees at least one mark, the window is cut **once** by
  ``cwnd *= (1 - alpha/2)`` instead of TCP's halving.

Everything else (slow start, fast retransmit, RTO) is inherited from
:class:`~repro.transport.tcp.TcpSender`.
"""

from __future__ import annotations

from repro.net.packet import Packet
from repro.transport.tcp import TcpSender, _CONG_AVOID, _SLOW_START

__all__ = ["DctcpSender", "DCTCP_DEFAULT_GAIN"]

#: The DCTCP paper's estimation gain g.
DCTCP_DEFAULT_GAIN = 1.0 / 16.0


class DctcpSender(TcpSender):
    """DCTCP sender.  ``g`` is the alpha estimation gain."""

    def __init__(self, *args, g: float = DCTCP_DEFAULT_GAIN, **kwargs):
        super().__init__(*args, **kwargs)
        # DCTCP is ECN-capable by construction.
        if not self.config.ecn_capable:
            self.config = self.config.scaled(ecn_capable=True)
        self.g = g
        self.alpha = 0.0
        self._acked_in_window = 0
        self._marked_in_window = 0
        self._window_end = 0      # alpha-observation window boundary (seq)
        self._cut_this_window = False

    def _on_ecn_feedback(self, pkt: Packet) -> None:
        # Called before snd_una advances, so the delta is the newly-acked
        # count this ACK will produce (0 for a dup ACK).
        newly = max(0, pkt.seq - self.snd_una)
        self._acked_in_window += newly
        if pkt.ecn_echo:
            self._marked_in_window += max(newly, 1)
            self._react_to_mark()
        if pkt.seq >= self._window_end:
            self._finish_observation_window()

    def _react_to_mark(self) -> None:
        if self._cut_this_window:
            return
        self._cut_this_window = True
        # DCTCP cut: proportional to alpha; never below one packet.
        self.cwnd = max(1.0, self.cwnd * (1.0 - self.alpha / 2.0))
        self.ssthresh = max(2.0, self.cwnd)
        if self.state == _SLOW_START:
            self.state = _CONG_AVOID

    def _finish_observation_window(self) -> None:
        if self._acked_in_window > 0:
            fraction = min(1.0, self._marked_in_window / self._acked_in_window)
            self.alpha = (1.0 - self.g) * self.alpha + self.g * fraction
        self._acked_in_window = 0
        self._marked_in_window = 0
        self._cut_this_window = False
        self._window_end = self.snd_nxt
