"""The granularity calculator (paper Fig. 6, §4).

Every update interval ``t`` this module re-derives the long-flow
switching threshold ``q_th`` from the analytic model:

1. take the measured short/long flow counts (``m_S``, ``m_L``), the
   estimated mean short-flow size ``X`` and the deadline ``D``;
2. compute the paths short flows need (Eq. 9's inner term);
3. give long flows the rest and solve Eq. 1 for ``q_th``;
4. clamp to ``[min_qth, buffer]`` packets.

The clamping encodes the two boundary regimes the paper describes: when
short flows are scarce, the raw threshold goes negative and clamps to the
minimum — long flows switch (almost) per packet for utilisation; when
short flows need more paths than exist, no threshold is feasible and the
threshold pins at the buffer size — long flows effectively stop switching
(flow-level), ceding every rerouting opportunity to short flows.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import model
from repro.core.config import TlbConfig
from repro.errors import ConfigError, ModelError
from repro.units import DEFAULT_HEADER

__all__ = ["DECISION_FIELDS", "GranularityCalculator", "QthDecision"]

#: a decision's fields in record order: the columns of the ``qth`` trace
#: kind after ``node``, of the span file's decision rows and of the
#: flight recorder's audit
DECISION_FIELDS = ("qth", "raw", "regime", "m_short", "m_long", "x_packets",
                   "deadline")


@dataclass(frozen=True)
class QthDecision:
    """One calculator output, with provenance for diagnostics/tests."""

    qth: int
    raw: float
    regime: str  # "adaptive" | "clamped_min" | "clamped_max" | "infeasible" | "no_long"
    m_short: int
    m_long: int
    x_packets: float
    deadline: float

    def as_dict(self) -> dict:
        """Flat audit row (the flight recorder's q_th decision record).

        ``raw`` is Eq. 9's unclamped prediction; the infeasible regimes
        report it as ``inf``, which consumers should treat as "pinned to
        the buffer", not as a numeric threshold.
        """
        return {name: getattr(self, name) for name in DECISION_FIELDS}


class GranularityCalculator:
    """Periodic ``q_th`` derivation for one switch.

    Parameters
    ----------
    config:
        The TLB configuration (interval, ``W_L``, RTT, percentile...).
    n_paths:
        Equal-cost paths this switch balances over.
    link_rate:
        Per-path bottleneck rate in bits/s.
    buffer_packets:
        Output-buffer size — the upper clamp for ``q_th``.
    """

    def __init__(self, config: TlbConfig, n_paths: int, link_rate: float,
                 buffer_packets: int):
        if n_paths < 1:
            raise ConfigError("n_paths must be >= 1")
        if buffer_packets < 1:
            raise ConfigError("buffer_packets must be >= 1")
        self.config = config
        self.n_paths = int(n_paths)
        self.buffer_packets = int(buffer_packets)
        self.c_pps = model.capacity_pps(link_rate, config.mss + DEFAULT_HEADER)
        self.last_decision: QthDecision | None = None

    def compute(self, m_short: int, m_long: int, mean_short_bytes: float,
                deadline: float) -> QthDecision:
        """Derive ``q_th`` for the current load; returns the decision."""
        cfg = self.config
        x_pkts = max(1.0, mean_short_bytes / cfg.mss)
        decision = self._derive(m_short, m_long, x_pkts, deadline)
        self.last_decision = decision
        return decision

    def _derive(self, m_s: int, m_l: int, x_pkts: float, deadline: float) -> QthDecision:
        cfg = self.config
        if m_l <= 0:
            # No long flows: the threshold is moot; keep it minimal so a
            # newly promoted flow starts out flexible.
            return QthDecision(cfg.min_qth, float(cfg.min_qth), "no_long",
                               m_s, m_l, x_pkts, deadline)
        try:
            n_s = model.required_short_paths(m_s, x_pkts, deadline, self.c_pps)
        except ModelError:
            # Deadline below the transmission delay: unmeetable; protect
            # short flows maximally by pinning long flows.
            return QthDecision(self.buffer_packets, float("inf"), "infeasible",
                               m_s, m_l, x_pkts, deadline)
        n_l = self.n_paths - n_s
        if n_l <= 0:
            return QthDecision(self.buffer_packets, float("inf"), "infeasible",
                               m_s, m_l, x_pkts, deadline)
        raw = model.switching_threshold(
            m_l, cfg.w_l_packets, cfg.update_interval, cfg.rtt, n_l, self.c_pps
        )
        qth = int(round(raw))
        if qth < cfg.min_qth:
            return QthDecision(cfg.min_qth, raw, "clamped_min",
                               m_s, m_l, x_pkts, deadline)
        if qth > self.buffer_packets:
            return QthDecision(self.buffer_packets, raw, "clamped_max",
                               m_s, m_l, x_pkts, deadline)
        return QthDecision(qth, raw, "adaptive", m_s, m_l, x_pkts, deadline)
