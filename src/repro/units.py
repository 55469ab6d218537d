"""Unit conventions and conversion helpers.

The simulator uses a small, fixed set of base units everywhere:

====================  =====================================
quantity              base unit
====================  =====================================
time                  seconds (``float``)
data size             bytes (``int``)
rate / bandwidth      bits per second (``float``)
queue length          packets (``int``) or bytes (``int``)
====================  =====================================

All public APIs take and return base units.  The helpers below exist so
experiment configurations can be written the way the paper states them
(``Gbps(1)``, ``microseconds(100)``, ``KB(64)``) without sprinkling magic
multipliers through the code.
"""

from __future__ import annotations

#: Bits per byte; used when converting link rates to byte service times.
BITS_PER_BYTE = 8

#: Default TCP maximum segment size used throughout the paper's analysis
#: (1.5 kB packets: 1460 B payload + 40 B TCP/IP header, as in NS2 defaults).
DEFAULT_MSS = 1460

#: Size of a full packet on the wire (MSS + TCP/IP headers).
DEFAULT_HEADER = 40
DEFAULT_PACKET_BYTES = DEFAULT_MSS + DEFAULT_HEADER


# --- time ------------------------------------------------------------------

def milliseconds(value: float) -> float:
    """Convert milliseconds to seconds."""
    return float(value) * 1e-3


def microseconds(value: float) -> float:
    """Convert microseconds to seconds."""
    return float(value) * 1e-6


# --- sizes -----------------------------------------------------------------

def KB(value: float) -> int:
    """Kilobytes (decimal, as used by the paper: 100KB thresholds etc.)."""
    return int(round(value * 1e3))


def MB(value: float) -> int:
    """Megabytes (decimal)."""
    return int(round(value * 1e6))


def KiB(value: float) -> int:
    """Kibibytes (binary; Linux's 64KB receive buffer is 64 KiB)."""
    return int(round(value * 1024))


# --- rates -----------------------------------------------------------------

def Mbps(value: float) -> float:
    """Megabits per second."""
    return float(value) * 1e6


def Gbps(value: float) -> float:
    """Gigabits per second."""
    return float(value) * 1e9


def serialization_delay(nbytes: int, rate_bps: float) -> float:
    """Time to clock ``nbytes`` onto a link of ``rate_bps``.

    Raises
    ------
    ValueError
        If the rate is not positive.
    """
    if rate_bps <= 0:
        raise ValueError(f"link rate must be positive, got {rate_bps!r}")
    return (nbytes * BITS_PER_BYTE) / rate_bps


# --- spec rendering --------------------------------------------------------

def short_float(value: float) -> str:
    """The shortest rendering of ``value`` that parses back to it (``%g``
    when that round-trips, else ``repr``): canonical spec strings feed
    cache keys, where a lossy form lets two different cells share an entry.
    """
    short = f"{value:g}"
    return short if float(short) == value else repr(value)
