"""Topology asymmetry injection (paper §7, Figs. 16–17).

The paper creates asymmetry by varying the propagation delay or the
bandwidth of two randomly selected leaf-to-spine links.  We reproduce that
by mutating the affected :class:`~repro.net.port.Port` objects in place
(both directions of the physical link), *after* the fabric is built and
*before* traffic starts, so routing still advertises all paths — exactly
the situation that penalises reordering-prone schemes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import TopologyError
from repro.net.topology import Network

__all__ = ["LinkOverride", "apply_asymmetry", "random_degraded_links"]


@dataclass(frozen=True)
class LinkOverride:
    """Override the characteristics of one leaf–spine physical link.

    ``rate_factor`` multiplies the link bandwidth (e.g. ``0.1`` for a 10×
    slower link); ``extra_delay`` adds one-way propagation delay in
    seconds.  Either may be left neutral.
    """

    leaf: str
    spine: str
    rate_factor: float = 1.0
    extra_delay: float = 0.0

    def __post_init__(self) -> None:
        if self.rate_factor <= 0:
            raise TopologyError(f"rate_factor must be positive, got {self.rate_factor!r}")
        if self.extra_delay < 0:
            raise TopologyError(f"extra_delay must be >= 0, got {self.extra_delay!r}")


def apply_asymmetry(net: Network, overrides: Sequence[LinkOverride]) -> None:
    """Apply link overrides to a built network (both link directions)."""
    for ov in overrides:
        if ov.leaf not in net.switches or ov.spine not in net.switches:
            raise TopologyError(f"unknown link endpoints {ov.leaf!r}/{ov.spine!r}")
        for key in ((ov.leaf, ov.spine), (ov.spine, ov.leaf)):
            port = net.port_between(*key)
            port.rate = port.rate * ov.rate_factor
            port.delay = port.delay + ov.extra_delay


def random_degraded_links(
    net: Network,
    count: int = 2,
    *,
    rate_factor: float = 1.0,
    extra_delay: float = 0.0,
    rng=None,
) -> list[LinkOverride]:
    """Pick ``count`` random distinct leaf–spine links to degrade.

    Mirrors the paper's "2 randomly selected leaf-to-spine links".  Uses
    the network's own ``asymmetry`` RNG stream unless ``rng`` is given, so
    the choice is reproducible per experiment seed.
    """
    pairs = [(leaf.name, sp.name) for leaf in net.leaves for sp in net.spines]
    if count > len(pairs):
        raise TopologyError(f"cannot degrade {count} of {len(pairs)} links")
    gen = rng if rng is not None else net.rngs.stream("asymmetry")
    chosen = gen.choice(len(pairs), size=count, replace=False)
    overrides = [
        LinkOverride(leaf=pairs[i][0], spine=pairs[i][1],
                     rate_factor=rate_factor, extra_delay=extra_delay)
        for i in sorted(int(c) for c in chosen)
    ]
    apply_asymmetry(net, overrides)
    return overrides
