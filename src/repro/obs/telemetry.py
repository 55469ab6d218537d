"""Process-level memory telemetry.

``run_scenario`` times its own slice loop; under
``ScenarioConfig.telemetry`` it derives wall time, events per wall
second and the sim-time/wall-time ratio from that one stopwatch and adds
the peak memory read here.  The measurements come only from reads
outside the event loop, so profiling a run does not perturb it.
"""

from __future__ import annotations

import sys
from typing import Optional

try:  # pragma: no cover - always present on the supported platforms
    import resource
except ImportError:  # pragma: no cover - windows
    resource = None  # type: ignore[assignment]

__all__ = ["peak_rss_bytes"]


def peak_rss_bytes() -> Optional[int]:
    """Peak resident set size of this process, in bytes (None if unknown).

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS.
    """
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(peak) if sys.platform == "darwin" else int(peak) * 1024
