"""``repro.fleet`` — the crash-resilient distributed sweep fabric.

A fleet is a work queue over a shared result-cache directory: the
coordinator enumerates cache-miss cells into an append-only journal
(:mod:`~repro.fleet.journal`), workers claim cells via heartbeat-renewed
lease files (:mod:`~repro.fleet.lease`), a watchdog reclaims leases
whose owners died (:mod:`~repro.fleet.watchdog`), and every finished
result lands in the content-addressed cache — so any sweep survives
SIGKILLed workers, SIGTERM drains, and machine loss, and resumes with
zero recomputation (:mod:`~repro.fleet.coordinator`).

Entry points: :func:`run_fleet` (and ``repro fleet run`` on the CLI),
or ``run_many(..., fleet_dir=...)`` to route an ordinary sweep through
the fabric.  Mission control — the one reader of a fleet directory,
whose :class:`FleetView` every ``repro fleet status`` / ``top`` /
``report`` and ``--progress`` heartbeat renders — lives in
:mod:`~repro.fleet.observer`.
"""

from repro.fleet.coordinator import (
    FleetResult,
    plan_fleet,
    run_fleet,
)
from repro.fleet.journal import FleetPaths, FleetState, load_state
from repro.fleet.observer import (
    FleetObserver,
    FleetView,
    fleet_metrics,
    format_summary,
    format_top,
    render_fleet_report,
    write_fleet_report,
)
from repro.fleet.taxonomy import FATAL_TYPES, is_fatal
from repro.fleet.watchdog import Watchdog
from repro.fleet.worker import FleetWorker

__all__ = [
    "FATAL_TYPES",
    "FleetObserver",
    "FleetPaths",
    "FleetResult",
    "FleetState",
    "FleetView",
    "FleetWorker",
    "Watchdog",
    "fleet_metrics",
    "format_summary",
    "format_top",
    "is_fatal",
    "load_state",
    "plan_fleet",
    "render_fleet_report",
    "run_fleet",
    "write_fleet_report",
]
