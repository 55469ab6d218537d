"""Experiment drivers: one per paper figure, plus shared harness.

=======================  ===================================================
module                   reproduces
=======================  ===================================================
``motivation``           Figs. 3–4 (§2.2 granularity study)
``model_verification``   Fig. 7 (§4.2 numeric vs simulated ``q_th``)
``basic``                Figs. 8–9 (§6.1 short/long time series)
``largescale``           Figs. 10–11 (§6.2 web search / data mining sweeps)
``deadline_agnostic``    Fig. 12 (§6.3 deadline-percentile sweep and the
                         burst reroute mechanism)
``testbed``              Figs. 13–14 (§7 testbed-scale flow-count sweeps)
``overhead``             Fig. 15 (§7 switch CPU/memory accounting)
``asymmetry``            Figs. 16–17 (§7 delay/bandwidth asymmetry)
``faults``               beyond the paper: §7 asymmetry under *dynamic*
                         mid-run link failure/recovery (``repro.faults``)
=======================  ===================================================

Each paper figure's cells are defined once, in its driver's
``run_figure`` (Fig. 7: ``numeric_panels``/``simulated_panels``), and
rendered by its ``tabulate``: ``main`` (what ``repro figure`` calls)
and the figure's bench under ``benchmarks/`` both run exactly those.

Everything is built on :func:`~repro.experiments.common.run_scenario`,
which assembles fabric + scheme + workload + metrics from a single
:class:`~repro.experiments.common.ScenarioConfig`, and on
:mod:`repro.experiments.runner`'s multiprocessing sweep executor.
"""

from repro.experiments.common import (
    ScenarioConfig,
    ScenarioResult,
    run_scenario,
    run_scenario_metrics,
)
from repro.experiments.runner import (
    TaskFailure,
    partition_results,
    run_many,
)
from repro.experiments.report import format_table
from repro.experiments.stats import MetricCI, paired_comparison, replicate

__all__ = [
    "ScenarioConfig",
    "ScenarioResult",
    "run_scenario",
    "run_scenario_metrics",
    "run_many",
    "TaskFailure",
    "partition_results",
    "format_table",
    "MetricCI",
    "replicate",
    "paired_comparison",
]
