"""Workload generation: heavy-tailed flow sizes, Poisson arrivals, deadlines.

The paper evaluates two canonical data-center workloads (§6.2): the *web
search* distribution (from the DCTCP measurement study) and the *data
mining* distribution (from VL2).  Both are heavy-tailed — ~90 % of flows
are short but ~90 % of bytes come from the few long flows — which is the
very traffic mix TLB exploits.

:mod:`repro.workload.distributions` encodes them as piecewise-linear CDFs
with vectorised inverse-transform sampling; :mod:`repro.workload.generator`
turns a distribution plus a target load into scheduled flows on a built
network; :mod:`repro.workload.deadlines` draws the short flows' deadlines;
:mod:`repro.workload.scenarios` grows the vocabulary into a spec-string
registry (empirical CDF files, Zipf popularity, incast fan-ins, diurnal
curves, hotspots, multi-tenant mixes) addressable from
``ScenarioConfig.workload`` and the result cache.
"""

from repro.workload.distributions import (
    DATA_MINING,
    NAMED_DISTRIBUTIONS,
    WEB_SEARCH,
    FixedSize,
    FlowSizeDistribution,
    PiecewiseCdf,
    UniformSize,
    named_distribution,
)
from repro.workload.scenarios import (
    SCENARIO_ALIASES,
    SCENARIO_KINDS,
    Scenario,
    available_scenarios,
    canonical_workload,
    load_cdf_file,
    parse_scenario,
    register_scenario,
)
from repro.workload.deadlines import UniformDeadlines
from repro.workload.generator import (
    PoissonWorkload,
    StaticWorkload,
    WorkloadResult,
    install_flows,
)
from repro.workload.incast import IncastWorkload, request_completion_times
from repro.workload.traces import TraceWorkload, read_trace, write_trace

__all__ = [
    "FlowSizeDistribution",
    "PiecewiseCdf",
    "UniformSize",
    "FixedSize",
    "WEB_SEARCH",
    "DATA_MINING",
    "UniformDeadlines",
    "PoissonWorkload",
    "StaticWorkload",
    "WorkloadResult",
    "install_flows",
    "IncastWorkload",
    "request_completion_times",
    "TraceWorkload",
    "read_trace",
    "write_trace",
    "NAMED_DISTRIBUTIONS",
    "named_distribution",
    "Scenario",
    "SCENARIO_KINDS",
    "SCENARIO_ALIASES",
    "available_scenarios",
    "canonical_workload",
    "load_cdf_file",
    "parse_scenario",
    "register_scenario",
]
