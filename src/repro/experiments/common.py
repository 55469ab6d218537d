"""The scenario harness: one config in, one measured run out.

:class:`ScenarioConfig` captures everything a run needs — fabric shape,
scheme, workload, transport, seed, horizon — as a flat, picklable
dataclass so parameter sweeps can ship configs to worker processes.
:func:`run_scenario` assembles and executes it.

The simulation is driven in slices: schemes with periodic timers (TLB)
keep the event heap non-empty forever, so "run until the workload
completes" is implemented as bounded slices with a completion check in
between, capped by ``config.horizon``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Optional

from repro.errors import ConfigError
from repro.faults import FaultInjector, FaultSchedule
from repro.lb.registry import attach_scheme
from repro.metrics.collector import MetricsCollector, RunMetrics
from repro.net.asymmetry import LinkOverride, apply_asymmetry
from repro.net.topology import LeafSpineConfig, Network, build_leaf_spine
from repro.sim.trace import NullTracer, RecordingTracer
from repro.transport.dctcp import DctcpSender
from repro.transport.flow import FlowRegistry
from repro.transport.tcp import TcpConfig, TcpSender
from repro.units import Gbps, KB, MB, microseconds
from repro.workload.deadlines import UniformDeadlines
from repro.workload.distributions import (
    NAMED_DISTRIBUTIONS,
    FlowSizeDistribution,
    UniformSize,
    named_distribution,
)
from repro.workload.generator import PoissonWorkload, StaticWorkload, WorkloadResult
from repro.workload.scenarios import LEGACY_WORKLOADS, parse_scenario

__all__ = ["ScenarioConfig", "ScenarioResult", "run_scenario", "run_scenario_metrics"]

_SIZE_DISTRIBUTIONS = NAMED_DISTRIBUTIONS

_TRANSPORTS = {
    "dctcp": DctcpSender,
    "tcp": TcpSender,
}


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation run, fully specified and picklable.

    Defaults reproduce the paper's §4.2/§6.1 microbenchmark: a two-leaf
    fabric with 15 spines at 1 Gbps, 100 µs RTT, DCTCP, 100 short + 3
    long flows, deadlines U[5 ms, 25 ms].
    """

    # scheme ------------------------------------------------------------
    scheme: str = "tlb"
    scheme_params: dict = field(default_factory=dict)

    # fabric --------------------------------------------------------------
    n_leaves: int = 2
    n_paths: int = 15
    hosts_per_leaf: int = 8
    link_rate: float = Gbps(1)
    rtt: float = microseconds(100)
    buffer_packets: int = 256
    ecn_threshold: Optional[int] = 20
    #: (leaf, spine, rate_factor, extra_delay) tuples for asymmetry
    link_overrides: tuple = ()
    #: dynamic fault schedule in :mod:`repro.faults` spec form, e.g.
    #: ``"0.1:link_down:leaf0-spine1;0.3:link_up:leaf0-spine1"``;
    #: empty string disables injection
    faults: str = ""
    #: delay between a fault hitting the data plane and balancers being
    #: notified (the PathStateObserver hook); 0 = oracle control plane
    fault_detection_delay: float = 0.0

    # workload ------------------------------------------------------------
    #: ``"static"`` | ``"poisson"`` | a :mod:`repro.workload.scenarios`
    #: spec, e.g. ``"zipf:s=1.2"`` or ``"mix:tenantA@0.7+incast@0.3"``
    workload: str = "static"
    # static:
    n_short: int = 100
    n_long: int = 3
    short_size_lo: int = KB(40)
    short_size_hi: int = KB(100)
    long_size: int = MB(10)
    short_window: float = 0.05
    #: one sender and one receiver per flow (the §2.2/§4.2 setup where
    #: congestion is confined to the fabric); needs enough hosts per leaf
    distinct_hosts: bool = False
    # poisson:
    sizes: str = "web_search"  # "web_search" | "data_mining"
    load: float = 0.4
    n_flows: int = 300
    truncate_tail: Optional[float] = None
    # deadlines:
    deadline_lo: float = 5e-3
    deadline_hi: float = 25e-3

    # transport -----------------------------------------------------------
    transport: str = "dctcp"  # "dctcp" | "tcp"
    min_rto: Optional[float] = None  # None → max(10 ms, 3·RTT)
    rwnd_bytes: int = 64 * 1024

    # run -----------------------------------------------------------------
    seed: int = 1
    horizon: float = 2.0
    slice_width: float = 0.01
    timeseries: bool = False
    #: bin width of the live time series, seconds
    bin_width: float = 0.010
    #: trace kinds to record ("enqueue", "dequeue", "drop", "mark", ...)
    trace_kinds: tuple = ()
    #: profile the run's wall-clock behaviour (events/sec, sim/wall
    #: ratio, peak RSS) into ``RunMetrics.extras``
    telemetry: bool = False
    #: assemble per-flow span forensics (:mod:`repro.obs.spans`) with
    #: deterministic tail sampling; observability-only, cache-neutral
    spans: bool = False
    #: attribute kernel wall time to handler components
    #: (:mod:`repro.obs.profiler`); observability-only, cache-neutral
    profile: bool = False
    #: emit run aggregates (kernel event throughput, flow counts, wall
    #: time) into the process metrics registry
    #: (:mod:`repro.obs.metrics`); observability-only, cache-neutral
    metrics: bool = False
    short_threshold: int = KB(100)

    def __post_init__(self) -> None:
        if self.workload not in LEGACY_WORKLOADS:
            # Parse eagerly (like the fault spec below) so a malformed
            # scenario — or a missing CDF trace file — fails at config
            # time, not inside a worker process half-way through a sweep.
            parse_scenario(self.workload)
        if self.transport not in _TRANSPORTS:
            raise ConfigError(f"unknown transport {self.transport!r}")
        if self.workload != "static" and self.sizes not in _SIZE_DISTRIBUTIONS:
            raise ConfigError(f"unknown size distribution {self.sizes!r}")
        if self.horizon <= 0 or self.slice_width <= 0:
            raise ConfigError("horizon and slice_width must be positive")
        if self.fault_detection_delay < 0:
            raise ConfigError("fault_detection_delay must be >= 0")
        if self.faults:
            # Parse eagerly so a malformed spec fails at config time, not
            # inside a worker process half-way through a sweep.
            FaultSchedule.from_spec(self.faults)

    def with_(self, **changes) -> "ScenarioConfig":
        """A modified copy (sweep convenience)."""
        return replace(self, **changes)

    # -- derived pieces ----------------------------------------------------

    def fabric_config(self) -> LeafSpineConfig:
        return LeafSpineConfig(
            n_leaves=self.n_leaves,
            n_spines=self.n_paths,
            hosts_per_leaf=self.hosts_per_leaf,
            link_rate=self.link_rate,
            rtt=self.rtt,
            buffer_packets=self.buffer_packets,
            ecn_threshold=self.ecn_threshold,
            seed=self.seed,
        )

    def tcp_config(self) -> TcpConfig:
        min_rto = self.min_rto
        if min_rto is None:
            min_rto = max(0.010, 3.0 * self.rtt)
        return TcpConfig(
            min_rto=min_rto,
            rwnd_bytes=self.rwnd_bytes,
            ecn_capable=(self.transport == "dctcp"),
        )

    def size_distribution(self) -> FlowSizeDistribution:
        return named_distribution(self.sizes, truncate_at=self.truncate_tail)


@dataclass
class ScenarioResult:
    """A finished run with full access to its internals.

    Not picklable (holds the live network); parameter sweeps use
    :func:`run_scenario_metrics`, which returns just the
    :class:`~repro.metrics.collector.RunMetrics`.
    """

    config: ScenarioConfig
    metrics: RunMetrics
    net: Network
    registry: FlowRegistry
    collector: MetricsCollector
    workload: WorkloadResult
    balancers: dict
    tracer: Any
    #: the armed :class:`~repro.faults.FaultInjector`, or None
    injector: Any = None
    #: the finalized :class:`~repro.obs.FlightRecorder`, or None
    recorder: Any = None
    #: the finalized :class:`~repro.obs.spans.SpanBuffer`, or None
    spans: Any = None
    #: the :class:`~repro.obs.profiler.EngineProfiler`, or None
    profiler: Any = None

    @property
    def completed_all(self) -> bool:
        """Whether every flow delivered all data within the horizon."""
        return all(s.completed is not None for s in self.registry.all_stats())


def _build_network(config: ScenarioConfig, tracer) -> Network:
    net = build_leaf_spine(config.fabric_config(), tracer=tracer)
    if config.link_overrides:
        overrides = [LinkOverride(*ov) for ov in config.link_overrides]
        apply_asymmetry(net, overrides)
    return net


def _install_workload(config: ScenarioConfig, net, registry) -> WorkloadResult:
    sender_cls = _TRANSPORTS[config.transport]
    deadlines = UniformDeadlines(
        config.deadline_lo, config.deadline_hi, config.short_threshold)
    if config.workload == "static":
        wl = StaticWorkload(
            net, registry,
            n_short=config.n_short,
            n_long=config.n_long,
            short_sizes=UniformSize(config.short_size_lo, config.short_size_hi),
            long_size=config.long_size,
            short_window=config.short_window,
            deadlines=deadlines,
            sender_cls=sender_cls,
            tcp_config=config.tcp_config(),
            distinct_hosts=config.distinct_hosts,
        )
    elif config.workload == "poisson":
        wl = PoissonWorkload(
            net, registry,
            sizes=config.size_distribution(),
            load=config.load,
            n_flows=config.n_flows,
            deadlines=deadlines,
            sender_cls=sender_cls,
            tcp_config=config.tcp_config(),
        )
    else:
        scenario = parse_scenario(config.workload)
        return scenario.install(net, registry, config,
                                sender_cls=sender_cls,
                                tcp_config=config.tcp_config())
    return wl.install()


def run_scenario(
    config: ScenarioConfig, *, tracer=None, recorder=None
) -> ScenarioResult:
    """Build, run and measure one scenario.

    Runs in ``slice_width`` steps until either every flow has delivered
    all its data or ``config.horizon`` simulated seconds elapse.

    Parameters
    ----------
    tracer:
        Optional trace sink installed across the fabric, overriding the
        config-derived one (e.g. a :class:`~repro.obs.JsonlTracer`; the
        caller keeps ownership and closes it).
    recorder:
        Optional :class:`~repro.obs.FlightRecorder`.  When given, it is
        attached to the built fabric (sample timer, FCT subscription)
        and tee'd into the trace stream as a sink (queueing delays, the
        ``qth`` audit); it is stopped and finalized before returning.
        Its timer ticks are not counted in ``extras["events"]``.
        ``None`` (the default) leaves every run path untouched.

    ``config.spans`` adds a :class:`~repro.obs.spans.SpanBuffer` as a trace
    sink, finalized into ``result.spans`` (the caller saves it).
    """
    spans = None
    if config.spans:
        from repro.obs.spans import SpanBuffer

        spans = SpanBuffer(config.seed, short_threshold=config.short_threshold)
    # Assemble the trace sink stack.  A lone sink is installed directly
    # (no tee indirection on the hot path); several are tee'd.
    sinks = []
    base = tracer
    if base is None and config.trace_kinds:
        base = RecordingTracer(set(config.trace_kinds))
    if base is not None:
        sinks.append(base)
    if spans is not None:
        sinks.append(spans)
    if recorder is not None:
        sinks.append(recorder)
    if len(sinks) == 1:
        tracer = sinks[0]
    elif sinks:
        from repro.obs.tracers import TeeTracer

        tracer = TeeTracer(*sinks)
    else:
        tracer = NullTracer()
    net = _build_network(config, tracer)
    # If the run dies mid-flight, flush durable sinks so the trace tail
    # (the part forensics needs) still reaches disk.
    net.sim.add_cleanup_hook(tracer.flush)
    registry = FlowRegistry()
    collector = MetricsCollector(
        registry,
        short_threshold=config.short_threshold,
        bin_width=config.bin_width,
        timeseries=config.timeseries,
    )
    workload = _install_workload(config, net, registry)
    balancers = attach_scheme(net, config.scheme, **config.scheme_params)
    injector = None
    if config.faults:
        # Armed after the balancers so PathStateObserver notifications
        # find them attached.
        injector = FaultInjector(
            net, FaultSchedule.from_spec(config.faults),
            detection_delay=config.fault_detection_delay,
        ).arm()
    if recorder is not None:
        recorder.attach(net, registry=registry,
                        short_threshold=config.short_threshold)
    if spans is not None:
        spans.attach(registry)

    sim = net.sim
    profiler = None
    if config.profile:
        from repro.obs.profiler import EngineProfiler

        profiler = EngineProfiler().install(sim)
    pending = {f.id for f in workload.flows}
    done_ids: set[int] = set()
    registry.subscribe_completion(lambda s: done_ids.add(s.flow.id))
    wall0 = time.perf_counter()
    t = 0.0
    while t < config.horizon and len(done_ids) < len(pending):
        t = min(t + config.slice_width, config.horizon)
        sim.run(until=t)
    wall = time.perf_counter() - wall0
    events = sim.events_processed
    if recorder is not None:
        # Sample-timer firings are the observer's, not the traffic's.
        events -= recorder.ticks

    metrics = collector.finalize(
        net, scheme=config.scheme, horizon=sim.now, balancers=balancers)
    metrics.extras["completed_all"] = len(done_ids) >= len(pending)
    metrics.extras["seed"] = config.seed
    metrics.extras["events"] = events
    metrics.extras["long_reroutes"] = sum(
        getattr(lb, "long_reroutes", 0) for lb in balancers.values())
    if injector is not None:
        metrics.extras["faults_applied"] = injector.summary()
        metrics.extras["path_events"] = sum(
            lb.path_events for lb in balancers.values())
    if config.telemetry:
        from repro.obs.telemetry import peak_rss_bytes

        metrics.extras["wall_time_s"] = wall
        metrics.extras["events_per_sec"] = events / wall if wall > 0 else 0.0
        metrics.extras["sim_wall_ratio"] = sim.now / wall if wall > 0 else 0.0
        metrics.extras["peak_rss_bytes"] = peak_rss_bytes()
    if profiler is not None:
        metrics.extras["profile"] = profiler.report(top=16)
    if recorder is not None:
        recorder.stop()
        recorder.finalize(scheme=config.scheme, seed=config.seed, horizon=sim.now)
    if spans is not None:
        spans.finalize(horizon=sim.now)
        metrics.extras["spans"] = spans.extras()
    if config.metrics:
        # Aggregate counts only, emitted once per run — the kernel hot
        # loop stays uninstrumented.  Wall time is volatile by nature
        # and flagged so, keeping metrics.json byte-comparable.
        from repro.obs.metrics import get_registry

        reg = get_registry()
        reg.counter("repro_sim_runs_total",
                    "Completed simulation runs.").inc(scheme=config.scheme)
        reg.counter("repro_sim_events_total",
                    "Kernel events processed, summed per run."
                    ).inc(events, scheme=config.scheme)
        reg.counter("repro_sim_flows_total",
                    "Flows installed by the workload."
                    ).inc(len(pending), scheme=config.scheme)
        reg.counter("repro_sim_flows_completed_total",
                    "Flows that delivered all data within the horizon."
                    ).inc(len(done_ids), scheme=config.scheme)
        reg.histogram("repro_sim_wall_seconds",
                      "Wall-clock time of the event loop per run.",
                      volatile=True).observe(wall, scheme=config.scheme)
    tracer.flush()
    return ScenarioResult(
        config=config,
        metrics=metrics,
        net=net,
        registry=registry,
        collector=collector,
        workload=workload,
        balancers=balancers,
        tracer=tracer,
        injector=injector,
        recorder=recorder,
        spans=spans,
        profiler=profiler,
    )


def run_scenario_metrics(config: ScenarioConfig) -> RunMetrics:
    """Sweep-friendly wrapper: run and return only the picklable metrics."""
    return run_scenario(config).metrics
