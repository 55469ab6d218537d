"""The isolated rungs: one loop per layer, timing calls into its public functions.

Every rung builds a fixed-size seeded input, times the loop ``reps``
times and reports the median, and checks a count the loop must produce
(decisions issued, packets received, flows completed) so it cannot
silently time an error path.  At ``scale`` 1.0 every repetition does at
least ~0.3 s of work.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from pathlib import Path
from typing import Callable

from benchmarks.ladder.metrics import SCHEMES
from benchmarks.ladder.workloads import (
    FABRIC, OBSERVERS_OFF, WORKLOADS, scaled, work_dir,
)

import repro
from repro.cache import ResultCache, cache_key, code_fingerprint
from repro.core.config import TlbConfig
from repro.core.granularity_calculator import GranularityCalculator
from repro.experiments.common import ScenarioConfig, run_scenario
from repro.experiments.runner import run_many
from repro.lb.registry import attach_scheme
from repro.net.packet import Packet
from repro.net.port import Port
from repro.net.switch import Switch
from repro.net.topology import build_leaf_spine
from repro.obs import FlightRecorder
from repro.sim.engine import Simulator
from repro.sim.rng import derive_seed
from repro.transport.flow import FlowRegistry
from repro.units import Gbps, KB, MB
from repro.workload.generator import PoissonWorkload
from repro.workload.scenarios import EXAMPLE_SPECS, parse_scenario

__all__ = ["RungError", "run_all"]

_US = 1e-6
PAPER_FABRIC = ScenarioConfig(**FABRIC).fabric_config()
INSTALL_SPECS = {
    "incast": "incast:fanin=48,period=2ms,size=32KB",
    "mix": EXAMPLE_SPECS["mix"],
}


class RungError(AssertionError):
    """A rung's count check failed: it did not measure what it claims."""


def _expect(rung: str, what: str, got, want) -> None:
    if got != want:
        raise RungError(f"{rung}: {what} is {got!r}, expected {want!r}")


def _median(reps: int, once: Callable[[], float]) -> float:
    samples = []
    for _ in range(reps):
        gc.collect()
        samples.append(once())
    return statistics.median(samples)


# -- sim ---------------------------------------------------------------------------

class _Actor:
    """A self-rescheduling callback; ``timers`` arms and cancels an
    RTO-style timeout around every firing."""

    __slots__ = ("sim", "rng", "remaining", "timers", "timeout")

    def __init__(self, sim: Simulator, rng: random.Random, fires: int,
                 timers: bool):
        self.sim = sim
        self.rng = rng
        self.remaining = fires
        self.timers = timers
        self.timeout = None

    def fire(self) -> None:
        self.remaining -= 1
        if self.timers:
            if self.timeout is not None:
                self.timeout.cancel()
                self.timeout = None
            if self.remaining <= 0:
                return
            self.timeout = self.sim.call_later(80 * _US, self.fire)
            self.sim.call_later((2 + 10 * self.rng.random()) * _US, self.fire)
        elif self.remaining > 0:
            self.sim.call_later_fast(
                (2 + 10 * self.rng.random()) * _US, self.fire)


def _event_loop(seed: int, fires: int, timers: bool) -> float:
    sim = Simulator()
    rng = random.Random(derive_seed(seed, "ladder.sim"))
    actors = [_Actor(sim, rng, fires, timers) for _ in range(50)]
    for i, actor in enumerate(actors):
        sim.call_later(i * _US, actor.fire)
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    _expect("sim", "events processed", sim.events_processed, 50 * fires)
    return 1e9 * wall / sim.events_processed


def rung_sim(seed: int, scale: float, reps: int) -> dict:
    return {
        "sim.ns_per_event": _median(
            reps, lambda: _event_loop(seed, scaled(3000, scale, 2), True)),
        "sim.ns_per_fast_event": _median(
            reps, lambda: _event_loop(seed, scaled(8000, scale, 2), False)),
    }


# -- net.port / net.switch ------------------------------------------------------------

class _Sink:
    """A counting ``receive`` endpoint."""

    __slots__ = ("name", "received")

    def __init__(self) -> None:
        self.name = "sink"
        self.received = 0

    def receive(self, pkt) -> None:
        self.received += 1


def _port_once(seed: int, n_packets: int) -> float:
    sim = Simulator()
    rng = random.Random(derive_seed(seed, "ladder.port"))
    sink = _Sink()
    port = Port(sim, "rung", Gbps(1), 10 * _US, sink,
                buffer_packets=64, ecn_threshold=20)
    gap = port.serialization_delay(1500) * 0.8  # 1.25x line rate
    sent = 0

    def feed() -> None:
        nonlocal sent
        port.enqueue(Packet(1, "src", "dst", sent, 1500, ecn_capable=True))
        sent += 1
        if sent < n_packets:
            sim.call_later_fast(gap * (0.9 + 0.2 * rng.random()), feed)

    sim.call_later_fast(0.0, feed)
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    stats = port.stats
    _expect("net.port", "sink received", sink.received, stats.transmitted)
    _expect("net.port", "enqueued + dropped", stats.enqueued + stats.dropped,
            n_packets)
    return 1e9 * wall / n_packets


class _StubPort:
    """An ``enqueue`` endpoint that only counts."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def enqueue(self, pkt) -> bool:
        self.count += 1
        return True


def _switch_once(n_packets: int, rounds: int = 5) -> float:
    sw = Switch(Simulator(), "rung")
    stubs = [_StubPort() for _ in range(32)]
    for i, stub in enumerate(stubs):
        sw.set_route(f"h{i}", [stub])
    packets = [Packet(i % 64, "src", f"h{i % 32}", i, 1500)
               for i in range(n_packets)]
    receive = sw.receive
    t0 = time.perf_counter()
    for _ in range(rounds):
        for pkt in packets:
            receive(pkt)
    wall = time.perf_counter() - t0
    forwarded = rounds * n_packets
    _expect("net.switch", "packets enqueued", sum(s.count for s in stubs),
            forwarded)
    _expect("net.switch", "packets_forwarded", sw.packets_forwarded, forwarded)
    return 1e9 * wall / forwarded


def rung_net(seed: int, scale: float, reps: int) -> dict:
    return {
        "net.port.ns_per_pkt": _median(
            reps, lambda: _port_once(seed, scaled(120_000, scale, 100))),
        "net.switch.ns_per_fwd": _median(
            reps, lambda: _switch_once(scaled(200_000, scale, 100))),
        "net.topology.build_ms": _median(
            reps, lambda: _build_once(scaled(20, scale))),
    }


def _build_once(n: int) -> float:
    t0 = time.perf_counter()
    for _ in range(n):
        net = build_leaf_spine(PAPER_FABRIC)
    wall = time.perf_counter() - t0
    _expect("net.topology", "hosts", len(net.hosts), 256)
    _expect("net.topology", "directed ports", len(net.ports), 2 * (256 + 64))
    return 1e3 * wall / n


# -- lb / core --------------------------------------------------------------------------

def _leaf_balancer(scheme: str):
    """Scheme ``scheme`` attached to leaf0 of the paper fabric, and the
    eight uplinks it picks among for a host on another leaf."""
    net = build_leaf_spine(PAPER_FABRIC)
    balancers = attach_scheme(net, scheme)
    leaf = net.leaves[0]
    dst = net.hosts_under(net.leaves[1])[0].name
    return net, balancers[leaf.name], leaf.routes[dst], dst


def _packets(n: int, dst: str, n_flows: int, per_flow_limit: int = 0) -> list:
    """``n`` data packets round-robin over ``n_flows`` flows, SYN first.

    With ``per_flow_limit`` each flow id is retired (FIN) after that many
    packets and replaced by a fresh id, so flows stay short.
    """
    packets = []
    seqs = [0] * n_flows
    ids = list(range(n_flows))
    next_id = n_flows
    for i in range(n):
        slot = i % n_flows
        seq = seqs[slot]
        fin = per_flow_limit > 0 and seq == per_flow_limit - 1
        packets.append(Packet(ids[slot], "h0", dst, seq, 1500,
                              syn=(seq == 0), fin=fin))
        if fin:
            ids[slot] = next_id
            next_id += 1
            seqs[slot] = 0
        else:
            seqs[slot] = seq + 1
    return packets


def _pick_rung(scheme: str, n: int, reps: int, *, down: bool = False,
               per_flow_limit: int = 0, preload: int = 0) -> float:
    """Median ns per ``pick`` over ``reps`` fresh balancers fed one
    pre-built packet list; ``preload`` packets go through untimed."""
    dst = _leaf_balancer(scheme)[3]
    packets = _packets(n + preload, dst, 64, per_flow_limit)

    def once() -> float:
        _, lb, ports, _ = _leaf_balancer(scheme)
        if down:
            lb.path_down(ports[3])
        pick = lb.pick
        for pkt in packets[:preload]:
            pick(pkt, ports)
        issued = lb.counters.decisions
        t0 = time.perf_counter()
        for pkt in packets[preload:]:
            pick(pkt, ports)
        wall = time.perf_counter() - t0
        _expect(f"lb.{scheme}", "decisions", lb.counters.decisions - issued, n)
        if down:
            _expect("lb.down_filter", "dead uplinks", len(lb.down_ports), 1)
        return 1e9 * wall / n

    return _median(reps, once)


def rung_lb(seed: int, scale: float, reps: int) -> dict:
    n = scaled(200_000, scale, 200)
    out = {f"lb.{scheme}.ns_per_pick": _pick_rung(scheme, n, reps)
           for scheme in SCHEMES}
    out["lb.down_filter_ns_per_pick"] = _pick_rung("ecmp", n, reps, down=True)
    return out


def _calc_once(seed: int, n: int) -> float:
    calc = GranularityCalculator(TlbConfig(), 8, Gbps(1), 256)
    rng = random.Random(derive_seed(seed, "ladder.calc"))
    inputs = [(rng.randrange(0, 200), rng.randrange(0, 12),
               rng.uniform(KB(10), KB(100)), rng.uniform(5e-3, 25e-3))
              for _ in range(1000)]
    compute = calc.compute
    done = 0
    t0 = time.perf_counter()
    for _ in range(n // 1000):
        for args in inputs:
            compute(*args)
        done += 1000
    wall = time.perf_counter() - t0
    _expect("core.calc", "last q_th within [1, buffer]",
            1 <= calc.last_decision.qth <= 256, True)
    return 1e6 * wall / done


def rung_core(seed: int, scale: float, reps: int) -> dict:
    n = scaled(200_000, scale, 200)
    return {
        # 10 x 1500 B = 15 KB per flow: every pick is a short-flow pick,
        # with a table insert per SYN and a removal per FIN
        "core.tlb.ns_per_pick_short": _pick_rung(
            "tlb", n, reps, per_flow_limit=10),
        # 70 x 1500 B > 100 KB: the 64 flows are long before timing starts
        "core.tlb.ns_per_pick_long": _pick_rung(
            "tlb", n, reps, preload=64 * 70),
        "core.calc.us_per_qth": _median(
            reps, lambda: _calc_once(seed, scaled(100_000, scale, 1000))),
    }


# -- transport ----------------------------------------------------------------------------

def _one_path(seed: int, **workload) -> ScenarioConfig:
    """A two-leaf, one-spine fabric: no switch has a choice, so no
    balancer is attached."""
    return ScenarioConfig(n_leaves=2, n_paths=1, hosts_per_leaf=1, seed=seed,
                          scheme="ecmp", horizon=30.0, **OBSERVERS_OFF,
                          **workload)


def _transport_once(config: ScenarioConfig, per_flow: bool) -> float:
    t0 = time.perf_counter()
    result = run_scenario(config)
    wall = time.perf_counter() - t0
    stats = result.registry.all_stats()
    _expect("transport", "balancers attached", len(result.balancers), 0)
    _expect("transport", "flows completed",
            sum(s.completed is not None for s in stats), len(stats))
    _expect("transport", "bytes delivered",
            sum(s.bytes_delivered for s in stats),
            sum(s.flow.size for s in stats))
    units = len(stats) if per_flow else sum(s.flow.n_packets for s in stats)
    return 1e6 * wall / units


def rung_transport(seed: int, scale: float, reps: int) -> dict:
    bulk = _one_path(seed, n_short=0, n_long=1,
                     long_size=scaled(MB(10), scale, KB(100)))
    n_flows = scaled(2000, scale, 20)
    churn = _one_path(seed, n_short=n_flows, n_long=0, short_size_lo=1000,
                      short_size_hi=1000, short_window=n_flows * 100 * _US)
    return {
        "transport.us_per_segment": _median(
            reps, lambda: _transport_once(bulk, per_flow=False)),
        "transport.us_per_flow": _median(
            reps, lambda: _transport_once(churn, per_flow=True)),
    }


# -- workload -------------------------------------------------------------------------------

def _install_once(kind: str, seed: int, n_flows: int) -> float:
    net = build_leaf_spine(PAPER_FABRIC)
    registry = FlowRegistry()
    config = ScenarioConfig(workload="poisson", n_flows=n_flows, seed=seed,
                            load=0.6, **FABRIC)
    if kind == "poisson":
        install = PoissonWorkload(
            net, registry, sizes=config.size_distribution(), load=config.load,
            n_flows=n_flows, tcp_config=config.tcp_config()).install
    else:
        scenario = parse_scenario(INSTALL_SPECS[kind])

        def install():
            return scenario.install(net, registry, config,
                                    tcp_config=config.tcp_config())
    t0 = time.perf_counter()
    result = install()
    wall = time.perf_counter() - t0
    _expect(f"workload.{kind}", "flows registered", len(registry),
            len(result.flows))
    if not 0.9 * n_flows <= len(result.flows) <= n_flows:
        raise RungError(f"workload.{kind}: installed {len(result.flows)}"
                        f" flows for a budget of {n_flows}")
    return 1e6 * wall / len(result.flows)


def _parse_once(n: int) -> float:
    specs = list(EXAMPLE_SPECS.values())
    done = 0
    t0 = time.perf_counter()
    for _ in range(n // len(specs)):
        for spec in specs:
            parse_scenario(spec)
        done += len(specs)
    wall = time.perf_counter() - t0
    _expect("workload.parse", "canonical fixed point",
            parse_scenario(parse_scenario(specs[-1]).canonical()).canonical(),
            parse_scenario(specs[-1]).canonical())
    return 1e6 * wall / done


def rung_workload(seed: int, scale: float, reps: int) -> dict:
    n_flows = 48 * scaled(104, scale, 2)  # ~5000, a whole number of fan-ins
    out = {f"workload.install_us_per_flow.{kind}": _median(
        reps, lambda kind=kind: _install_once(kind, seed, n_flows))
        for kind in ("poisson", "incast", "mix")}
    out["workload.parse_us"] = _median(
        reps, lambda: _parse_once(scaled(12_000, scale, 60)))
    return out


# -- experiments / cache / runner ---------------------------------------------------------------

def _tiny_cells(seed: int, scale: float) -> list:
    """The ``tiny_grid`` workload's own cells (200 at scale 1)."""
    return WORKLOADS["tiny_grid"].configs(seed, scale)


def _fixed_once(seed: int, n: int) -> float:
    config = _tiny_cells(seed, 1.0)[0].with_(n_short=1)
    t0 = time.perf_counter()
    for _ in range(n):
        result = run_scenario(config)
    wall = time.perf_counter() - t0
    _expect("experiments", "flows completed", result.completed_all, True)
    return 1e3 * wall / n


def _fingerprint_once(k: int) -> float:
    """One uncached ``code_fingerprint``: the per-process memo is keyed
    by the root's spelling, so each repetition spells it differently."""
    root = Path(repro.__file__).resolve().parent
    alias = root
    for _ in range(k):
        alias = alias / ".." / root.name
    t0 = time.perf_counter()
    fingerprint = code_fingerprint(alias)
    wall = time.perf_counter() - t0
    _expect("cache.fingerprint", "digest", fingerprint, code_fingerprint())
    return 1e3 * wall


def _cache_rung(seed: int, scale: float, reps: int) -> dict:
    stored = _tiny_cells(seed, scale)
    absent = _tiny_cells(seed + 1000, scale)
    n = len(stored)
    result = run_scenario(stored[0]).metrics
    fingerprint = code_fingerprint()
    rounds = scaled(20, scale)

    def key_once() -> float:
        t0 = time.perf_counter()
        for _ in range(rounds):
            for config in stored:
                cache_key(config, fingerprint)
        return 1e6 * (time.perf_counter() - t0) / (rounds * n)

    out = {"cache.key_us": _median(reps, key_once)}
    puts, hits, misses = [], [], []
    entry_bytes = 0.0
    with work_dir() as tmp:
        for rep in range(reps):
            gc.collect()
            cache = ResultCache(tmp / f"cache{rep}")
            t0 = time.perf_counter()
            for config in stored:
                cache.put(config, result)
            puts.append(1e6 * (time.perf_counter() - t0) / n)
            t0 = time.perf_counter()
            for _ in range(rounds):
                for config in stored:
                    cache.get(config)
            hits.append(1e6 * (time.perf_counter() - t0) / (rounds * n))
            t0 = time.perf_counter()
            for _ in range(rounds):
                for config in absent:
                    cache.get(config)
            misses.append(1e6 * (time.perf_counter() - t0) / (rounds * n))
            _expect("cache", "hits", cache.hits, rounds * n)
            _expect("cache", "misses", cache.misses, rounds * n)
            stats = cache.stats()
            _expect("cache", "entries", stats.entries, n)
            entry_bytes = stats.total_bytes / stats.entries
    out.update({
        "cache.put_us": statistics.median(puts),
        "cache.get_hit_us": statistics.median(hits),
        "cache.get_miss_us": statistics.median(misses),
        "cache.entry_bytes": entry_bytes,
        "cache.fingerprint_ms": statistics.median(
            _fingerprint_once(k + 1) for k in range(max(reps, 3))),
    })
    return out


def noop_runner(config) -> int:
    """Module-level so pool workers can import it."""
    return config.seed


def _dispatch_once(configs: list, rounds: int, **kwargs) -> float:
    t0 = time.perf_counter()
    for _ in range(rounds):
        results = run_many(configs, runner=noop_runner, **kwargs)
    wall = time.perf_counter() - t0
    _expect("runner", "results", results, [c.seed for c in configs])
    return 1e6 * wall / (rounds * len(configs))


def rung_grid(seed: int, scale: float, reps: int) -> dict:
    configs = _tiny_cells(seed, scale)
    out = {
        "experiments.fixed_ms_per_run": _median(
            reps, lambda: _fixed_once(seed, scaled(60, scale, 3))),
        "runner.serial_us_per_cell": _median(
            reps, lambda: _dispatch_once(configs, scaled(2000, scale), processes=1)),
        "runner.pool_us_per_cell": _median(
            reps, lambda: _dispatch_once(configs, 1, processes=2, chunksize=1)),
        "runner.chunked_us_per_cell": _median(
            reps, lambda: _dispatch_once(configs, 1, processes=2, chunksize=8)),
    }
    out.update(_cache_rung(seed, scale, reps))
    return out


# -- obs -----------------------------------------------------------------------------------------

def _obs_once(cell: ScenarioConfig, **observer) -> float:
    recorder = FlightRecorder() if observer.pop("recorder", False) else None
    t0 = time.perf_counter()
    result = run_scenario(cell.with_(**observer), recorder=recorder)
    wall = time.perf_counter() - t0
    _expect("obs", "flows completed", result.completed_all, True)
    return wall


def rung_obs(seed: int, scale: float, reps: int) -> dict:
    # a third of websearch_fabric: 100 flows at scale 1.  Each pass costs
    # seconds, not milliseconds, so these take half the repetitions.
    reps = max(1, reps // 2)
    cell = WORKLOADS["websearch_fabric"].configs(seed, scale / 3)[0]
    off = _median(reps, lambda: _obs_once(cell))
    out = {}
    for name, observer in (("spans", {"spans": True}),
                           ("recorder", {"recorder": True}),
                           ("telemetry", {"telemetry": True})):
        on = _median(reps, lambda: _obs_once(cell, **observer))
        out[f"obs.{name}_overhead_pct"] = 100.0 * (on / off - 1.0)
    return out


RUNGS = (rung_sim, rung_net, rung_lb, rung_core, rung_transport,
         rung_workload, rung_grid, rung_obs)


def run_all(seed: int, scale: float = 1.0, reps: int = 5) -> dict:
    """Every rung's metrics; raises :class:`RungError` on a failed check."""
    out: dict = {}
    for rung in RUNGS:
        out.update(rung(seed, scale, reps))
    return out
