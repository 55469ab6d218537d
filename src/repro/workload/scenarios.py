"""Workload scenario registry: compact specs → installable workloads.

The paper evaluates TLB under exactly two size CDFs and a plain Poisson
pair process (§6.2).  Production fabrics see far richer shapes — skewed
host popularity, partition–aggregate fan-ins, diurnal load curves,
migrating hotspots, multi-tenant mixes — so this module gives every such
shape a compact one-line spec (mirroring :class:`repro.faults.FaultSchedule`)
and a registry that turns specs into deterministic, installable
workloads.  A spec is a first-class sweep axis: it rides in
``ScenarioConfig.workload``, canonicalises into the result-cache key
(empirical CDF files are content-fingerprinted, so editing a trace file
invalidates exactly its own cells), and appears as a ``repro figure
workloads`` family.

Spec format
-----------
``kind[:key=value[,key=value...]]``, e.g.::

    cdf:file=traces/websearch.csv
    zipf:s=1.2,load=0.5
    incast:fanin=40,period=10ms
    diurnal:peak=0.9,trough=0.2,period=1s
    hotspot:leaves=2,dwell=200ms
    mix:tenantA@0.7+incast@0.3

Each kind declares its parameters once, in its ``PARAMS`` table; ``repro
workloads`` prints every kind's parameters and defaults from it (a bare
name defaults to the config's ``sizes`` / ``load`` / ``n_flows``).

Times accept ``us``/``ms``/``s`` suffixes (bare numbers are seconds);
sizes accept ``B``/``KB``/``MB`` (bare numbers are bytes).  Aliases
(``websearch``, ``datamining``, ``tenantA``, ``tenantB``) expand to full
specs and canonicalise identically, so an alias and its expansion share
one cache cell.

Every random quantity draws from named RNG streams of the network's
registry, so a scenario installs byte-identically across schemes at the
same seed (paired comparisons), and ``parse(spec).canonical()`` is a
lossless fixed point suitable for hashing: two specs share a canonical
string only when they describe the same scenario.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import TYPE_CHECKING, Collection, Optional, Type

import numpy as np

from repro.errors import ConfigError
from repro.transport.dctcp import DctcpSender
from repro.transport.flow import Flow, FlowRegistry
from repro.units import KB, short_float
from repro.workload.deadlines import UniformDeadlines
from repro.workload.distributions import (
    FlowSizeDistribution,
    named_distribution,
    PiecewiseCdf,
)
from repro.workload.generator import (
    WorkloadResult,
    arrival_rate,
    cross_leaf_pairs,
    install_flows,
    make_flows,
    poisson_arrivals,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.topology import Network

__all__ = [
    "Scenario",
    "SCENARIO_KINDS",
    "SCENARIO_ALIASES",
    "register_scenario",
    "available_scenarios",
    "parse_scenario",
    "canonical_workload",
    "load_cdf_file",
    "EXAMPLE_SPECS",
]

#: ScenarioConfig.workload values handled by the legacy generator path
#: (repro.workload.generator), not this registry.
LEGACY_WORKLOADS = ("static", "poisson")


# --- spec field parsing ----------------------------------------------------

def _text(value: str, spec: str) -> str:
    return value


def _num(value: str, spec: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"bad number {value!r} in workload spec {spec!r}") \
            from None


def _parse_time(value: str, spec: str) -> float:
    """Parse ``10ms`` / ``200us`` / ``1s`` / bare seconds."""
    v = value.strip()
    for suffix, scale in (("us", 1e-6), ("ms", 1e-3), ("s", 1.0)):
        if v.endswith(suffix):
            return _num(v[: -len(suffix)], spec) * scale
    return _num(v, spec)


def _parse_bytes(value: str, spec: str) -> int:
    """Parse ``32KB`` / ``1MB`` / ``64KiB`` / bare bytes (decimal units)."""
    v = value.strip()
    for suffix, scale in (("KiB", 1024), ("MB", 1e6), ("KB", 1e3), ("B", 1)):
        if v.endswith(suffix):
            return int(round(_num(v[: -len(suffix)], spec) * scale))
    return int(round(_num(v, spec)))


def _parse_int(value: str, spec: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"bad integer {value!r} in workload spec {spec!r}") \
            from None


def _parse_params(rest: str, spec: str, allowed: Collection[str]) -> dict[str, str]:
    """Split ``k=v,k=v`` into a dict, validating keys against ``allowed``."""
    params: dict[str, str] = {}
    for chunk in (c.strip() for c in rest.split(",")):
        if not chunk:
            continue
        key, sep, value = chunk.partition("=")
        key = key.strip()
        if not sep or not value.strip():
            raise ConfigError(
                f"workload spec {spec!r}: {chunk!r} must be key=value")
        if key not in allowed:
            raise ConfigError(
                f"workload spec {spec!r}: unknown parameter {key!r}"
                f" (allowed: {', '.join(allowed)})")
        if key in params:
            raise ConfigError(
                f"workload spec {spec!r}: duplicate parameter {key!r}")
        params[key] = value.strip()
    return params


def _fmt(value) -> str:
    """Canonical value rendering: shortest lossless float form, bare
    seconds/bytes."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return short_float(value)
    return str(value)


# --- parameter checks (the third column of a PARAMS row) -------------------

def _within(lo: float, hi: float = float("inf"), *, closed: bool = False):
    """Range check ``lo < value <= hi`` (``lo <= value`` when ``closed``)."""
    def check(value, what: str) -> None:
        if not ((lo <= value if closed else lo < value) and value <= hi):
            raise ConfigError(
                f"{what} must be in {'[' if closed else '('}{lo:g}, {hi:g}],"
                f" got {value}")
    return check


def _known_sizes(value: str, what: str) -> None:
    named_distribution(value)  # validate eagerly


#: parameter rows shared by the Poisson-family kinds; a ``None`` default
#: reads the value from the config (sizes / load / n_flows)
_SIZES = (_text, None, _known_sizes)
_LOAD = (_num, None, _within(0, 1.5))
_FLOWS = (_parse_int, None, _within(1, closed=True))


# --- config defaults -------------------------------------------------------

def _cfg(config, name: str, default):
    """Read a ScenarioConfig field, tolerating ``config=None`` (tests)."""
    if config is None:
        return default
    return getattr(config, name, default)


def _deadlines(config) -> UniformDeadlines:
    return UniformDeadlines(
        _cfg(config, "deadline_lo", 5e-3),
        _cfg(config, "deadline_hi", 25e-3),
        _cfg(config, "short_threshold", KB(100)),
    )


def _require_multi_leaf(net: "Network", kind: str) -> None:
    if len(net.leaves) < 2:
        raise ConfigError(f"{kind} scenario needs at least two leaves")


# --- the scenario interface ------------------------------------------------

class Scenario:
    """One parsed workload scenario: a pure description that can render
    itself canonically (for cache keys) and generate deterministic flows
    on a built network.

    A kind is ``kind`` + ``PARAMS`` + ``generate``: the constructor, the
    spec parser and the canonical form all read the table, and every
    parameter becomes an attribute of the same name."""

    kind: str = "base"
    #: ``name -> (parse(value, spec), default, check(value, what) | None)``
    #: in spec-documentation order; a ``None`` value skips its check and
    #: stays out of the canonical form
    PARAMS: dict[str, tuple] = {}

    def __init__(self, **params):
        unknown = params.keys() - self.PARAMS.keys()
        if unknown:
            raise ConfigError(
                f"{self.kind}: unknown parameter(s) {sorted(unknown)}")
        for name, (_, default, check) in self.PARAMS.items():
            value = params.get(name, default)
            if value is not None and check is not None:
                check(value, f"{self.kind} {name}")
            setattr(self, name, value)

    @classmethod
    def parse(cls, rest: str, spec: str) -> "Scenario":
        given = _parse_params(rest, spec, cls.PARAMS)
        return cls(**{name: cls.PARAMS[name][0](value, spec)
                      for name, value in given.items()})

    def canonical(self) -> str:
        """Canonical spec form — a fixed point of ``parse``; explicit
        parameters only, sorted by key, values in base units."""
        params = self._canonical_params()
        if not params:
            return self.kind
        body = ",".join(f"{k}={_fmt(v)}" for k, v in sorted(params.items()))
        return f"{self.kind}:{body}"

    def _canonical_params(self) -> dict:
        return {name: getattr(self, name) for name in self.PARAMS
                if getattr(self, name) is not None}

    def reads_load_axis(self) -> bool:
        """Whether ``ScenarioConfig.load`` reaches the generated flows: the
        kind has a ``load`` parameter and the spec leaves it unset."""
        return "load" in self.PARAMS and self.load is None

    def file_digests(self) -> dict[str, str]:
        """Content fingerprints of any files the scenario reads
        (``{path: sha256-prefix}``); folded into the cache key."""
        return {}

    def generate(
        self,
        net: "Network",
        config=None,
        *,
        base_id: int = 0,
        n_flows: Optional[int] = None,
        stream_prefix: str = "workload.scenario",
    ) -> list[Flow]:
        """Produce the scenario's flows (ids contiguous from ``base_id``)."""
        raise NotImplementedError

    def install(
        self,
        net: "Network",
        registry: FlowRegistry,
        config=None,
        *,
        sender_cls: Type = DctcpSender,
        tcp_config=None,
    ) -> WorkloadResult:
        """Register flows, create senders, schedule starts."""
        return install_flows(net, registry, self.generate(net, config),
                             sender_cls, tcp_config)


# --- traffic-matrix scenarios ----------------------------------------------

class PoissonScenario(Scenario):
    """Uniform random cross-leaf pairs, Poisson arrivals at a target
    load — the §6.2 baseline, spec-addressable so mixes can cite it.

    Its ``generate`` is the only one of the Poisson family; subclasses
    override the size distribution, the arrival process or the endpoint
    choice and keep each named stream's draw order."""

    kind = "poisson"
    PARAMS = {"sizes": _SIZES, "load": _LOAD, "flows": _FLOWS}

    def _distribution(self, config) -> FlowSizeDistribution:
        return named_distribution(
            self.sizes if self.sizes is not None
            else _cfg(config, "sizes", "web_search"),
            truncate_at=_cfg(config, "truncate_tail", None),
        )

    def _arrivals(self, net, config, rng, mean_size: float, n: int) -> np.ndarray:
        load = self.load if self.load is not None else _cfg(config, "load", 0.4)
        return poisson_arrivals(rng, arrival_rate(net, load, mean_size), n)

    def _pairs(self, net, rng, arrivals: np.ndarray) -> list[tuple[str, str]]:
        return cross_leaf_pairs(net, rng, len(arrivals))

    def generate(self, net, config=None, *, base_id=0, n_flows=None,
                 stream_prefix="workload.scenario"):
        _require_multi_leaf(net, self.kind)
        n = n_flows if n_flows is not None else (
            self.flows if self.flows is not None
            else _cfg(config, "n_flows", 200))
        dist = self._distribution(config)
        arrivals = self._arrivals(
            net, config, net.rngs.stream(f"{stream_prefix}.arrivals"),
            dist.mean(), n)
        sizes = dist.sample(net.rngs.stream(f"{stream_prefix}.sizes"), n)
        deadlines = _deadlines(config).assign(
            net.rngs.stream(f"{stream_prefix}.deadlines"), sizes)
        pairs = self._pairs(
            net, net.rngs.stream(f"{stream_prefix}.pairs"), arrivals)
        return make_flows(base_id, pairs, sizes, arrivals, deadlines)


class EmpiricalCdfScenario(PoissonScenario):
    """Flow sizes from an empirical CDF file (the rotorsim
    ``dist_from_file`` idiom): rows of ``size_bytes,cdf``, ``#`` comments
    ignored.  The file's content hash is part of the cache key, so
    editing a trace invalidates exactly the cells that used it."""

    kind = "cdf"
    PARAMS = {"file": (_text, None, None), "load": _LOAD, "flows": _FLOWS}

    def __init__(self, **params):
        super().__init__(**params)
        if self.file is None:
            raise ConfigError("cdf needs file=PATH")
        self._points, self._digest = load_cdf_file(self.file)

    def file_digests(self) -> dict[str, str]:
        return {self.file: self._digest}

    def _distribution(self, config) -> FlowSizeDistribution:
        name = Path(self.file).stem or "cdf"
        return PiecewiseCdf(
            self._points, name=f"cdf:{name}",
            truncate_at=_cfg(config, "truncate_tail", None))


class ZipfScenario(PoissonScenario):
    """Zipf-skewed destination popularity: host at popularity rank k is
    chosen with probability ∝ k^-s (the hopperkv ``ZipfDistrib`` shape).
    The rank→host assignment is a seeded permutation, so the hot set is
    stable within a run and byte-identical across schemes."""

    kind = "zipf"
    PARAMS = {"s": (_num, 1.2, _within(0, 4)), "sizes": _SIZES,
              "load": _LOAD, "flows": _FLOWS}

    def draw_destinations(self, net, rng, n: int) -> list[str]:
        """``n`` destination hosts by Zipf rank-frequency (exposed for
        the conformance tests)."""
        hosts = [h.name for h in net.host_list()]
        ranks = np.arange(1, len(hosts) + 1, dtype=float)
        weights = ranks ** -self.s
        weights /= weights.sum()
        perm = rng.permutation(len(hosts))
        draws = rng.choice(len(hosts), size=n, p=weights)
        return [hosts[int(perm[d])] for d in draws]

    def _pairs(self, net, rng, arrivals):
        hosts = [h.name for h in net.host_list()]
        leaf_of = net.leaf_of
        pairs = []
        for dst in self.draw_destinations(net, rng, len(arrivals)):
            # src is uniform over the other leaves, so the destination
            # popularity skew is preserved exactly.
            src = hosts[int(rng.integers(len(hosts)))]
            while leaf_of[src] == leaf_of[dst]:
                src = hosts[int(rng.integers(len(hosts)))]
            pairs.append((src, dst))
        return pairs


class IncastScenario(Scenario):
    """Partition–aggregate fan-in: every ``period``, one aggregator
    receives ``fanin`` near-simultaneous responses from workers on other
    leaves (OLDI request shape; workers are drawn fabric-wide, so
    ``fanin`` may exceed one leaf's host count).  ``requests`` defaults
    to the flow budget divided by ``fanin``."""

    kind = "incast"
    PARAMS = {
        "fanin": (_parse_int, 16, _within(1, closed=True)),
        "period": (_parse_time, 0.010, _within(0)),
        "size": (_parse_bytes, KB(32), _within(1, closed=True)),
        "requests": (_parse_int, None, _within(1, closed=True)),
        "jitter": (_parse_time, 500e-6, _within(0, closed=True)),
    }

    def generate(self, net, config=None, *, base_id=0, n_flows=None,
                 stream_prefix="workload.scenario"):
        _require_multi_leaf(net, self.kind)
        budget = n_flows if n_flows is not None else _cfg(config, "n_flows", 200)
        n_requests = self.requests if self.requests is not None else max(
            1, budget // self.fanin)
        rng = net.rngs.stream(f"{stream_prefix}.incast")
        rng_deadlines = net.rngs.stream(f"{stream_prefix}.deadlines")
        deadlines = _deadlines(config)
        hosts = [h.name for h in net.host_list()]
        leaf_of = net.leaf_of
        by_leaf: dict[str, list[str]] = {}
        for h in hosts:
            by_leaf.setdefault(leaf_of[h], []).append(h)

        flows: list[Flow] = []
        fid = base_id
        for rid in range(n_requests):
            epoch = rid * self.period
            agg = hosts[int(rng.integers(len(hosts)))]
            workers = [h for leaf, pool in sorted(by_leaf.items())
                       if leaf != leaf_of[agg] for h in pool]
            if self.fanin > len(workers):
                raise ConfigError(
                    f"incast fanin {self.fanin} exceeds the {len(workers)}"
                    f" cross-leaf hosts available")
            chosen = rng.permutation(len(workers))[: self.fanin]
            sizes = np.full(self.fanin, self.size, dtype=np.int64)
            dls = deadlines.assign(rng_deadlines, sizes)
            for j, w in enumerate(chosen):
                start = epoch + float(rng.uniform(0.0, self.jitter))
                flows.append(Flow(id=fid, src=workers[int(w)], dst=agg,
                                  size=self.size, start_time=start,
                                  deadline=dls[j]))
                fid += 1
        return flows


class DiurnalScenario(PoissonScenario):
    """Sinusoidal load curve between ``trough`` and ``peak`` over
    ``period`` — a compressed day.  Arrivals are a non-homogeneous
    Poisson process drawn by thinning against the peak rate, so the
    realised curve follows λ(t) exactly and stays seed-deterministic."""

    kind = "diurnal"
    PARAMS = {
        "peak": (_num, 0.8, _within(0, 1.5)),
        "trough": (_num, 0.2, _within(0, 1.5)),
        "period": (_parse_time, 1.0, _within(0)),
        "sizes": _SIZES,
        "flows": _FLOWS,
    }

    def __init__(self, **params):
        super().__init__(**params)
        if self.trough > self.peak:
            raise ConfigError(
                f"diurnal needs trough <= peak, got trough={self.trough}"
                f" peak={self.peak}")

    def load_at(self, t: float) -> float:
        """Instantaneous offered load: trough at t=0, peak at period/2."""
        phase = 0.5 - 0.5 * np.cos(2.0 * np.pi * t / self.period)
        return self.trough + (self.peak - self.trough) * float(phase)

    def _arrivals(self, net, config, rng, mean_size, n):
        # the thinning envelope: the unit-load rate scaled to the peak
        lam_max = arrival_rate(net, 1.0, mean_size) * self.peak
        arrivals = np.empty(n)
        t = 0.0
        accepted = 0
        while accepted < n:
            t += float(rng.exponential(1.0 / lam_max))
            if rng.random() * self.peak <= self.load_at(t):
                arrivals[accepted] = t
                accepted += 1
        return arrivals


class HotspotScenario(PoissonScenario):
    """Migrating hotspot: in each ``dwell`` epoch a rotating set of
    ``leaves`` leaves absorbs fraction ``bias`` of all traffic, so load
    concentrates on a few racks and then moves on — the failure mode
    that defeats static weighting."""

    kind = "hotspot"
    PARAMS = {
        "leaves": (_parse_int, 1, _within(1, closed=True)),
        "dwell": (_parse_time, 0.2, _within(0)),
        "bias": (_num, 0.9, _within(0, 1)),
        "sizes": _SIZES,
        "load": _LOAD,
        "flows": _FLOWS,
    }

    def hot_leaves(self, epoch: int, n_leaves: int) -> list[int]:
        """Leaf indices that are hot during ``epoch`` (rotates each dwell)."""
        width = min(self.leaves, n_leaves)
        return [(epoch + i) % n_leaves for i in range(width)]

    def _pairs(self, net, rng, arrivals):
        hosts = [h.name for h in net.host_list()]
        leaf_of = net.leaf_of
        leaf_names = [leaf.name for leaf in net.leaves]
        hosts_by_leaf = {
            name: [h for h in hosts if leaf_of[h] == name]
            for name in leaf_names
        }
        pairs = []
        for arrival in arrivals:
            epoch = int(arrival // self.dwell)
            hot = [leaf_names[j]
                   for j in self.hot_leaves(epoch, len(leaf_names))]
            if rng.random() < self.bias:
                pool = [h for name in hot for h in hosts_by_leaf[name]]
                dst = pool[int(rng.integers(len(pool)))]
            else:
                dst = hosts[int(rng.integers(len(hosts)))]
            src = hosts[int(rng.integers(len(hosts)))]
            while leaf_of[src] == leaf_of[dst]:
                src = hosts[int(rng.integers(len(hosts)))]
            pairs.append((src, dst))
        return pairs


class MixScenario(Scenario):
    """Weighted multi-tenant mix: ``mix:tenantA@0.7+incast@0.3`` splits
    the flow budget across component scenarios by weight.  Components
    draw from index-tagged RNG streams and receive *disjoint* flow-id
    ranges (allocated sequentially from each component's actual flow
    count), so the composed install can never collide ids."""

    kind = "mix"

    def __init__(self, components: list[tuple[str, float, Scenario]]):
        if not components:
            raise ConfigError("mix needs at least one component")
        total = sum(w for _, w, _ in components)
        if total <= 0:
            raise ConfigError("mix weights must sum to a positive value")
        for name, w, sc in components:
            if w <= 0:
                raise ConfigError(
                    f"mix component {name!r} weight must be > 0, got {w}")
            if isinstance(sc, MixScenario):
                raise ConfigError("mix components cannot be mixes themselves")
        self.components = list(components)

    @classmethod
    def parse(cls, rest: str, spec: str) -> "MixScenario":
        components = []
        for chunk in (c.strip() for c in rest.split("+")):
            if not chunk:
                continue
            name, sep, weight = chunk.partition("@")
            name = name.strip()
            if not sep:
                raise ConfigError(
                    f"workload spec {spec!r}: mix component {chunk!r} must"
                    " be NAME@WEIGHT")
            components.append((name, _num(weight, spec), parse_scenario(name)))
        return cls(components)

    def canonical(self) -> str:
        body = "+".join(f"{sc.canonical()}@{_fmt(w)}"
                        for _, w, sc in self.components)
        return f"mix:{body}"

    def reads_load_axis(self) -> bool:
        return any(sc.reads_load_axis() for _, _, sc in self.components)

    def file_digests(self) -> dict[str, str]:
        out: dict[str, str] = {}
        for _, _, sc in self.components:
            out.update(sc.file_digests())
        return out

    def shares(self, total: int) -> list[int]:
        """Flow budget per component (largest-remainder rounding; every
        component gets at least one flow)."""
        weights = np.asarray([w for _, w, _ in self.components], dtype=float)
        weights /= weights.sum()
        raw = weights * total
        counts = np.maximum(np.floor(raw).astype(int), 1)
        order = np.argsort(-(raw - np.floor(raw)))
        for idx in order:
            if counts.sum() >= total:
                break
            counts[idx] += 1
        return counts.tolist()

    def generate(self, net, config=None, *, base_id=0, n_flows=None,
                 stream_prefix="workload.scenario"):
        total = n_flows if n_flows is not None else _cfg(config, "n_flows", 200)
        flows: list[Flow] = []
        next_id = base_id
        for i, ((name, _, sc), share) in enumerate(
                zip(self.components, self.shares(total))):
            part = sc.generate(
                net, config, base_id=next_id, n_flows=share,
                stream_prefix=f"{stream_prefix}.mix{i}.{sc.kind}")
            next_id += len(part)
            flows.extend(part)
        # Interleave by arrival so install order matches wall-clock order
        # (deterministic: ids are unique tie-breakers).
        flows.sort(key=lambda f: (f.start_time, f.id))
        return flows


# --- the registry ----------------------------------------------------------

#: kind -> Scenario subclass
SCENARIO_KINDS: dict[str, Type[Scenario]] = {}

#: one-word presets that expand to full specs (mix components use these)
SCENARIO_ALIASES: dict[str, str] = {
    "websearch": "poisson:sizes=web_search",
    "datamining": "poisson:sizes=data_mining",
    "tenantA": "poisson:sizes=web_search,load=0.3",
    "tenantB": "poisson:sizes=data_mining,load=0.2",
}

#: a runnable example spec per kind (docs and conformance tests; ``cdf``
#: is omitted because it needs an on-disk trace file)
EXAMPLE_SPECS: dict[str, str] = {
    "poisson": "poisson:load=0.4",
    "zipf": "zipf:s=1.2",
    "incast": "incast:fanin=8,period=10ms",
    "diurnal": "diurnal:peak=0.8,trough=0.2,period=500ms",
    "hotspot": "hotspot:leaves=1,dwell=200ms",
    "mix": "mix:tenantA@0.7+incast@0.3",
}


#: spec string -> canonical form, for specs that read no files (a pure
#: function of the string while the registry stands); cleared when full
_CANONICAL_MEMO: dict[str, str] = {}
_CANONICAL_MEMO_MAX = 4096


def register_scenario(kind: str, cls: Type[Scenario]) -> None:
    """Register a scenario class under ``kind`` (overwrites silently so
    tests can stub kinds, like :func:`repro.lb.registry.register_scheme`)."""
    SCENARIO_KINDS[kind] = cls
    _CANONICAL_MEMO.clear()


for _cls in (PoissonScenario, EmpiricalCdfScenario, ZipfScenario,
             IncastScenario, DiurnalScenario, HotspotScenario, MixScenario):
    register_scenario(_cls.kind, _cls)


def available_scenarios() -> list[str]:
    """Sorted spec kinds plus aliases."""
    return sorted(SCENARIO_KINDS) + sorted(SCENARIO_ALIASES)


def parse_scenario(spec: str) -> Scenario:
    """Parse one workload spec (see the module docstring's grammar)."""
    text = (spec or "").strip()
    if not text:
        raise ConfigError("empty workload spec")
    text = SCENARIO_ALIASES.get(text, text)
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    if kind not in SCENARIO_KINDS:
        raise ConfigError(
            f"unknown workload scenario {kind!r} in {spec!r};"
            f" known: {', '.join(available_scenarios())}")
    return SCENARIO_KINDS[kind].parse(rest, spec)


def canonical_workload(spec: str) -> str:
    """The cache-key rendering of a workload axis value.

    Legacy values (``static`` / ``poisson``) pass through unchanged;
    scenario specs canonicalise (so an alias and its expansion, or two
    param orderings, share one cache cell) and append the content
    fingerprints of any files read, so editing a trace file invalidates
    exactly the cells that used it.  A grid repeats one spec in every
    cell, so a file-free spec is parsed once per process; a spec that
    reads files is re-parsed (and its files re-digested) on every call.
    """
    if spec in LEGACY_WORKLOADS:
        return spec
    canonical = _CANONICAL_MEMO.get(spec)
    if canonical is not None:
        return canonical
    scenario = parse_scenario(spec)
    canonical = scenario.canonical()
    digests = scenario.file_digests()
    if digests:
        tagged = ",".join(f"{path}={digest}"
                          for path, digest in sorted(digests.items()))
        return canonical + f"#files[{tagged}]"
    if len(_CANONICAL_MEMO) >= _CANONICAL_MEMO_MAX:
        _CANONICAL_MEMO.clear()
    _CANONICAL_MEMO[spec] = canonical
    return canonical


# --- empirical CDF files ---------------------------------------------------

def load_cdf_file(path: str | Path) -> tuple[list[tuple[float, float]], str]:
    """Read an empirical CDF trace: ``size_bytes,cdf`` rows (comma or
    whitespace separated, ``#`` comments and blank lines ignored).

    Returns the knot list and a short content digest.  Raises
    :class:`ConfigError` with the offending line on malformed rows, and
    re-validates through :class:`PiecewiseCdf` so the knots obey the
    same monotonicity rules as the built-in distributions.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read CDF file {path}: {exc}") from None
    digest = hashlib.sha256(raw).hexdigest()[:16]
    points: list[tuple[float, float]] = []
    for lineno, line in enumerate(raw.decode("utf-8").splitlines(), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        parts = text.replace(",", " ").split()
        if len(parts) != 2:
            raise ConfigError(
                f"{path}:{lineno}: expected 'size_bytes,cdf', got {line!r}")
        try:
            points.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise ConfigError(
                f"{path}:{lineno}: bad number in {line!r}") from None
    if len(points) < 2:
        raise ConfigError(f"{path}: need at least two CDF knots")
    try:
        PiecewiseCdf(points, name="probe")
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return points, digest
