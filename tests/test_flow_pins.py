"""Byte pins for the workload layer: spec → deterministic flow list.

Every scheme compared at one seed must be handed *the same* flows, so
the contract of :mod:`repro.workload` is "spec → flow list → install".
Each cell below builds a fabric, installs one workload and reduces what
was installed to a sha256 over ``(id, src, dst, size, start_time,
deadline)`` in install order; scenario specs are hashed twice per seed
(parameters supplied by a :class:`ScenarioConfig`, then the
``config=None`` defaults) and their cache-key rendering
(``canonical_workload``) is pinned beside them.  A refactor of the
workload layer that keeps every pin green has provably not moved a
flow or split/merged a cache cell.

The expected values were recorded at commit c0af862 (PR 16), before the
two generations of ``repro.workload`` were folded onto one installer.
Re-record them (``python tests/test_flow_pins.py``) only for an
intentional workload change, and say so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import tempfile
from functools import partial
from pathlib import Path

import pytest

from repro.experiments.common import ScenarioConfig
from repro.net.topology import LeafSpineConfig, build_leaf_spine
from repro.transport.flow import FlowRegistry
from repro.units import MB
from repro.workload import (
    IncastWorkload,
    PoissonWorkload,
    StaticWorkload,
    TraceWorkload,
    canonical_workload,
    parse_scenario,
    read_trace,
    write_trace,
)
from repro.workload.distributions import WEB_SEARCH
from repro.workload.scenarios import EXAMPLE_SPECS

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 7)

#: every EXAMPLE_SPECS kind, the file-backed kind, an alias, a second
#: parameterisation of the kinds with their own pair/arrival process,
#: and a mix that nests four of them
SPECS = sorted(EXAMPLE_SPECS.values()) + [
    f"cdf:file={ROOT}/examples/traces/websearch_cdf.csv",
    "websearch",
    "zipf:s=0.8,load=0.7,sizes=data_mining,flows=90",
    "hotspot:leaves=2,dwell=5ms,bias=0.6,load=0.3",
    "diurnal:peak=1.2,trough=0.4,period=20ms,sizes=data_mining",
    "incast:fanin=20,period=2ms,size=8KB,requests=3,jitter=250us",
    "mix:zipf@0.4+hotspot@0.3+diurnal@0.2+incast:fanin=4@0.1",
]


def _fabric(seed: int):
    return build_leaf_spine(LeafSpineConfig(
        n_leaves=4, n_spines=4, hosts_per_leaf=8, seed=seed))


def _digest(*flow_lists) -> str:
    digest = hashlib.sha256()
    for flows in flow_lists:
        for f in flows:
            digest.update(repr((f.id, f.src, f.dst, f.size, f.start_time,
                                f.deadline)).encode())
    return digest.hexdigest()


def _portable(text: str) -> str:
    """Strip the checkout's location so a pin holds anywhere."""
    return text.replace(f"{ROOT}/", "")


def spec_digest(spec: str, seed: int) -> str:
    """One spec at one seed: parameters from a config, then defaults."""
    config = ScenarioConfig(
        workload=spec, n_leaves=4, n_paths=4, hosts_per_leaf=8, n_flows=60,
        load=0.6, sizes="data_mining", truncate_tail=MB(1),
        deadline_lo=2e-3, deadline_hi=9e-3, seed=seed)
    scenario = parse_scenario(spec)
    configured = scenario.install(
        build_leaf_spine(config.fabric_config()), FlowRegistry(), config)
    default = scenario.install(_fabric(seed), FlowRegistry())
    return _digest(configured.flows, default.flows)


def _static(seed):
    return StaticWorkload(_fabric(seed), FlowRegistry(), n_short=20,
                          n_long=2, flow_id_base=100).install().flows


def _static_distinct(seed):
    return StaticWorkload(_fabric(seed), FlowRegistry(), n_short=5,
                          n_long=2, distinct_hosts=True).install().flows


def _poisson(seed):
    return PoissonWorkload(_fabric(seed), FlowRegistry(), sizes=WEB_SEARCH,
                           load=0.5, n_flows=80,
                           flow_id_base=7).install().flows


def _incast(seed):
    return IncastWorkload(_fabric(seed), FlowRegistry(), n_requests=4,
                          fanout=6, deadline=0.02).install().flows


def _trace_round_trip(seed):
    with tempfile.TemporaryDirectory() as tmp:
        path = write_trace(Path(tmp) / "t.csv", _static(seed))
        return TraceWorkload(_fabric(seed), FlowRegistry(),
                             read_trace(path)).install().flows


#: the generation-1 classes, called the way examples and tests call them
DIRECT = {
    "StaticWorkload": _static,
    "StaticWorkload+distinct_hosts": _static_distinct,
    "PoissonWorkload": _poisson,
    "IncastWorkload": _incast,
    "TraceWorkload": _trace_round_trip,
}


def direct_digest(name: str, seed: int) -> str:
    return _digest(DIRECT[name](seed))


def _cells() -> dict:
    """``(label, seed) -> zero-argument digest function``."""
    cells = {(_portable(spec), seed): partial(spec_digest, spec, seed)
             for spec in SPECS for seed in SEEDS}
    cells.update({(name, seed): partial(direct_digest, name, seed)
                  for name in DIRECT for seed in SEEDS})
    return cells


PINS = {
    ('IncastWorkload', 1):
        "5642b5c34125ab33b3847e9870b0d21a8b9978b805eb3cecd27dabeafb555762",
    ('IncastWorkload', 7):
        "86ae450f39e46435edc73d16343869e8c09d2e795c732492970fa3960a956797",
    ('PoissonWorkload', 1):
        "ea27ecd4e07e3a3c968db06d78778877c3df358cdf6a0fca83225f9088009f8b",
    ('PoissonWorkload', 7):
        "1e11b7e4e1c2e2ea07a6b4ff8e4ed708ba152c80fee504ab7c0d29628fb6c608",
    ('StaticWorkload', 1):
        "53ad4e3e88f3900d9382fcc7d1ad232b3f337234c8ef35b63bd4c9a0ed5fd0e3",
    ('StaticWorkload', 7):
        "f94b240214552121da3fc0ae23d36c3140897f97d8481ef03a30cb2e0133585b",
    ('StaticWorkload+distinct_hosts', 1):
        "89ad22a78eb0a1578c93c8c3a51b91f13dd5c83553d893077fbfe1191cffa447",
    ('StaticWorkload+distinct_hosts', 7):
        "94917f888dd6532fd8b69c73e99c49f2d41d46850590be24a8616ba01b2c240a",
    ('TraceWorkload', 1):
        "53ad4e3e88f3900d9382fcc7d1ad232b3f337234c8ef35b63bd4c9a0ed5fd0e3",
    ('TraceWorkload', 7):
        "f94b240214552121da3fc0ae23d36c3140897f97d8481ef03a30cb2e0133585b",
    ('cdf:file=examples/traces/websearch_cdf.csv', 1):
        "5645e85670adbab3649c36e4795b6eda33cb47fc358ffe59a0ac80ed9c0cd898",
    ('cdf:file=examples/traces/websearch_cdf.csv', 7):
        "f32ea62b1745307f0714746cc5903f3280353211d8c919a0634b95ed379bbed2",
    ('diurnal:peak=0.8,trough=0.2,period=500ms', 1):
        "eebaa8d402294f43294bb7cbf51d098a1915669b154aa39bae8a115849a835d5",
    ('diurnal:peak=0.8,trough=0.2,period=500ms', 7):
        "e3662be5371efd83c5d1da961315f0a6b95584a8cbc257cf4bb72ddaa2954a8e",
    ('diurnal:peak=1.2,trough=0.4,period=20ms,sizes=data_mining', 1):
        "c9ddbb9995d93b9b574d65afd664e6cf71fd1e0246ca036544ff183fd6db402a",
    ('diurnal:peak=1.2,trough=0.4,period=20ms,sizes=data_mining', 7):
        "8eed427c53b1d1dda10926119cac2eb296248f26b4bd816d2161c925621ebc6d",
    ('hotspot:leaves=1,dwell=200ms', 1):
        "50379a2c8f56eb62fcd79b7bd7e52bbd2471312ec562e57116d2ab42f02d1b58",
    ('hotspot:leaves=1,dwell=200ms', 7):
        "5f9fddaec75317ced224e43446d18ad05ddfe8af8c8531bb18d5caf901212d51",
    ('hotspot:leaves=2,dwell=5ms,bias=0.6,load=0.3', 1):
        "c67781300f88b1bc551cb4e92f50c64bc20fdf0573878583b1e8e29537c48bf5",
    ('hotspot:leaves=2,dwell=5ms,bias=0.6,load=0.3', 7):
        "a7d61ce3ace1a0b6ac4aa639fbe24798c2a03d4a72b844e554b485d6ab6a67ff",
    ('incast:fanin=20,period=2ms,size=8KB,requests=3,jitter=250us', 1):
        "1fca77ff4087a153035526e08fb8a9f790f9904713995fe4f676031f0dce86c4",
    ('incast:fanin=20,period=2ms,size=8KB,requests=3,jitter=250us', 7):
        "94ecf4e1796ca0252bc005a42a6207d1d8eec2a8917d606d843ae0f080c8581e",
    ('incast:fanin=8,period=10ms', 1):
        "79721d1830d3014697d1bff881b6a4765e851d7f31354b5c1cf96924ea0af3c8",
    ('incast:fanin=8,period=10ms', 7):
        "103f0dbe26128f3297755c000247eee50668c98256e65f5f3d97f867a2846aec",
    ('mix:tenantA@0.7+incast@0.3', 1):
        "15168a4feaefa9e53432627c7679215f6086985ca0465c5d72df8e2c538dc44a",
    ('mix:tenantA@0.7+incast@0.3', 7):
        "a356a96dcfb345961f37eb56982b2cac0ed5adcbb307c1d9036eec5970e7ed29",
    ('mix:zipf@0.4+hotspot@0.3+diurnal@0.2+incast:fanin=4@0.1', 1):
        "b7b66450b942ea124f36a0f84447c88e452852680adaec9d0201352edf28c57a",
    ('mix:zipf@0.4+hotspot@0.3+diurnal@0.2+incast:fanin=4@0.1', 7):
        "435e6b3f4b4bd9cd03f1c22979ff344fdcdc4f6f3f3ca7fc4b5dce00bd19ef12",
    ('poisson:load=0.4', 1):
        "5a2f3341a1a5cbedc668bb6aecd152b3f3a760c703cc0cabc6865a33a83e8afb",
    ('poisson:load=0.4', 7):
        "a9922c14930055e3f2b4dcf1dea9962b0054502e29594607c46ae9c3881a0b66",
    ('websearch', 1):
        "5645e85670adbab3649c36e4795b6eda33cb47fc358ffe59a0ac80ed9c0cd898",
    ('websearch', 7):
        "f32ea62b1745307f0714746cc5903f3280353211d8c919a0634b95ed379bbed2",
    ('zipf:s=0.8,load=0.7,sizes=data_mining,flows=90', 1):
        "8373353f2537682f008788a3d275479e0304319265a9e1f1fc5244c7bebc4fcd",
    ('zipf:s=0.8,load=0.7,sizes=data_mining,flows=90', 7):
        "bf323c951ccc3e431a795757af7d0af80e596ed5a39089c269d096ce5c5e356a",
    ('zipf:s=1.2', 1):
        "4e196711503d9b43638ad71521ff1745ada63667c7c55721259e019cc0587fe6",
    ('zipf:s=1.2', 7):
        "a1f9717d0121823505346c7bca7d79ce47a4ab98234ed1501a6531937371b011",
}

CANONICAL = {
    'diurnal:peak=0.8,trough=0.2,period=500ms':
        'diurnal:peak=0.8,period=0.5,trough=0.2',
    'hotspot:leaves=1,dwell=200ms':
        'hotspot:bias=0.9,dwell=0.2,leaves=1',
    'incast:fanin=8,period=10ms':
        'incast:fanin=8,jitter=0.0005,period=0.01,size=32000',
    'mix:tenantA@0.7+incast@0.3':
        'mix:poisson:load=0.3,sizes=web_search@0.7+incast:fanin=16,jitter=0.0005,period=0.01,size=32000@0.3',
    'poisson:load=0.4':
        'poisson:load=0.4',
    'zipf:s=1.2':
        'zipf:s=1.2',
    'cdf:file=examples/traces/websearch_cdf.csv':
        'cdf:file=examples/traces/websearch_cdf.csv#files[examples/traces/websearch_cdf.csv=1b3acde03fd033d1]',
    'websearch':
        'poisson:sizes=web_search',
    'zipf:s=0.8,load=0.7,sizes=data_mining,flows=90':
        'zipf:flows=90,load=0.7,s=0.8,sizes=data_mining',
    'hotspot:leaves=2,dwell=5ms,bias=0.6,load=0.3':
        'hotspot:bias=0.6,dwell=0.005,leaves=2,load=0.3',
    'diurnal:peak=1.2,trough=0.4,period=20ms,sizes=data_mining':
        'diurnal:peak=1.2,period=0.02,sizes=data_mining,trough=0.4',
    'incast:fanin=20,period=2ms,size=8KB,requests=3,jitter=250us':
        'incast:fanin=20,jitter=0.00025,period=0.002,requests=3,size=8000',
    'mix:zipf@0.4+hotspot@0.3+diurnal@0.2+incast:fanin=4@0.1':
        'mix:zipf:s=1.2@0.4+hotspot:bias=0.9,dwell=0.2,leaves=1@0.3+diurnal:peak=0.8,period=1,trough=0.2@0.2+incast:fanin=4,jitter=0.0005,period=0.01,size=32000@0.1',
}


@pytest.mark.parametrize("cell", sorted(PINS), ids=lambda c: f"{c[0]}@{c[1]}")
def test_flow_list_is_byte_identical(cell):
    assert _cells()[cell]() == PINS[cell]


@pytest.mark.parametrize("spec", SPECS, ids=_portable)
def test_canonical_form_is_byte_identical(spec):
    assert _portable(canonical_workload(spec)) == CANONICAL[_portable(spec)]


def test_every_cell_is_pinned():
    assert set(_cells()) == set(PINS)
    assert {_portable(spec) for spec in SPECS} == set(CANONICAL)


if __name__ == "__main__":  # re-record: prints the two tables
    print("PINS = {")
    for cell, digest in sorted(_cells().items()):
        print(f"    {cell!r}:\n        \"{digest()}\",")
    print("}\n\nCANONICAL = {")
    for spec in SPECS:
        print(f"    {_portable(spec)!r}:\n"
              f"        {_portable(canonical_workload(spec))!r},")
    print("}")
