"""Byte-identical outcome pins: the gate every hot-path PR reuses.

One small seeded :class:`ScenarioConfig` per registered scheme (plus a
faulted, a lossy-incast and a heavy-tailed cell) is run and reduced to a
sha256 over what the simulation *decided*: per-flow ``(id, size, fct,
retransmits, timeouts)``, every port's counters and the final clock.
Wall time, kernel event counts and anything else that describes *how*
the outcome was computed stay out, so a performance change that keeps
every pin green has provably not moved a simulated result.

The expected values were recorded at commit 60707de (PR 11), before any
ROADMAP-2 hot-path edit.  Re-record them (``python
tests/test_outcome_pins.py``) only for an intentional behaviour change,
and say so in CHANGES.md.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import asdict, replace

import pytest

from repro.experiments.common import ScenarioConfig, run_scenario
from repro.lb.registry import available_schemes
from repro.units import MB

#: congested on purpose: 4 paths, 60 short + 3 long flows inside 20 ms
#: gives ECN marks, reroutes and queue build-up on every scheme
_BASE = dict(n_paths=4, hosts_per_leaf=4, n_short=60, n_long=3,
             long_size=MB(2), short_window=0.02, horizon=1.0, seed=7)


def _cells() -> dict[str, ScenarioConfig]:
    cells = {scheme: ScenarioConfig(scheme=scheme, **_BASE)
             for scheme in available_schemes()}
    # a link cut mid-serialisation, parked traffic, and the recovery
    cells["tlb+faults"] = ScenarioConfig(
        scheme="tlb", **_BASE,
        faults="0.004:link_down:leaf0-spine1;0.008:link_up:leaf0-spine1;"
               "0.010:link_down:leaf1-spine2:park;0.016:link_up:leaf1-spine2")
    # drop-tail losses, RTOs and go-back-N
    cells["tlb+incast"] = ScenarioConfig(
        scheme="tlb", workload="incast:fanin=12,period=1ms,size=32KB",
        n_flows=96, n_leaves=4, n_paths=4, hosts_per_leaf=4,
        buffer_packets=32, horizon=2.0, seed=7)
    # Poisson arrivals, heavy tail, ACK-clocked steady state
    cells["letflow+websearch"] = ScenarioConfig(
        scheme="letflow", workload="poisson", sizes="web_search", load=0.6,
        n_flows=80, truncate_tail=MB(1), n_leaves=4, n_paths=4,
        hosts_per_leaf=4, horizon=2.0, seed=7)
    return cells


def outcome_digest(result) -> str:
    """sha256 of the simulated outcome of one finished run."""
    digest = hashlib.sha256()
    for s in result.registry.all_stats():
        digest.update(repr((s.flow.id, s.flow.size, s.fct, s.retransmits,
                            s.timeouts)).encode())
    for name in sorted(result.net.ports):
        port = result.net.ports[name]
        p = port.stats
        digest.update(repr((name, p.enqueued, p.dropped, p.transmitted,
                            p.bytes_enqueued, p.bytes_transmitted,
                            p.ecn_marked, p.busy_time, port.queue_length,
                            port.busy)).encode())
    digest.update(repr(result.net.sim.now).encode())
    return digest.hexdigest()


def tlb_counter_totals(result) -> dict:
    """Every :class:`LbCounters` field summed over the run's balancers
    (``peak_entries`` is a maximum), plus the long-flow reroutes."""
    totals: dict = {}
    for lb in result.balancers.values():
        for key, value in asdict(lb.counters).items():
            if key == "peak_entries":
                totals[key] = max(totals.get(key, 0), value)
            else:
                totals[key] = totals.get(key, 0) + value
    totals["long_reroutes"] = sum(
        lb.long_reroutes for lb in result.balancers.values())
    return totals


PINS = {
    "conga": "459568a3a052a2354fb041a81d76d5af07cd23c32005ecdbbdb24d67151f8b6d",
    "drill": "476c3e0360e24b0664f46456aaf91fb18086705042e6fecb120674f559c9d8b6",
    "ecmp": "b72a4983858aee21b3ef6b1cd672309edf2632c5a2b4a502bc4f3bf859a40108",
    "fixed": "6f88fb603abde1ef6a8bfeac219724c9bf2ccf5df0edd607b76a9191a536eb29",
    "flowbender": "408cb382a40b3568bcf4cfce0613c006fbc61be0701d5032b7e71dae455a5c9b",
    "hermes": "ac8a441ee9fe294faaff5742447992eba9d8995ac0d3da127fbc307fb5806bc7",
    "letflow": "50711b9f04a98b9d3da2d67b630636871200298a479beefab9b952ecdab8629a",
    "letflow+websearch": "a55012b5b64c00860a470f8cf4586b839fb2378f6bdfb8865e31b40f98b39e11",
    "presto": "4eb516919fbdd98c4701544502d7c30e293362be16267945c4f66433aa0a37f2",
    "rps": "70bbf57c0fc6117128fc2c1b183c367d2d7a1476f3c9ef54d89369196724a7e9",
    "tlb": "d10c11208589cf5ced83f9d25668760764239db8e49695cc386d4a73bd327105",
    "tlb+faults": "2e1af419aade5df8bcb144b4eb252837893010ec7d2627939d12ab968df33b56",
    "tlb+incast": "4ba16f08588302fb58170fe3f37631f024ac9b7e859986cf6d0a45e4d875e576",
    "wcmp": "eddfc63d3a709c889e2b4877d56ad6d30cbb8bf7f53eba142e2ce4537728199e",
}

TLB_COUNTERS = {
    "tlb": {"decisions": 14320, "hash_ops": 0, "queue_reads": 45527,
            "state_reads": 14320, "state_writes": 14320, "rng_draws": 0,
            "timer_ticks": 198, "peak_entries": 18, "long_reroutes": 1},
    "tlb+faults": {"decisions": 14507, "hash_ops": 0, "queue_reads": 45175,
                   "state_reads": 14507, "state_writes": 14507, "rng_draws": 0,
                   "timer_ticks": 198, "peak_entries": 33, "long_reroutes": 1},
    "tlb+incast": {"decisions": 4911, "hash_ops": 0, "queue_reads": 19644,
                   "state_reads": 4911, "state_writes": 4911, "rng_draws": 0,
                   "timer_ticks": 316, "peak_entries": 28, "long_reroutes": 0},
}


@functools.lru_cache(maxsize=None)
def _run(cell: str):
    return run_scenario(_cells()[cell])


@pytest.mark.parametrize("cell", sorted(PINS))
def test_outcome_is_byte_identical(cell):
    result = _run(cell)
    assert result.completed_all
    assert outcome_digest(result) == PINS[cell]


def test_every_registered_scheme_is_pinned():
    assert set(_cells()) == set(PINS)


@pytest.mark.parametrize("cell", sorted(TLB_COUNTERS))
def test_tlb_counters_are_unchanged(cell):
    assert tlb_counter_totals(_run(cell)) == TLB_COUNTERS[cell]


#: every kind a port, a switch or a transport endpoint emits
_TRACE_KINDS = ("enqueue", "dequeue", "drop", "mark", "reroute", "retransmit",
                "rto", "ooo")


#: the observers a run can carry; the bare cell id is ``trace_kinds``
_OBSERVERS = ("trace_kinds", "spans", "recorder", "jsonl")


@pytest.mark.parametrize("cell,observer", [
    pytest.param(cell, observer,
                 id=cell if observer == "trace_kinds" else f"{cell}-{observer}")
    for cell in ("rps", "tlb", "tlb+faults", "tlb+incast")
    for observer in _OBSERVERS])
def test_tracing_never_changes_the_outcome(cell, observer, tmp_path):
    """A traced port takes the general path through ``Port.enqueue`` /
    ``_transmit``, an untraced one starts serialisations in place: the
    two must agree byte for byte — through a link cut mid-serialisation,
    parked traffic, drop-tail loss and reordering — whichever observer
    listens."""
    config = _cells()[cell]
    if observer == "trace_kinds":
        result = run_scenario(replace(config, trace_kinds=_TRACE_KINDS))
        assert {"enqueue", "dequeue"} <= set(result.tracer.records) <= set(_TRACE_KINDS)
    elif observer == "spans":
        result = run_scenario(replace(config, spans=True))
    elif observer == "recorder":
        from repro.obs import FlightRecorder

        result = run_scenario(config, recorder=FlightRecorder())
    else:
        from repro.obs import JsonlTracer

        with JsonlTracer(tmp_path / "run.jsonl") as tracer:
            result = run_scenario(config, tracer=tracer)
        assert tracer.records_written > 0
    assert outcome_digest(result) == PINS[cell]


if __name__ == "__main__":  # re-record: prints the two tables
    import time

    for cell, config in sorted(_cells().items()):
        t0 = time.perf_counter()
        result = run_scenario(config)
        wall = time.perf_counter() - t0
        stats = result.registry.all_stats()
        print(f'    "{cell}": "{outcome_digest(result)}",  # {wall:.2f}s '
              f'done={result.completed_all} '
              f'drops={sum(p.stats.dropped for p in result.net.ports.values())} '
              f'marks={sum(p.stats.ecn_marked for p in result.net.ports.values())} '
              f'rtx={sum(s.retransmits for s in stats)} '
              f'rto={sum(s.timeouts for s in stats)}')
    for cell, config in sorted(_cells().items()):
        if config.scheme == "tlb":
            print(f'    "{cell}": {tlb_counter_totals(run_scenario(config))},')
