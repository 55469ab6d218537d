"""Partition–aggregate requests of the ``incast:`` scenario kind.

Request ``r`` owns flow ids ``[base + r·fanin, base + (r+1)·fanin)`` and
starts at ``r·period``; a caller derives request completion times (RCT,
gated by the slowest response) from that layout alone, as
``examples/incast_oldi.py`` does.
"""

import math

import pytest

from repro.errors import ConfigError
from repro.experiments.common import ScenarioConfig
from repro.lb import attach_scheme
from repro.net.topology import build_two_leaf_fabric
from repro.transport.flow import FlowRegistry
from repro.workload.scenarios import parse_scenario


def fabric(**kw):
    base = dict(n_paths=4, hosts_per_leaf=10)
    base.update(kw)
    return build_two_leaf_fabric(**base)


def requests(spec, flows, base_id=0):
    """``(epoch, flows)`` per request, by the id layout alone."""
    sc = parse_scenario(spec)
    by_request = {}
    for f in flows:
        by_request.setdefault((f.id - base_id) // sc.fanin, []).append(f)
    return [(r * sc.period, by_request[r]) for r in sorted(by_request)]


def completion_times(spec, flows, registry):
    """Last response landed − request epoch; NaN while one is missing."""
    out = []
    for epoch, group in requests(spec, flows):
        done = [registry.stats(f.id).completed for f in group]
        out.append(math.nan if None in done else max(done) - epoch)
    return out


def test_request_structure():
    spec = "incast:fanin=5,requests=3,size=10KB"
    reg = FlowRegistry()
    res = parse_scenario(spec).install(fabric(), reg)
    assert res.n_flows == 15
    groups = requests(spec, res.flows)
    assert len(groups) == 3
    for _, group in groups:
        assert len(group) == 5
        # every response converges on the request's aggregator, from
        # distinct workers
        assert len({f.dst for f in group}) == 1
        assert len({f.src for f in group}) == 5


def test_responses_start_within_jitter():
    spec = "incast:fanin=3,requests=4,jitter=500us"
    flows = parse_scenario(spec).generate(fabric())
    for epoch, group in requests(spec, flows):
        for f in group:
            assert epoch <= f.start_time <= epoch + 0.0005


def test_completion_times_after_run():
    spec = "incast:fanin=6,requests=4,size=20KB,period=5ms"
    net = fabric()
    attach_scheme(net, "tlb")
    reg = FlowRegistry()
    flows = parse_scenario(spec).install(net, reg).flows
    net.sim.run(until=1.0)
    rct = completion_times(spec, flows, reg)
    assert len(rct) == 4
    assert all(0 < t < math.inf for t in rct)
    # a request can't finish faster than its slowest flow's FCT
    for t, (_, group) in zip(rct, requests(spec, flows)):
        assert t >= max(reg.stats(f.id).fct for f in group) - 1e-12


def test_unfinished_request_is_nan():
    spec = "incast:fanin=3,requests=2"
    net = fabric()
    attach_scheme(net, "ecmp")
    reg = FlowRegistry()
    flows = parse_scenario(spec).install(net, reg).flows
    net.sim.run(until=1e-5)  # far too short to finish
    assert all(math.isnan(t) for t in completion_times(spec, flows, reg))


def test_deadline_attached_to_responses():
    config = ScenarioConfig(deadline_lo=0.01, deadline_hi=0.01)
    reg = FlowRegistry()
    parse_scenario("incast:fanin=2,requests=1").install(fabric(), reg, config)
    for f in reg:
        assert f.deadline == 0.01


def test_validation():
    for spec in ("incast:requests=0", "incast:fanin=0", "incast:size=0",
                 "incast:period=0"):
        with pytest.raises(ConfigError):
            parse_scenario(spec)
    with pytest.raises(ConfigError, match="exceeds"):
        # more than the other leaf's workers
        parse_scenario("incast:fanin=99,requests=1").generate(fabric())


def test_reproducible_per_seed():
    def snapshot():
        flows = parse_scenario("incast:fanin=4,requests=3").generate(
            fabric(seed=11))
        return [(f.src, f.dst, f.start_time) for f in flows]

    assert snapshot() == snapshot()
