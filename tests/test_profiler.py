"""Tests for the kernel self-profiler (repro.obs.profiler)."""

import pytest

from repro.errors import ConfigError
from repro.experiments.common import ScenarioConfig, run_scenario
from repro.metrics.export import metrics_to_dict
from repro.obs.profiler import EngineProfiler
from repro.sim.engine import Simulator


class _Ping:
    def __init__(self, sim, n):
        self.sim = sim
        self.remaining = n
        self.fired = 0

    def fire(self):
        self.fired += 1
        self.remaining -= 1
        if self.remaining > 0:
            self.sim.call_later(1e-6, self.fire)


class _Pong(_Ping):
    # own def: components are keyed by the handler's __qualname__, and an
    # inherited method would attribute to _Ping.fire
    def fire(self):
        _Ping.fire(self)


def _drive(profiled: bool):
    sim = Simulator()
    prof = None
    if profiled:
        prof = EngineProfiler(sample_every=1).install(sim)
    a, b = _Ping(sim, 40), _Pong(sim, 25)
    sim.call_later(0.0, a.fire)
    sim.call_later(0.0, b.fire)
    sim.run()
    return sim, a, b, prof


def test_profiled_run_matches_unprofiled_semantics():
    plain_sim, pa, pb, _ = _drive(profiled=False)
    prof_sim, qa, qb, _ = _drive(profiled=True)
    assert prof_sim.events_processed == plain_sim.events_processed
    assert prof_sim.now == plain_sim.now
    assert (qa.fired, qb.fired) == (pa.fired, pb.fired)


def test_counts_every_event_by_qualname():
    sim, a, b, prof = _drive(profiled=True)
    assert prof.total_events == sim.events_processed
    assert prof.counts["_Ping.fire"] == 40
    assert prof.counts["_Pong.fire"] == 25
    # sample_every=1 times every event
    assert prof.sampled_events["_Ping.fire"] == 40
    assert sum(prof.sampled_time.values()) > 0.0
    assert prof.runs == 1 and prof.wall_s > 0.0


def test_sampling_cadence_respected():
    sim = Simulator()
    prof = EngineProfiler(sample_every=16).install(sim)
    a = _Ping(sim, 64)
    sim.call_later(0.0, a.fire)
    sim.run()
    assert prof.counts["_Ping.fire"] == 64
    assert prof.sampled_events["_Ping.fire"] == 64 // 16


def test_component_rows_and_report_shape():
    _sim, _a, _b, prof = _drive(profiled=True)
    rows = prof.components()
    assert {r["component"] for r in rows} == {"_Ping.fire", "_Pong.fire"}
    assert sum(r["event_share"] for r in rows) == pytest.approx(1.0)
    assert sum(r["time_share"] for r in rows) == pytest.approx(1.0)
    for r in rows:
        assert r["est_s"] >= 0.0
    assert len(prof.components(top=1)) == 1

    report = prof.report(top=8)
    assert report["events"] == prof.total_events
    assert report["sample_every"] == 1


def test_profiler_resumes_across_run_calls():
    sim = Simulator()
    prof = EngineProfiler(sample_every=1).install(sim)
    a = _Ping(sim, 30)
    sim.call_later(0.0, a.fire)
    sim.run(until=10e-6)
    sim.run()
    assert prof.runs == 2
    assert prof.counts["_Ping.fire"] == 30


def test_invalid_sample_every_rejected():
    with pytest.raises(ConfigError):
        EngineProfiler(sample_every=0)


def test_scenario_profile_extras_and_event_identity():
    base = dict(scheme="tlb", seed=4, n_short=8, n_long=1, n_paths=4,
                hosts_per_leaf=9, horizon=0.15)
    plain = run_scenario(ScenarioConfig(**base))
    prof = run_scenario(ScenarioConfig(**base, profile=True))
    assert prof.profiler is not None
    assert prof.net.sim.events_processed == plain.net.sim.events_processed

    def outcome(metrics):
        return {k: v for k, v in metrics_to_dict(metrics).items()
                if not any(t in k for t in ("wall", "rss", "per_s", "ratio"))}

    assert outcome(prof.metrics) == outcome(plain.metrics)
    report = prof.metrics.extras["profile"]
    assert report["events"] == prof.net.sim.events_processed
    names = [r["component"] for r in report["components"]]
    assert any("Port" in n for n in names)
    assert any("receive" in n for n in names)
    # nested profile dict stays out of flat exports
    assert "extra_profile" not in metrics_to_dict(prof.metrics)
