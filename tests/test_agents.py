"""CBR flows and the periodic safety-beacon broadcaster."""

import math

import pytest

from vanetbench.core import RngStreams
from vanetbench.scenario import ScenarioConfig
from vanetbench.simulation import Simulation
from vanetbench.agents import setup_flows


def small_sim(vehicles=4, duration=4.0, flows=0, seed=1, **kw):
    cfg = ScenarioConfig()
    cfg.graph.grid = (2, 2, 200.0)
    cfg.run.vehicles = vehicles
    cfg.run.duration = duration
    cfg.run.seed = seed
    cfg.traffic.cbr_connections = flows
    for key, value in kw.items():
        section, name = key.split("__")
        setattr(getattr(cfg, section), name, value)
    return cfg


# -- setup_flows ----------------------------------------------------------------

def test_setup_flows_distinct_pairs():
    rng = RngStreams(5).stream("traffic")
    flows = setup_flows(rng, 40, range(100), stop=100.0)
    pairs = {(f.src, f.dst) for f in flows}
    assert len(flows) == 40
    assert len(pairs) == 40
    assert all(f.src != f.dst for f in flows)
    assert all(0.0 <= f.start <= 0.25 for f in flows)


def test_setup_flows_zero_flows_runs_beacons_only():
    cfg = small_sim(vehicles=3, duration=2.0, flows=0)
    res = Simulation(cfg).run()
    assert res.aggregator.sent("cbr") == 0
    assert res.aggregator.sent("pbc") > 0


def test_setup_flows_too_many_pairs_rejected():
    rng = RngStreams(5).stream("traffic")
    with pytest.raises(ValueError):
        setup_flows(rng, 3, range(2))


def test_setup_flows_exhaustive_pair_coverage():
    rng = RngStreams(5).stream("traffic")
    flows = setup_flows(rng, 6, range(3))
    assert {(f.src, f.dst) for f in flows} == \
        {(a, b) for a in range(3) for b in range(3) if a != b}


# -- cbr emission -----------------------------------------------------------------

def test_cbr_emission_count_and_grid():
    cfg = small_sim(vehicles=4, duration=10.0, flows=2)
    res = Simulation(cfg).run()
    agg = res.aggregator
    # rate 4/s with jittered start inside (0, 0.25]: 40 packets per flow
    assert agg.sent("cbr") == 2 * 40
    per_flow = {}
    for pid, (t, flow, node, size) in agg.sent_meta.items():
        per_flow.setdefault(flow, []).append(t)
    for times in per_flow.values():
        times.sort()
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(g == pytest.approx(0.25, abs=1e-12) for g in gaps)


def test_cbr_stop_equals_start_emits_exactly_one():
    from vanetbench.agents import CbrFlow, start_cbr
    from vanetbench.core import Simulator
    sent = []

    class StubNode:
        node_id = 0

        class cfg:
            ttl = 64

        @staticmethod
        def originate(p):
            sent.append(p)

        @staticmethod
        def new_packet_id():
            return len(sent)

    sim = Simulator()
    start_cbr(sim, StubNode, CbrFlow(0, 0, 1, 512, 4.0, 2.0, 2.0))
    sim.run_until(10.0)
    assert len(sent) == 1


# -- pbc beacons --------------------------------------------------------------------

def test_beacon_count_matches_interval_grid():
    cfg = small_sim(vehicles=3, duration=2.0)
    res = Simulation(cfg).run()
    # one beacon per vehicle per 0.1 s: 20 each over 2 s
    assert res.aggregator.sent("pbc") == 3 * 20


def test_beacons_never_routed_or_forwarded():
    cfg = small_sim(vehicles=4, duration=3.0, flows=2)
    res = Simulation(cfg).run()
    assert res.aggregator.forwards("pbc") == 0
    assert res.aggregator.count(layer="routing", kind="pbc") == 0


def test_isolated_vehicle_sends_but_nobody_receives():
    cfg = small_sim(vehicles=1, duration=2.0)
    res = Simulation(cfg).run()
    assert res.aggregator.sent("pbc") == 20
    assert res.aggregator.received("pbc") == 0


def test_emergency_beacon_fires_once_per_rate_window():
    from vanetbench.agents import PbcAgent
    from vanetbench.core import Simulator
    from vanetbench.scenario import TrafficConfig

    emitted = []

    class StubNode:
        node_id = 0

        @staticmethod
        def new_packet_id():
            return len(emitted)

        @staticmethod
        def record(*a):
            pass

        class mac:
            @staticmethod
            def enqueue_packet(pkt, dest):
                emitted.append(pkt)

    sim = Simulator()
    agent = PbcAgent(sim, StubNode, TrafficConfig(), duration=0.0, phase=0.0)
    # sustained hard braking for 3 seconds at 10 Hz checks
    t = 0.0
    while t < 3.0:
        sim.run_until(t)
        agent.on_accel(-2.8, t)
        t += 0.1
    assert len(emitted) == 3                 # rate limit: one per second


def test_steady_cruising_no_emergency_beacons():
    cfg = small_sim(vehicles=2, duration=3.0)
    sim = Simulation(cfg)
    res = sim.run()
    flags = [a._last_emergency for a in sim.pbc_agents]
    assert all(f == -math.inf for f in flags)
