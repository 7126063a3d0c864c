"""Run assembly: node positions from the vehicle world, braking to beacons, and
the routing protocols' periodic timers."""

import pytest

from conftest import StaticNetwork, line_positions
from vanetbench import mobility
from vanetbench.core import _Every
from vanetbench.scenario import ScenarioConfig
from vanetbench.simulation import Simulation


def small_cfg(vehicles=6, duration=10.0):
    cfg = ScenarioConfig()
    cfg.graph.grid = (2, 2, 100.0)       # short trips: vehicles arrive and park
    cfg.run.vehicles = vehicles
    cfg.run.duration = duration
    cfg.traffic.cbr_connections = 0
    return cfg


def assert_rows_are_positions(sim):
    for vid, st in sim.world.vehicles.items():
        assert tuple(sim.coords[vid]) == sim.world.position(st)


def test_coords_row_is_the_vehicle_position_after_every_mobility_tick():
    sim = Simulation(small_cfg())
    assert_rows_are_positions(sim)
    ticks, parked = [], []
    bump = sim.channel.bump_geometry

    def check_then_bump():
        assert_rows_are_positions(sim)
        for vid, st in sim.world.vehicles.items():
            if not st.driving:
                v = sim.graph.vertices[st.trip.origin]
                assert tuple(sim.coords[vid]) == (v.x, v.y)
                parked.append(vid)
        ticks.append(sim.sim.now)
        bump()

    sim.channel.bump_geometry = check_then_bump
    sim.run()
    assert len(ticks) == 100
    assert parked                        # parked vehicles were checked too


def test_brake_callback_reaches_only_the_braking_vehicles_agent_once_per_window():
    sim = Simulation(small_cfg(vehicles=3))
    sent = {vid: [] for vid in sim.nodes}
    for vid, node in sim.nodes.items():
        node.mac.enqueue_packet = lambda pkt, dest, vid=vid: sent[vid].append(pkt.kind)
    traffic = sim.cfg.traffic
    window = traffic.emergency_rate_limit
    for t in (0.0, 0.5 * window, window, 1.5 * window):
        sim.world.on_brake(1, -traffic.emergency_decel, t)
    sim.world.on_brake(2, -0.9 * traffic.emergency_decel, 0.0)   # below the threshold
    assert sent == {0: [], 1: ["pbc", "pbc"], 2: []}


@pytest.mark.parametrize("protocol, timers", [
    ("olsr", {"_hello_tick": "olsr_hello_interval", "_tc_tick": "olsr_tc_interval"}),
    ("dsdv", {"_full_dump": "dsdv_full_dump_interval"})])
def test_routing_timers_fire_at_exactly_their_first_time_plus_k_intervals(protocol, timers):
    # 0.3 s and 0.7 s have no exact binary form, so over hundreds of firings a
    # timer that adds its interval to its last firing drifts off this grid
    cfg = ScenarioConfig()
    cfg.routing.protocol = protocol
    cfg.routing.olsr_hello_interval = cfg.routing.dsdv_full_dump_interval = 0.3
    cfg.routing.olsr_tc_interval = 0.7
    net = StaticNetwork(line_positions(3), cfg)
    fired = {}
    for node in net.nodes.values():
        for name in timers:
            def logged(tick=getattr(node, name), times=fired.setdefault((node, name), [])):
                times.append(net.sim.now)
                tick()
            setattr(node, name, logged)
    net.start_protocols()
    net.run_for(150.0)
    for (node, name), times in fired.items():
        interval = getattr(cfg.routing, timers[name])
        assert times == [times[0] + k * interval for k in range(len(times))]
        assert times[-1] <= 150.0 < times[-1] + interval


@pytest.mark.parametrize("protocol, rate", [("olsr", 4.0), ("dsdv", 3.0)])
def test_every_periodic_source_fires_at_exactly_first_plus_k_periods(protocol, rate):
    # 1 / 3 has no exact binary form: k * (1 / 3) and k / 3 differ at some k,
    # so at rate 3 only the source's own (first, period) gives its grid
    cfg = small_cfg(duration=5.0)
    cfg.routing.protocol = protocol
    cfg.routing.olsr_hello_interval = cfg.routing.dsdv_full_dump_interval = 0.3
    cfg.routing.olsr_tc_interval = 0.7
    cfg.traffic.cbr_connections = 3
    cfg.traffic.rate = rate
    sim = Simulation(cfg)
    queued = {}
    schedule = sim.sim.schedule

    def logged(at, action, target=""):
        if isinstance(action, _Every):
            queued.setdefault(action, []).append(at)
        return schedule(at, action, target)

    sim.sim.schedule = logged
    sim.run()
    grids = {}
    for src, times in queued.items():
        assert times == [src.first + k * src.period for k in range(len(times))]
        grids.setdefault(src.target, set()).add((src.first, src.period))
    r = cfg.routing
    timers = {"olsr": {"olsr.hello": r.olsr_hello_interval, "olsr.tc": r.olsr_tc_interval},
              "dsdv": {"dsdv.dump": r.dsdv_full_dump_interval}}[protocol]
    assert grids.pop("world.step") == {(0.0, cfg.mobility.integration_dt)}
    assert grids.pop("cbr.emit") == {(f.start, 1.0 / rate) for f in sim.flows}
    assert grids.pop("pbc.tick") == {(a.phase, cfg.traffic.beacon_interval)
                                     for a in sim.pbc_agents}
    assert {target: {period for _, period in grid} for target, grid in grids.items()} \
        == {target: {period} for target, period in timers.items()}


def test_the_lights_and_brakes_read_the_simulators_time_at_every_mobility_step(monkeypatch):
    # 1 s signal phases switch at every whole second; a clock of the world's own
    # that adds dt per step read 9.99999999999998 at t = 10, a step before a switch
    cfg = ScenarioConfig()
    cfg.run.vehicles = 10
    cfg.run.duration = 30.0
    cfg.traffic.cbr_connections = 0
    cfg.graph.phase_length = 1.0
    sim = Simulation(cfg)
    read = []
    constraint, on_brake = mobility.intersection_constraint, sim.world.on_brake

    def lights(vehicle, graph, lights, t, p):
        read.append((t, sim.sim.now))
        return constraint(vehicle, graph, lights, t, p)

    def brakes(vid, accel, t):
        read.append((t, sim.sim.now))
        on_brake(vid, accel, t)

    monkeypatch.setattr(mobility, "intersection_constraint", lights)
    sim.world.on_brake = brakes
    sim.run()
    assert {now for _, now in read} == {k * cfg.mobility.integration_dt for k in range(300)}
    assert all(t == now for t, now in read)         # bit for bit
