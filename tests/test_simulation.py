"""Run assembly: node positions from the vehicle world, braking to beacons, and
the routing protocols' periodic timers."""

import pytest

from conftest import StaticNetwork, line_positions
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
