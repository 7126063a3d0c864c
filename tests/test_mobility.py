"""Car following, intersection handling, lane changes and world stepping."""

import math

import pytest

from vanetbench.core import RngStreams
from vanetbench.mobility import (LaneNeighbors, VehicleState, VehicleWorld,
                                 VirtualLeader, idm_acceleration,
                                 intersection_constraint, mobil_decide)
from vanetbench.roadnet import (Edge, RoadGraph, TrafficLight, Trip, Vertex,
                                edge_id)
from vanetbench.scenario import MobilityConfig

P = MobilityConfig()   # reference parameters: a_max 0.6, b 0.9, s0 1, T 0.5


# -- idm_acceleration ---------------------------------------------------------

def test_free_flow_equilibrium_zero_accel():
    assert idm_acceleration(20.0, 20.0, math.inf, 0.0, P) == pytest.approx(0.0)


def test_standing_start_max_accel():
    assert idm_acceleration(0.0, 20.0, math.inf, 0.0, P) == pytest.approx(0.6)


def test_hand_computed_following_case():
    # v=10, v0=20, gap=20, dv=0: s* = 1 + 10*0.5 = 6
    # a = 0.6 * (1 - 0.5^4 - (6/20)^2) = 0.6 * 0.8475
    a = idm_acceleration(10.0, 20.0, 20.0, 0.0, P)
    assert a == pytest.approx(0.50850, abs=1e-9)


def test_nonpositive_gap_brakes_at_emergency_rate():
    assert idm_acceleration(10.0, 20.0, 0.0, 0.0, P) == pytest.approx(-3 * 0.9)
    assert idm_acceleration(10.0, 20.0, -1.0, 0.0, P) == pytest.approx(-3 * 0.9)


def test_receding_leader_never_adds_braking():
    # leader much faster: dynamic gap term clamps at zero, free-road behaviour
    a = idm_acceleration(10.0, 20.0, 50.0, -40.0, P)
    free = idm_acceleration(10.0, 20.0, math.inf, 0.0, P)
    assert a <= free
    assert a == pytest.approx(0.6 * (1 - 0.5 ** 4 - (1.0 / 50.0) ** 2))


# -- topology helpers ----------------------------------------------------------

def plus_graph(arm=500.0, lanes=1, red_approach="w", phase_length=4000.0):
    """Cross intersection; the west approach edge faces a long red phase."""
    verts = [Vertex("c", 0, 0), Vertex("n", 0, arm), Vertex("s", 0, -arm),
             Vertex("e", arm, 0), Vertex("w", -arm, 0)]
    edges = []
    for a in ("n", "s", "e", "w"):
        for src, dst in ((a, "c"), ("c", a)):
            va = dict(n=(0, arm), s=(0, -arm), e=(arm, 0), w=(-arm, 0))[a]
            length = math.hypot(*va)
            edges.append(Edge(edge_id(src, dst), src, dst, lanes, length))
    approach = edge_id(red_approach, "c")
    others = frozenset(edge_id(a, "c") for a in ("n", "s", "e", "w")
                       if a != red_approach)
    light = TrafficLight("c", (others, frozenset({approach})), phase_length)
    return RoadGraph(verts, edges, [light]).validate()


def make_world(graph, lanes_active=False, seed=1, **cfg_overrides):
    cfg = MobilityConfig(**cfg_overrides)
    rng = RngStreams(seed).stream("mobility")
    return VehicleWorld(graph, cfg, 0, rng, lane_changes=lanes_active)


def put_vehicle(world, vid, edge_ref, lane, offset, speed, v0, path):
    st = VehicleState(vid, edge_ref, lane, offset, speed,
                      Trip(world.graph.edges[path[0]].src,
                           world.graph.edges[path[-1]].dst, list(path), 3.0),
                      path.index(edge_ref), v0, world.cfg.vehicle_length)
    world.vehicles[vid] = st
    return st


# -- intersection_constraint -----------------------------------------------------

def test_green_phase_returns_none():
    g = plus_graph()
    world = make_world(g)
    st = put_vehicle(world, 0, "n>c", 0, 349.0, 10.0, 15.0, ["n>c", "c>s"])
    assert intersection_constraint(st, g, g.lights, 0.0, world.cfg) is None


def test_red_within_visibility_places_leader_at_stop_line():
    g = plus_graph()
    world = make_world(g)
    # stop line at 500 - s0 = 499; offset 349 -> distance 150 < visibility 200
    st = put_vehicle(world, 0, "w>c", 0, 349.0, 10.0, 15.0, ["w>c", "c>e"])
    vl = intersection_constraint(st, g, g.lights, 0.0, world.cfg)
    assert isinstance(vl, VirtualLeader)
    assert vl.offset == pytest.approx(499.0)
    assert vl.offset - st.offset == pytest.approx(150.0)
    assert vl.speed == 0.0 and vl.length == 0.0


def test_red_beyond_visibility_ignored():
    g = plus_graph()
    world = make_world(g)
    st = put_vehicle(world, 0, "w>c", 0, 249.0, 10.0, 15.0, ["w>c", "c>e"])  # 250 m out
    assert intersection_constraint(st, g, g.lights, 0.0, world.cfg) is None


def test_border_intersections_ignored():
    g = plus_graph()
    world = make_world(g)
    # a border vertex has no light (generate_grid lights only interior ones), so
    # nothing stops a vehicle on the edge into 'e'
    st = put_vehicle(world, 0, "c>e", 0, 400.0, 10.0, 15.0, ["c>e"])
    assert intersection_constraint(st, g, g.lights, 0.0, world.cfg) is None


# -- mobil_decide ------------------------------------------------------------------

def _veh(offset, speed, v0=20.0, vid=0):
    return VehicleState(vid, "w>c", 0, offset, speed,
                        Trip("w", "c", ["w>c"], 3.0), 0, v0, P.vehicle_length)


def test_symmetric_empty_lanes_stay():
    me = _veh(100.0, 15.0)
    out = mobil_decide(me, LaneNeighbors(), {1: LaneNeighbors()}, P)
    assert out is None


def test_slow_leader_free_target_lane_changes():
    me = _veh(100.0, 15.0, v0=20.0)
    leader = _veh(112.0, 3.0, vid=1)          # gap 7 m, much slower
    a_old = idm_acceleration(15.0, 20.0, 112.0 - 5.0 - 100.0, 15.0 - 3.0, P)
    a_new = idm_acceleration(15.0, 20.0, math.inf, 0.0, P)
    assert a_new - a_old > P.accel_threshold   # the inequality the rule tests
    out = mobil_decide(me, LaneNeighbors(leader=leader), {1: LaneNeighbors()}, P)
    assert out == 1


def test_safety_veto_blocks_change_regardless_of_gain():
    me = _veh(100.0, 15.0, v0=20.0)
    leader = _veh(112.0, 3.0, vid=1)
    tail = _veh(94.0, 20.0, v0=22.0, vid=2)    # would need brutal braking
    a_nf_new = idm_acceleration(20.0, 22.0, 100.0 - 5.0 - 94.0, 20.0 - 15.0, P)
    assert a_nf_new < -P.b       # the safe limit, unset, is the comfortable deceleration
    out = mobil_decide(me, LaneNeighbors(leader=leader),
                       {1: LaneNeighbors(follower=tail)}, P)
    assert out is None
    # a selfish driver is held back only by the veto, and a set limit replaces b
    selfish = MobilityConfig(politeness=0.0)
    lax = MobilityConfig(politeness=0.0, safe_decel_limit=-a_nf_new + 1.0)
    for cfg, expected in ((selfish, None), (lax, 1)):
        out = mobil_decide(me, LaneNeighbors(leader=leader),
                           {1: LaneNeighbors(follower=tail)}, cfg)
        assert out == expected


# -- step_world ---------------------------------------------------------------------

def long_road(length=5000.0, lanes=1):
    verts = [Vertex("a", 0, 0), Vertex("b", length, 0)]
    edges = [Edge("a>b", "a", "b", lanes, length),
             Edge("b>a", "b", "a", lanes, length)]
    return RoadGraph(verts, edges).validate()


def test_a_road_too_short_for_its_vehicles_parks_the_rest_while_their_lane_is_taken():
    # each 12 m lane holds one 5 m vehicle with its 1 m jam distance, so two
    # of the four start parked at their origin, stay parked while the first
    # edge of their trip is taken, and enter once it clears
    g = long_road(length=12.0)
    world = VehicleWorld(g, MobilityConfig(), 4, RngStreams(1).stream("mobility"),
                         lane_changes=False)
    parked = [st for st in world.vehicles.values() if not st.driving]
    assert len(parked) == 2
    assert all(st.paused_until == 0.0 and st.trip.path for st in parked)
    world.step(0.1)
    assert [st for st in world.vehicles.values() if not st.driving] == parked
    entered = set()
    for _ in range(300):
        world.step(0.1)
        entered.update(st.vehicle_id for st in parked if st.driving)
    assert entered == {st.vehicle_id for st in parked}


def test_single_step_ballistic_update():
    g = long_road()
    world = make_world(g)
    st = put_vehicle(world, 0, "a>b", 0, 0.0, 0.0, 20.0, ["a>b"])
    world.step(1.0)
    assert st.speed == pytest.approx(0.6)        # v' = v + a dt, a = a_max
    assert st.offset == pytest.approx(0.3)       # x' = x + v dt + a dt^2 / 2


def test_equilibrium_advance():
    g = long_road()
    world = make_world(g)
    st = put_vehicle(world, 0, "a>b", 0, 100.0, 20.0, 20.0, ["a>b"])
    world.step(1.0)
    assert st.speed == pytest.approx(20.0)
    assert st.offset == pytest.approx(120.0)


def test_free_flow_convergence_without_overshoot():
    g = long_road()
    world = make_world(g)
    v0 = 15.0
    st = put_vehicle(world, 0, "a>b", 0, 0.0, 0.0, v0, ["a>b"])
    top = 0.0
    for _ in range(600):
        world.step(0.1)
        top = max(top, st.speed)
    assert st.speed >= 0.99 * v0
    assert top <= v0 * (1 + 1e-6)


def _platoon_world(n=10, duration=1000.0):
    g = plus_graph(arm=500.0)
    world = make_world(g)
    for i in range(n):
        put_vehicle(world, i, "w>c", 0, 300.0 - 25.0 * i, 0.0, 12.0, ["w>c", "c>e"])
    steps = int(duration / 0.1)
    for _ in range(steps):
        world.step(0.1)
        yield world


def test_platoon_red_light_no_overlap_and_terminal_gaps():
    s0, length = 1.0, 5.0
    last = None
    for world in _platoon_world():
        ordered = sorted((v for v in world.vehicles.values() if v.driving),
                         key=lambda v: v.offset)
        for back, front in zip(ordered, ordered[1:]):
            gap = front.offset - length - back.offset
            assert gap >= 0.0, f"overlap at t={world.now}"
        # red-light compliance: stop line is 499, tolerance 0.5 m
        assert ordered[-1].offset <= 499.0 + 0.5
        last = ordered
    assert all(v.speed == pytest.approx(0.0, abs=1e-6) for v in last)
    for back, front in zip(last, last[1:]):
        gap = front.offset - length - back.offset
        assert gap >= 0.95 * s0


def test_speed_band_invariant_under_load():
    g = plus_graph(arm=500.0, lanes=2)
    world = make_world(g)
    rng = RngStreams(5).stream("mobility")
    for i in range(14):
        v0 = float(rng.uniform(10, 80)) / 3.6
        put_vehicle(world, i, "w>c", i % 2, 450.0 - 30.0 * i, v0 * 0.5, v0,
                    ["w>c", "c>e"])
    for _ in range(600):
        world.step(0.1)
        for v in world.vehicles.values():
            assert 0.0 <= v.speed <= v.v0 * (1 + 1e-6)


def test_idm_im_equals_idm_lc_on_single_lane():
    def trajectory(lane_changes):
        g = plus_graph(arm=500.0, lanes=1)
        cfg = MobilityConfig()
        rng = RngStreams(11).stream("mobility")
        world = VehicleWorld(g, cfg, 12, rng, lane_changes=lane_changes)
        rows = []
        for _ in range(400):
            world.step(0.1)
            rows.append([(v.edge, v.lane, v.offset, v.speed)
                         for v in world.vehicles.values()])
        return rows

    assert trajectory(False) == trajectory(True)   # bitwise identical


def test_symmetric_two_lane_scenario_no_changes():
    g = long_road(lanes=2)
    world = make_world(g, lanes_active=True)
    for i in range(4):
        put_vehicle(world, i, "a>b", i % 2, 500.0 + 400.0 * i, 10.0, 15.0, ["a>b"])
    for _ in range(100):
        world.step(0.1)
    assert world.lane_change_count == 0


def test_slow_leader_scenario_produces_change():
    g = long_road(lanes=2)
    world = make_world(g, lanes_active=True)
    put_vehicle(world, 0, "a>b", 0, 520.0, 2.0, 3.0, ["a>b"])    # crawling leader
    put_vehicle(world, 1, "a>b", 0, 500.0, 15.0, 20.0, ["a>b"])  # blocked follower
    for _ in range(100):
        world.step(0.1)
    assert world.lane_change_count >= 1
    assert world.vehicles[1].lane == 1


def test_arrival_pause_and_replan():
    g = plus_graph(arm=500.0)
    world = make_world(g)
    st = put_vehicle(world, 0, "n>c", 0, 495.0, 10.0, 15.0, ["n>c"])
    world.step(1.0)
    assert not st.driving
    assert st.paused_until > world.now
    for _ in range(120):
        world.step(0.1)
    assert st.driving                       # re-planned and re-entered traffic
    assert st.trip.origin == "c"
