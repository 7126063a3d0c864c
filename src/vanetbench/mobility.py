"""Microscopic vehicle motion: IDM car following, intersection handling, MOBIL lane changes."""

import math
from dataclasses import dataclass

from .roadnet import RoadGraph, Trip, plan_trip
from .scenario import MobilityConfig

EMERGENCY_BRAKE_FACTOR = 3.0   # multiple of comfortable deceleration when gap <= 0


@dataclass
class VirtualLeader:
    """Standing zero-length obstacle (stop line) expressed as a leader."""

    offset: float
    speed: float = 0.0
    length: float = 0.0


@dataclass
class VehicleState:
    vehicle_id: int
    edge: str | None            # None while paused at a vertex
    lane: int
    offset: float
    speed: float
    trip: Trip
    waypoint_index: int
    v0: float                   # desired speed, drawn at spawn
    length: float
    paused_until: float = -1.0
    x: float = 0.0
    y: float = 0.0
    heading: float = 0.0

    @property
    def driving(self) -> bool:
        return self.edge is not None


def idm_acceleration(v: float, v0: float, gap: float, dv: float,
                     p: MobilityConfig) -> float:
    """Car-following acceleration; gap = inf means free road, gap <= 0 brakes hard."""
    if gap <= 0:
        return -EMERGENCY_BRAKE_FACTOR * p.b
    free = (v / v0) ** 4
    if math.isinf(gap):
        interaction = 0.0
    else:
        # dynamic part clamped at zero: a fast-receding leader must not brake us
        dynamic = v * p.headway + v * dv / (2.0 * math.sqrt(p.a_max * p.b))
        s_star = p.s0 + (dynamic if dynamic > 0.0 else 0.0)
        interaction = (s_star / gap) ** 2
    return p.a_max * (1.0 - free - interaction)


def intersection_constraint(vehicle: VehicleState, graph: RoadGraph, lights: dict,
                            t: float, p: MobilityConfig) -> VirtualLeader | None:
    """Virtual standing leader at the stop line when the edge end shows red.

    Applies only to the first vehicle in its lane; border intersections and
    anything beyond visibility are ignored. The stop line sits one jam
    distance before the edge end so the standstill gap stays meaningful.
    """
    edge = graph.edges[vehicle.edge]
    light = lights.get(edge.dst)
    if light is None or graph.is_border_vertex(edge.dst):
        return None
    if light.is_green(edge.id, t):
        return None
    stop_line = edge.length - p.s0
    distance = stop_line - vehicle.offset
    if distance <= 0 or distance > p.visibility:
        return None
    return VirtualLeader(offset=stop_line)


@dataclass
class LaneNeighbors:
    """Leader/follower pair seen from one vehicle's longitudinal position in a lane."""

    leader: object = None       # VehicleState or VirtualLeader or None
    follower: object = None


def _gap(behind_offset: float, ahead) -> float:
    return ahead.offset - ahead.length - behind_offset


def _accel_towards(v0, p, subject_offset, subject_speed, ahead) -> float:
    if ahead is None:
        return idm_acceleration(subject_speed, v0, math.inf, 0.0, p)
    gap = _gap(subject_offset, ahead)
    dv = subject_speed - ahead.speed
    return idm_acceleration(subject_speed, v0, gap, dv, p)


def mobil_decide(vehicle: VehicleState, current: LaneNeighbors,
                 candidates: dict[int, LaneNeighbors],
                 p: MobilityConfig) -> int | None:
    """Lane-change decision: politeness-weighted acceleration gain vs threshold.

    Returns the target lane index, or None to stay. Safety veto: the
    prospective follower must not need braking beyond the safe limit (the
    comfortable deceleration b when unset), and physical clearance to both
    target-lane neighbors is required.
    """
    def own_accel(ahead):
        return _accel_towards(vehicle.v0, p, vehicle.offset, vehicle.speed, ahead)

    safe_decel = p.safe_decel_limit if p.safe_decel_limit is not None else p.b
    a_self_old = own_accel(current.leader)
    best_lane = None
    best_incentive = p.accel_threshold
    for lane in sorted(candidates):
        nb = candidates[lane]
        # clearance: never change into an overlap
        if nb.leader is not None and _gap(vehicle.offset, nb.leader) <= 0:
            continue
        if nb.follower is not None and _gap(nb.follower.offset, vehicle) <= 0:
            continue
        a_self_new = own_accel(nb.leader)
        a_nf_old = a_nf_new = 0.0
        if nb.follower is not None:
            f = nb.follower
            a_nf_old = _accel_towards(f.v0, p, f.offset, f.speed, nb.leader)
            a_nf_new = _accel_towards(f.v0, p, f.offset, f.speed, vehicle)
            if a_nf_new < -safe_decel:
                continue
        a_of_old = a_of_new = 0.0
        if current.follower is not None:
            f = current.follower
            a_of_old = _accel_towards(f.v0, p, f.offset, f.speed, vehicle)
            a_of_new = _accel_towards(f.v0, p, f.offset, f.speed, current.leader)
        incentive = (a_self_new - a_self_old) + p.politeness * (
            (a_nf_new - a_nf_old) + (a_of_new - a_of_old))
        if incentive > best_incentive:
            best_incentive = incentive
            best_lane = lane
    return best_lane


class VehicleWorld:
    """Owns all vehicle states; advances them synchronously from a per-step snapshot."""

    def __init__(self, graph: RoadGraph, cfg: MobilityConfig, n_vehicles: int, rng,
                 lane_changes: bool):
        self.graph = graph
        self.cfg = cfg
        self.rng = rng
        self.lane_changes = lane_changes
        self.vehicles: dict[int, VehicleState] = {}
        self.now = 0.0
        self._steps = 0
        self.recalc_every = max(1, round(cfg.recalc_step / cfg.integration_dt))
        self.emergency_warnings = 0
        self.lane_change_count = 0
        self.brake_listeners: list = []    # callables (vehicle_id, accel, t)
        for vid in range(n_vehicles):
            self._spawn_initial(vid)

    # -- spawning ----------------------------------------------------------

    def _spawn_initial(self, vid: int):
        g = self.graph
        cfg = self.cfg
        origins = sorted(g.vertices)
        v0 = float(self.rng.uniform(cfg.v_min_kmh, cfg.v_max_kmh)) / 3.6
        length = cfg.vehicle_length
        st = None
        for _attempt in range(200):
            origin = origins[int(self.rng.integers(0, len(origins)))]
            trip = plan_trip(self.rng, g, origin, cfg.min_stay, cfg.max_stay)
            edge = g.edges[trip.path[0]]
            lane = int(self.rng.integers(0, edge.lane_count))
            span = max(0.0, edge.length - length - cfg.s0)
            offset = float(self.rng.uniform(0.0, span)) if span > 0 else 0.0
            if self._clear_at(edge.id, lane, offset, length):
                st = VehicleState(vid, edge.id, lane, offset, 0.0, trip, 0, v0, length)
                break
        if st is None:
            # dense map: hold the vehicle at its origin and enter when space opens
            st = VehicleState(vid, None, 0, 0.0, 0.0, trip, 0, v0, length,
                              paused_until=0.0)
        self._update_xy(st)
        self.vehicles[vid] = st

    def _clear_at(self, edge_id: str, lane: int, offset: float, length: float) -> bool:
        s0 = self.cfg.s0
        for other in self.vehicles.values():
            if other.driving and other.edge == edge_id and other.lane == lane:
                if other.offset >= offset:
                    if other.offset - other.length - offset < s0:
                        return False
                elif offset - length - other.offset < s0:
                    return False
        return True

    def _try_respawn(self, st: VehicleState):
        """Re-enter traffic on the first edge of the pending trip if there is room."""
        edge = self.graph.edges[st.trip.path[0]]
        if not self._clear_at(edge.id, st.lane, 0.0, st.length):
            return False
        st.edge = edge.id
        st.offset = 0.0
        st.speed = 0.0
        st.waypoint_index = 0
        self._update_xy(st)
        return True

    # -- geometry ----------------------------------------------------------

    def _update_xy(self, st: VehicleState):
        if st.driving:
            st.x, st.y = self.graph.edge_point(st.edge, st.offset)
            st.heading = self.graph.edge_heading(st.edge)
        else:
            v = self.graph.vertices[st.trip.origin]
            st.x, st.y = v.x, v.y
            st.heading = 0.0

    # -- stepping ----------------------------------------------------------

    def _lane_occupancy(self):
        occ: dict[tuple[str, int], list[VehicleState]] = {}
        for st in self.vehicles.values():
            if st.driving:
                occ.setdefault((st.edge, st.lane), []).append(st)
        for group in occ.values():
            group.sort(key=lambda s: (s.offset, s.vehicle_id))
        return occ

    def _leader_for(self, st: VehicleState, occ, idx_in_lane, lane_group, stop):
        """Real leader in lane, look-ahead onto the next trip edge, or red-light
        `stop` (this step's intersection_constraint, or None).

        Returns (gap, leader_speed) of the nearest of these, or (inf, 0.0) when
        there is none; gap is measured from this vehicle's front bumper in its
        own edge coordinates, and a red-light stop has speed 0.
        """
        cfg = self.cfg
        leader = lane_group[idx_in_lane + 1] if idx_in_lane + 1 < len(lane_group) else None
        edge = self.graph.edges[st.edge]
        candidates = []
        if leader is not None:
            candidates.append((leader.offset - leader.length - st.offset, leader.speed))
        else:
            # first in lane: traffic light, then look-ahead into the next edge
            if stop is not None:
                candidates.append((stop.offset - st.offset, 0.0))
            remaining = edge.length - st.offset
            if remaining <= cfg.visibility and st.waypoint_index + 1 < len(st.trip.path):
                nxt = self.graph.edges[st.trip.path[st.waypoint_index + 1]]
                nlane = min(st.lane, nxt.lane_count - 1)
                ahead = occ.get((nxt.id, nlane))
                if ahead:
                    first = ahead[0]
                    candidates.append((remaining + first.offset - first.length, first.speed))
        if not candidates:
            return math.inf, 0.0
        return min(candidates, key=lambda c: c[0])

    def step(self, dt: float):
        """One synchronous world update: accelerations from the snapshot, then integrate."""
        cfg = self.cfg
        occ = self._lane_occupancy()
        do_lanes = self.lane_changes and (self._steps % self.recalc_every == 0)
        plans: list[tuple[VehicleState, float, object]] = []
        lane_moves: list[tuple[VehicleState, int]] = []

        lights = self.graph.lights
        for group in occ.values():
            last = len(group) - 1
            for i, st in enumerate(group):
                # only the first in its lane, or a lane change, looks at the light
                stop = (intersection_constraint(st, self.graph, lights, self.now, cfg)
                        if i == last or do_lanes else None)
                gap, leader_speed = self._leader_for(st, occ, i, group, stop)
                if gap <= 0:
                    self.emergency_warnings += 1
                a = idm_acceleration(st.speed, st.v0, gap, st.speed - leader_speed, cfg)
                for listener in self.brake_listeners:
                    listener(st.vehicle_id, a, self.now)
                # hold the jam distance: the underdamped approach would otherwise
                # creep inside s0 of a standing leader and rest there
                bound = None
                if math.isfinite(gap):
                    bound = st.offset + max(0.0, gap - cfg.s0)
                plans.append((st, a, bound))
                if do_lanes:
                    target = self._consider_lane_change(st, occ, group, i, stop)
                    if target is not None:
                        lane_moves.append((st, target))

        for st, target in lane_moves:
            st.lane = target
            self.lane_change_count += 1

        for st, a, bound in plans:
            v_next = st.speed + a * dt
            if v_next < 0.0:
                t_stop = st.speed / -a if a < 0 else 0.0
                advance = st.speed * t_stop + 0.5 * a * t_stop * t_stop
                v_next = 0.0
            else:
                advance = st.speed * dt + 0.5 * a * dt * dt
            new_offset = st.offset + max(0.0, advance)
            if bound is not None and new_offset > bound >= st.offset:
                new_offset = bound
                v_next = 0.0
                self.emergency_warnings += 1
            st.offset = new_offset
            st.speed = v_next
            self._advance_waypoints(st)

        self._handle_paused()
        for st in self.vehicles.values():
            self._update_xy(st)
        self._steps += 1
        self.now += dt

    def _consider_lane_change(self, st, occ, group, idx, stop):
        edge = self.graph.edges[st.edge]
        if edge.lane_count < 2:
            return None
        current = LaneNeighbors(
            leader=group[idx + 1] if idx + 1 < len(group) else stop,
            follower=group[idx - 1] if idx > 0 else None)
        candidates = {}
        for lane in (st.lane - 1, st.lane + 1):
            if not 0 <= lane < edge.lane_count:
                continue
            others = occ.get((st.edge, lane), [])
            leader = follower = None
            for o in others:
                if o.offset >= st.offset:
                    leader = o
                    break
                follower = o
            candidates[lane] = LaneNeighbors(leader=leader if leader is not None else stop,
                                             follower=follower)
        return mobil_decide(st, current, candidates, self.cfg)

    def _advance_waypoints(self, st: VehicleState):
        edge = self.graph.edges[st.edge]
        while st.offset >= edge.length:
            if st.waypoint_index + 1 >= len(st.trip.path):
                # arrival: park at the destination vertex, then re-plan
                st.offset = edge.length
                st.edge = None
                st.speed = 0.0
                st.paused_until = self.now + st.trip.pause
                st.trip = Trip(st.trip.destination, st.trip.destination, [], 0.0)
                return
            leftover = st.offset - edge.length
            st.waypoint_index += 1
            edge = self.graph.edges[st.trip.path[st.waypoint_index]]
            st.edge = edge.id
            st.lane = min(st.lane, edge.lane_count - 1)
            st.offset = leftover

    def _handle_paused(self):
        for st in self.vehicles.values():
            if st.driving or self.now < st.paused_until:
                continue
            if not st.trip.path:
                origin = st.trip.origin
                st.trip = plan_trip(self.rng, self.graph, origin,
                                    self.cfg.min_stay, self.cfg.max_stay)
                edge = self.graph.edges[st.trip.path[0]]
                st.lane = int(self.rng.integers(0, edge.lane_count))
            self._try_respawn(st)
