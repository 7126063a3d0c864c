"""Shared helpers: topologies, connectivity oracles, configured networks."""

import math
import random
from collections import deque
from dataclasses import dataclass

import pytest
from hypothesis import settings

from vanetbench.metrics import PBC_OUTCOMES, Trace, pbc_outcomes
from vanetbench.packets import KIND_CBR, KIND_PBC, Packet
from vanetbench.scenario import ScenarioConfig
from vanetbench.simulation import Network

# Tier-1 runs a fixed set of examples; `--hypothesis-profile=ci` runs more.
settings.register_profile("default", max_examples=300, deadline=None,
                          derandomize=True, database=None)
settings.register_profile("ci", parent=settings.get_profile("default"),
                          max_examples=2000)
# Hypothesis switches to its own "ci" profile when a CI variable is set; tier-1
# keeps the default there too, and only --hypothesis-profile=ci selects more.
settings.load_profile("default")


def record_dispatch_log(sim):
    """The (time, sequence, target) of each event that `sim` dispatches, in
    dispatch order, for the events scheduled from now on: this instance's
    `schedule` wraps each action to log it when it fires."""
    log = []
    schedule = sim.schedule

    def logged(at, action, target=""):
        target = target or getattr(action, "__qualname__", "?")

        def fire():
            log.append((sim.now, ev.sequence, target))
            action()

        ev = schedule(at, fire, target)
        return ev

    sim.schedule = logged
    return log


@dataclass
class TraceRecord:
    time: float
    event: str
    reason: str
    layer: str
    kind: str
    packet_id: int
    flow_id: int | None
    node: int
    size: int


class RecordList(list):
    """Sink that keeps every record as a TraceRecord."""

    def add(self, time, event, reason, layer, kind, packet_id, flow_id, node, size):
        self.append(TraceRecord(time, event, reason, layer, kind, packet_id, flow_id,
                                node, size))

    def add_pbc_block(self, time, packet_id, size, hearers, outcomes):
        self.extend([TraceRecord(time, *PBC_OUTCOMES[outcome], KIND_PBC, packet_id, None,
                                 node, size)
                     for node, outcome in pbc_outcomes(hearers, outcomes)])


class StaticNetwork(Network):
    """Full network stack over fixed node positions (no mobility, no agents).

    The workbench for protocol-level tests: place nodes, run the clock, inject
    data packets, inspect routing state and the trace, whose records
    `trace.records` keeps.
    """

    def __init__(self, positions: dict[int, tuple[float, float]],
                 cfg: ScenarioConfig | None = None):
        cfg = cfg if cfg is not None else ScenarioConfig()
        super().__init__(cfg, sorted(positions))
        self.trace.records = self.trace.attach(RecordList())
        for node, xy in positions.items():
            self.coords[node] = xy

    def send_data(self, src: int, dst: int, size: int = 512, flow_id: int | None = None):
        node = self.nodes[src]
        pkt = Packet(KIND_CBR, src, dst, size, node.new_packet_id(), flow_id,
                     self.cfg.routing.ttl)
        node.originate(pkt)
        return pkt

    def run_for(self, seconds: float):
        self.sim.run_until(self.sim.now + seconds)


def recording_trace():
    """A Trace that keeps every record in `records`, as StaticNetwork's does."""
    trace = Trace()
    trace.records = trace.attach(RecordList())
    return trace


def line_positions(n, spacing=240.0):
    return {i: (i * spacing, 0.0) for i in range(n)}


def fast_convergence_config(protocol, seed=1):
    """Ideal channel + shortened control intervals for protocol-level tests."""
    cfg = ScenarioConfig()
    cfg.run.seed = seed
    cfg.phy.loss_model = "ideal"
    cfg.phy.collisions = False
    cfg.routing.protocol = protocol
    cfg.routing.dsdv_full_dump_interval = 2.0
    cfg.routing.dsdv_settling_time = 0.5
    cfg.routing.dsdv_trigger_min_gap = 0.2
    cfg.routing.olsr_hello_interval = 0.5
    cfg.routing.olsr_tc_interval = 1.0
    return cfg


def make_net(positions, protocol, seed=1, cfg=None):
    cfg = cfg if cfg is not None else fast_convergence_config(protocol, seed)
    net = StaticNetwork(positions, cfg)
    net.start_protocols()
    return net


def adjacency(positions, radius=250.0):
    """Connectivity graph: nodes within the calibrated reception radius."""
    adj = {u: set() for u in positions}
    for u, (ux, uy) in positions.items():
        for v, (vx, vy) in positions.items():
            if u != v and math.hypot(ux - vx, uy - vy) <= radius:
                adj[u].add(v)
    return adj


def bfs_distances(adj, src):
    dist = {src: 0}
    q = deque([src])
    while q:
        u = q.popleft()
        for v in sorted(adj[u]):
            if v not in dist:
                dist[v] = dist[u] + 1
                q.append(v)
    return dist


def is_connected(adj):
    if not adj:
        return True
    start = next(iter(adj))
    return len(bfs_distances(adj, start)) == len(adj)


def random_connected_positions(rng: random.Random, n, box=800.0, radius=250.0):
    """Random node placement, re-drawn until the connectivity graph is connected."""
    while True:
        pos = {i: (rng.uniform(0, box), rng.uniform(0, box)) for i in range(n)}
        if is_connected(adjacency(pos, radius)):
            return pos


def walk_next_hops(route_fn, src, dst, max_steps):
    """Follow next hops from src toward dst; returns the node path or None."""
    path = [src]
    node = src
    for _ in range(max_steps):
        if node == dst:
            return path
        nh = route_fn(node, dst)
        if nh is None or nh in path:
            return None
        path.append(nh)
        node = nh
    return path if node == dst else None


def all_simple_paths(adj, src, dst, limit=10000):
    """Exhaustive simple-path enumeration for small graphs."""
    out = []
    stack = [(src, [src])]
    while stack:
        node, path = stack.pop()
        if node == dst:
            out.append(path)
            if len(out) > limit:
                raise RuntimeError("path explosion")
            continue
        for nxt in sorted(adj[node]):
            if nxt not in path:
                stack.append((nxt, path + [nxt]))
    return out


def max_link_disjoint_sets(paths):
    """All maximal sets of pairwise link-disjoint paths (brute force)."""
    def links(path):
        return {frozenset((a, b)) for a, b in zip(path, path[1:])}

    best = []
    n = len(paths)

    def extend(start, chosen, used):
        nonlocal best
        if len(chosen) > len(best):
            best = list(chosen)
        for i in range(start, n):
            li = links(paths[i])
            if not (li & used):
                chosen.append(paths[i])
                extend(i + 1, chosen, used | li)
                chosen.pop()

    extend(0, [], set())
    return best


@pytest.fixture
def ideal_cfg():
    return fast_convergence_config("aodv")
