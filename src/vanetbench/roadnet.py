"""Road topology, traffic lights, shortest paths and trip generation."""

import heapq
import math
from dataclasses import dataclass, field

MAX_LANES = 10  # hard cap on lanes per edge


class GraphError(ValueError):
    """Invalid road graph (bad lanes, disconnected, inconsistent geometry)."""


@dataclass(frozen=True)
class Vertex:
    id: str
    x: float
    y: float


@dataclass(frozen=True)
class Edge:
    id: str
    src: str
    dst: str
    lane_count: int
    length: float
    speed_limit: float


@dataclass
class TrafficLight:
    """Fixed-cycle signal at a vertex; each phase grants green to one set of inbound edges.

    Phases may be empty (all inbound red), which expresses single-approach
    alternation; every inbound edge appears in at most one phase.
    """

    vertex: str
    phases: tuple[frozenset, ...]
    phase_length: float = 10.0

    def phase_index(self, t: float) -> int:
        return int(math.floor(t / self.phase_length)) % len(self.phases)

    def is_green(self, edge_id: str, t: float) -> bool:
        return edge_id in self.phases[self.phase_index(t)]


@dataclass
class Trip:
    origin: str
    destination: str
    path: list[str]          # edge-id sequence, origin -> destination
    pause: float             # stay duration at destination, seconds


class RoadGraph:
    """Directed multi-lane road graph; immutable once validated."""

    def __init__(self, vertices, edges, lights=()):
        self.vertices: dict[str, Vertex] = {v.id: v for v in vertices}
        self.edges: dict[str, Edge] = {e.id: e for e in edges}
        self.lights: dict[str, TrafficLight] = {tl.vertex: tl for tl in lights}
        self.out_edges: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        self.in_edges: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges.values():
            self.out_edges[e.src].append(e)
            self.in_edges[e.dst].append(e)
        xs = [v.x for v in self.vertices.values()]
        ys = [v.y for v in self.vertices.values()]
        self._bounds = (min(xs), max(xs), min(ys), max(ys)) if xs else (0, 0, 0, 0)

    def is_border_vertex(self, vid: str) -> bool:
        v = self.vertices[vid]
        x0, x1, y0, y1 = self._bounds
        return v.x in (x0, x1) or v.y in (y0, y1)

    def edge_heading(self, edge_id: str) -> float:
        e = self.edges[edge_id]
        a, b = self.vertices[e.src], self.vertices[e.dst]
        return math.atan2(b.y - a.y, b.x - a.x)

    def edge_point(self, edge_id: str, offset: float) -> tuple[float, float]:
        e = self.edges[edge_id]
        a, b = self.vertices[e.src], self.vertices[e.dst]
        f = 0.0 if e.length == 0 else offset / e.length
        return (a.x + (b.x - a.x) * f, a.y + (b.y - a.y) * f)

    def validate(self):
        for e in self.edges.values():
            if not (1 <= e.lane_count <= MAX_LANES):
                raise GraphError(f"edge {e.id}: lane_count {e.lane_count} outside [1, {MAX_LANES}]")
            a, b = self.vertices[e.src], self.vertices[e.dst]
            want = math.hypot(b.x - a.x, b.y - a.y)
            if abs(e.length - want) > 1e-6:
                raise GraphError(f"edge {e.id}: length {e.length} != endpoint distance {want}")
            if e.speed_limit <= 0:
                raise GraphError(f"edge {e.id}: speed_limit must be positive")
        for tl in self.lights.values():
            if tl.vertex not in self.vertices:
                raise GraphError(f"traffic light at unknown vertex {tl.vertex}")
            if tl.phase_length <= 0:
                raise GraphError(f"traffic light {tl.vertex}: phase_length must be positive")
            inbound = {e.id for e in self.in_edges[tl.vertex]}
            seen = set()
            for ph in tl.phases:
                if ph & seen:
                    raise GraphError(f"traffic light {tl.vertex}: edge in more than one phase")
                if not ph <= inbound:
                    raise GraphError(f"traffic light {tl.vertex}: phase lists non-inbound edge")
                seen |= ph
        unreachable = self._unreachable()
        if unreachable:
            raise GraphError("graph not strongly connected; unreachable vertices: "
                             + ", ".join(sorted(unreachable)))
        return self

    def _unreachable(self) -> set:
        if not self.vertices:
            return set()
        start = next(iter(self.vertices))
        fwd = self._reach(start, self.out_edges, lambda e: e.dst)
        bwd = self._reach(start, self.in_edges, lambda e: e.src)
        return (set(self.vertices) - fwd) | (set(self.vertices) - bwd)

    def _reach(self, start, adjacency, other):
        seen = {start}
        stack = [start]
        while stack:
            for e in adjacency[stack.pop()]:
                nxt = other(e)
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    def shortest_path(self, src: str, dst: str) -> list[str]:
        """Minimum-distance edge path via Dijkstra; deterministic tie-breaking."""
        if src == dst:
            return []
        dist = {src: 0.0}
        prev: dict[str, Edge] = {}
        heap = [(0.0, src)]
        done = set()
        while heap:
            d, u = heapq.heappop(heap)
            if u in done:
                continue
            if u == dst:
                break
            done.add(u)
            for e in self.out_edges[u]:
                nd = d + e.length
                if nd < dist.get(e.dst, math.inf):
                    dist[e.dst] = nd
                    prev[e.dst] = e
                    heapq.heappush(heap, (nd, e.dst))
        if dst not in prev:
            raise GraphError(f"no path from {src} to {dst}")
        path = []
        u = dst
        while u != src:
            e = prev[u]
            path.append(e.id)
            u = e.src
        path.reverse()
        return path


def edge_id(src: str, dst: str) -> str:
    return f"{src}>{dst}"


def generate_grid(rows: int, cols: int, spacing: float, lanes: int = 2,
                  speed_limit: float = 80 / 3.6, phase_length: float = 10.0) -> RoadGraph:
    """Manhattan grid; interior vertices get two-phase lights (NS green / EW green)."""
    if rows < 2 or cols < 2:
        raise GraphError("grid needs rows >= 2 and cols >= 2")
    if spacing <= 0:
        raise GraphError("grid spacing must be positive")

    def vid(r, c):
        return f"g{r}_{c}"

    vertices = [Vertex(vid(r, c), c * spacing, r * spacing)
                for r in range(rows) for c in range(cols)]
    edges = []

    def add_pair(a, b):
        length = spacing
        edges.append(Edge(edge_id(a, b), a, b, lanes, length, speed_limit))
        edges.append(Edge(edge_id(b, a), b, a, lanes, length, speed_limit))

    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                add_pair(vid(r, c), vid(r, c + 1))
            if r + 1 < rows:
                add_pair(vid(r, c), vid(r + 1, c))

    lights = []
    for r in range(1, rows - 1):
        for c in range(1, cols - 1):
            v = vid(r, c)
            ns = frozenset({edge_id(vid(r - 1, c), v), edge_id(vid(r + 1, c), v)})
            ew = frozenset({edge_id(vid(r, c - 1), v), edge_id(vid(r, c + 1), v)})
            lights.append(TrafficLight(v, (ns, ew), phase_length))
    return RoadGraph(vertices, edges, lights).validate()


def plan_trip(rng, graph: RoadGraph, origin: str,
              min_stay: float = 2.0, max_stay: float = 6.0) -> Trip:
    """Uniform destination over other vertices, shortest path, uniform stay duration."""
    candidates = sorted(v for v in graph.vertices if v != origin)
    if not candidates:
        raise GraphError("graph has a single vertex; no trips possible")
    destination = candidates[int(rng.integers(0, len(candidates)))]
    path = graph.shortest_path(origin, destination)
    pause = float(rng.uniform(min_stay, max_stay))
    return Trip(origin, destination, path, pause)
