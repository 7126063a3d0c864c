"""Road topology, traffic lights, shortest paths and trip generation."""

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass, field

MAX_LANES = 10  # hard cap on lanes per edge


class GraphError(ValueError):
    """Invalid road graph: a lane count out of bounds, or not strongly connected."""


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
        self.vertex_ids: list[str] = sorted(self.vertices)   # sorted once; trips index it
        self.edges: dict[str, Edge] = {e.id: e for e in edges}
        self.lights: dict[str, TrafficLight] = {tl.vertex: tl for tl in lights}
        self.out_edges: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        self.in_edges: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges.values():
            self.out_edges[e.src].append(e)
            self.in_edges[e.dst].append(e)

    def edge_point(self, edge_id: str, offset: float) -> tuple[float, float]:
        e = self.edges[edge_id]
        a, b, f = self.vertices[e.src], self.vertices[e.dst], offset / e.length
        return (a.x + (b.x - a.x) * f, a.y + (b.y - a.y) * f)

    def validate(self):
        """Lane counts and strong connectivity. Both builders compute each
        edge's length from its endpoints, and only `generate_grid` makes lights."""
        for e in self.edges.values():
            if not (1 <= e.lane_count <= MAX_LANES):
                raise GraphError(f"edge {e.id}: lane_count {e.lane_count} outside [1, {MAX_LANES}]")
        start = next(iter(self.vertices))
        unreachable = set(self.vertices) - (self._reach(start, self.out_edges, lambda e: e.dst)
                                            & self._reach(start, self.in_edges, lambda e: e.src))
        if unreachable:
            raise GraphError("graph not strongly connected; unreachable vertices: "
                             + ", ".join(sorted(unreachable)))
        return self

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
                  phase_length: float = 10.0) -> RoadGraph:
    """Manhattan grid; interior vertices get two-phase lights (NS green / EW green)."""
    if rows < 2 or cols < 2:
        raise GraphError("grid needs rows >= 2 and cols >= 2")

    def vid(r, c):
        return f"g{r}_{c}"

    vertices = [Vertex(vid(r, c), c * spacing, r * spacing)
                for r in range(rows) for c in range(cols)]
    edges = []

    def add_pair(a, b):
        length = spacing
        edges.append(Edge(edge_id(a, b), a, b, lanes, length))
        edges.append(Edge(edge_id(b, a), b, a, lanes, length))

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
    """Uniform destination among `graph.vertex_ids` but the origin, shortest path, uniform stay."""
    ids = graph.vertex_ids
    k = int(rng.integers(0, len(ids) - 1))
    destination = ids[k + (k >= bisect_left(ids, origin))]
    path = graph.shortest_path(origin, destination)
    pause = float(rng.uniform(min_stay, max_stay))
    return Trip(origin, destination, path, pause)
