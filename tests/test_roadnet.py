"""Road graphs, traffic lights, trips and the shortest-path oracle."""

import itertools
import math
import random

import numpy as np
import pytest

from vanetbench.core import RngStreams
from vanetbench.roadnet import (Edge, GraphError, RoadGraph, TrafficLight, Vertex,
                                edge_id, generate_grid, plan_trip)


def test_grid_2x2_counts():
    g = generate_grid(2, 2, 100.0)
    assert len(g.vertices) == 4
    assert len(g.edges) == 8
    assert len(g.lights) == 0


def test_grid_3x3_single_interior_light():
    g = generate_grid(3, 3, 100.0)
    assert len(g.lights) == 1
    assert "g1_1" in g.lights


def test_grid_4x4_counts_match_construction_formula():
    rows = cols = 4
    g = generate_grid(rows, cols, 250.0)
    assert len(g.vertices) == 16
    # road segments: rows*(cols-1) horizontal + (rows-1)*cols vertical, x2 directions
    assert len(g.edges) == 2 * (rows * (cols - 1) + (rows - 1) * cols) == 48
    assert len(g.lights) == 4
    assert all(e.length == 250.0 for e in g.edges.values())


def test_grid_light_phases_partition_inbound():
    g = generate_grid(4, 4, 250.0)
    for tl in g.lights.values():
        inbound = {e.id for e in g.in_edges[tl.vertex]}
        union = set()
        for ph in tl.phases:
            assert not (ph & union)
            union |= ph
        assert union == inbound


def test_light_phase_periodicity():
    tl = TrafficLight("v", (frozenset({"a"}), frozenset({"b"})), 10.0)
    period = 10.0 * 2
    for t in np.linspace(0, 60, 241):
        assert tl.is_green("a", t) == tl.is_green("a", t + period)
        assert tl.is_green("a", t) != tl.is_green("b", t)


def test_lane_count_bounds_rejected():
    v = [Vertex("a", 0, 0), Vertex("b", 100, 0)]
    bad = [Edge("a>b", "a", "b", 0, 100.0), Edge("b>a", "b", "a", 2, 100.0)]
    with pytest.raises(GraphError, match="lane_count"):
        RoadGraph(v, bad).validate()


def test_edge_length_must_match_geometry():
    v = [Vertex("a", 0, 0), Vertex("b", 100, 0)]
    bad = [Edge("a>b", "a", "b", 1, 150.0), Edge("b>a", "b", "a", 1, 100.0)]
    with pytest.raises(GraphError, match="length"):
        RoadGraph(v, bad).validate()


def test_disconnected_graph_lists_unreachable():
    v = [Vertex("a", 0, 0), Vertex("b", 100, 0), Vertex("c", 200, 0)]
    edges = [Edge("a>b", "a", "b", 1, 100.0),
             Edge("b>a", "b", "a", 1, 100.0)]
    with pytest.raises(GraphError, match="c"):
        RoadGraph(v, edges).validate()


def test_plan_trip_two_vertex_graph():
    v = [Vertex("a", 0, 0), Vertex("b", 100, 0)]
    edges = [Edge("a>b", "a", "b", 1, 100.0),
             Edge("b>a", "b", "a", 1, 100.0)]
    g = RoadGraph(v, edges).validate()
    rng = RngStreams(1).stream("mobility")
    trip = plan_trip(rng, g, "a")
    assert trip.destination == "b"
    assert trip.path == ["a>b"]


def test_plan_trip_grid_corner_to_corner_length():
    g = generate_grid(3, 3, 100.0)
    path = g.shortest_path("g0_0", "g2_2")
    assert len(path) == 4   # Manhattan distance on the grid


def test_pause_sampling_bounds_and_mean():
    g = generate_grid(2, 2, 100.0)
    rng = RngStreams(7).stream("mobility")
    pauses = [plan_trip(rng, g, "g0_0").pause for _ in range(10_000)]
    assert min(pauses) >= 2.0
    assert max(pauses) <= 6.0
    assert abs(np.mean(pauses) - 4.0) < 0.05


def test_plan_trip_destination_indexes_the_other_vertices_in_sorted_order():
    g = generate_grid(4, 4, 100.0)
    assert g.vertex_ids == sorted(g.vertices)
    for seed in range(1, 6):
        rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        for origin in g.vertex_ids:
            trip = plan_trip(rng, g, origin)
            k = int(oracle.integers(0, len(g.vertices) - 1))
            oracle.uniform(2.0, 6.0)          # the trip's stay, drawn after the destination
            assert trip.destination == sorted(v for v in g.vertices if v != origin)[k]


def test_trips_are_loop_free():
    g = generate_grid(4, 4, 250.0)
    rng = RngStreams(3).stream("mobility")
    for _ in range(200):
        origin = sorted(g.vertices)[int(rng.integers(0, len(g.vertices)))]
        trip = plan_trip(rng, g, origin)
        visited = [origin] + [g.edges[e].dst for e in trip.path]
        assert len(set(visited)) == len(visited)


def _random_small_graph(rng: random.Random):
    """Random strongly-connected digraph with <= 8 vertices (bidirectional edges)."""
    n = rng.randint(3, 8)
    names = [f"v{i}" for i in range(n)]
    while True:
        verts = [Vertex(names[i], rng.uniform(0, 500), rng.uniform(0, 500))
                 for i in range(n)]
        coords = {v.id: v for v in verts}
        pairs = set()
        for i in range(1, n):   # random spanning tree keeps it connected
            j = rng.randrange(i)
            pairs.add((names[i], names[j]))
        for _ in range(rng.randint(0, n)):
            a, b = rng.sample(names, 2)
            pairs.add((a, b))
        edges = []
        for a, b in sorted(pairs):
            va, vb = coords[a], coords[b]
            length = math.hypot(va.x - vb.x, va.y - vb.y)
            if length == 0:
                break
            edges.append(Edge(edge_id(a, b), a, b, 1, length))
            edges.append(Edge(edge_id(b, a), b, a, 1, length))
        else:
            return RoadGraph(verts, edges).validate()


def _brute_force_shortest(g: RoadGraph, src, dst):
    """Oracle: exhaustive simple-path search over edge lengths."""
    best = math.inf
    stack = [(src, 0.0, {src})]
    while stack:
        node, dist, seen = stack.pop()
        if node == dst:
            best = min(best, dist)
            continue
        for e in g.out_edges[node]:
            if e.dst not in seen:
                stack.append((e.dst, dist + e.length, seen | {e.dst}))
    return best


def test_shortest_path_matches_brute_force_oracle():
    rng = random.Random(2024)
    for _ in range(20):
        g = _random_small_graph(rng)
        names = sorted(g.vertices)
        for src, dst in itertools.islice(itertools.permutations(names, 2), 12):
            path = g.shortest_path(src, dst)
            total = sum(g.edges[e].length for e in path)
            assert total == pytest.approx(_brute_force_shortest(g, src, dst))
