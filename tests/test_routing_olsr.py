"""Link sensing, MPR election, TC flooding and shortest-path tables."""

import random

import pytest

from vanetbench.routing.olsr import select_mprs

from conftest import (adjacency, bfs_distances, line_positions, make_net,
                      random_connected_positions, walk_next_hops)

STAR = {0: (0.0, 0.0), 1: (200.0, 0.0), 2: (-200.0, 0.0),
        3: (0.0, 200.0), 4: (0.0, -200.0)}


def test_select_mprs_unique_coverage_first():
    mprs = select_mprs({1, 2, 3}, {1: {10}, 2: {11}, 3: set()})
    assert mprs == {1, 2}


def test_select_mprs_greedy_by_coverage():
    mprs = select_mprs({1, 2, 3}, {1: {10, 11}, 2: {10, 11, 12}, 3: {12}})
    assert mprs == {2}


def test_select_mprs_empty_without_two_hop():
    assert select_mprs({1, 2}, {1: set(), 2: set()}) == set()


def test_select_mprs_tie_breaks_to_smallest_id():
    mprs = select_mprs({1, 2}, {1: {10}, 2: {10}})
    assert mprs == {1}


def test_star_leaves_elect_center():
    net = make_net(STAR, "olsr")
    net.run_for(4.0)
    for leaf in (1, 2, 3, 4):
        r = net.stacks[leaf].routing
        assert r.mpr_set == {0}
    # the hub heard itself selected by every leaf
    assert set(net.stacks[0].routing.mpr_selectors) == {1, 2, 3, 4}


def test_full_mesh_has_empty_mpr_sets():
    mesh = {0: (0, 0), 1: (60, 0), 2: (0, 60), 3: (60, 60)}
    net = make_net(mesh, "olsr")
    net.run_for(4.0)
    for stack in net.stacks.values():
        assert stack.routing.mpr_set == set()


def test_star_routes_between_leaves_via_center():
    net = make_net(STAR, "olsr")
    net.run_for(6.0)
    for leaf in (1, 2, 3, 4):
        for other in (1, 2, 3, 4):
            if other != leaf:
                assert net.stacks[leaf].routing.route_lookup(other) == 0


def test_random_graph_mpr_coverage_and_bfs_after_three_tc_periods():
    rng = random.Random(606)
    pos = random_connected_positions(rng, 6)
    net = make_net(pos, "olsr", seed=2)
    net.run_for(3 * net.cfg.routing.olsr_tc_interval + 2.0)
    adj = adjacency(pos)
    for node, stack in net.stacks.items():
        r = stack.routing
        # every strict two-hop neighbor is covered through some MPR
        neighbors = r._sym_neighbors()
        assert neighbors == adj[node]
        strict = set()
        covered = set()
        for n in neighbors:
            two = set(r.two_hop.get(n, (set(), 0))[0]) - {node}
            strict |= two
            if n in r.mpr_set:
                covered |= two
        strict -= neighbors
        assert strict <= covered | neighbors
        # hop counts equal BFS distances
        dist = bfs_distances(adj, node)
        for dst in pos:
            if dst == node:
                continue
            path = walk_next_hops(
                lambda u, d: net.stacks[u].routing.route_lookup(d),
                node, dst, max_steps=len(pos))
            assert path is not None, f"{node}->{dst} unroutable"
            assert len(path) - 1 == dist[dst]


def test_link_break_drops_neighbor_immediately():
    net = make_net(STAR, "olsr")
    net.run_for(4.0)
    r = net.stacks[1].routing
    assert r.route_lookup(0) == 0
    r.on_link_break(0)
    assert r.route_lookup(0) is None


def test_state_of_a_node_that_left_expires():
    net = make_net(line_positions(4, 200.0), "olsr")
    net.run_for(6.0)
    r0, r1, r2 = (net.stacks[i].routing for i in range(3))
    assert r0.route_lookup(3) == 1
    assert 2 in r0.topology
    assert r1.mpr_set == {2} and set(r2.mpr_selectors) == {1, 3}
    net.coords[3] = (1e6, 0.0)                 # node 3 leaves everyone's range
    net.channel.bump_geometry()
    net.run_for(6.0)                           # past every hold time
    assert r0.route_lookup(3) is None
    assert 2 not in r0.topology                # nobody selects 2 as MPR: 2 sends no TC
    assert r1.mpr_set == set() and r2.mpr_selectors == {}
    assert sorted(r2.links) == [1]
