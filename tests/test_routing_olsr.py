"""Link sensing, MPR election, TC flooding and shortest-path tables."""

import math
import random
from collections import defaultdict, deque

import pytest
from hypothesis import given, strategies as st

from vanetbench.routing import olsr
from vanetbench.routing.olsr import SYM, select_mprs
from vanetbench.scenario import ScenarioConfig
from vanetbench.simulation import Simulation

from conftest import (adjacency, bfs_distances, line_positions, make_net,
                      random_connected_positions, record_dispatch_log, walk_next_hops)

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
        r = net.nodes[leaf]
        assert r.mpr_set == {0}
    # the hub heard itself selected by every leaf
    assert set(net.nodes[0].mpr_selectors) == {1, 2, 3, 4}


def test_full_mesh_has_empty_mpr_sets():
    mesh = {0: (0, 0), 1: (60, 0), 2: (0, 60), 3: (60, 60)}
    net = make_net(mesh, "olsr")
    net.run_for(4.0)
    for node in net.nodes.values():
        assert node.mpr_set == set()


def test_star_routes_between_leaves_via_center():
    net = make_net(STAR, "olsr")
    net.run_for(6.0)
    for leaf in (1, 2, 3, 4):
        for other in (1, 2, 3, 4):
            if other != leaf:
                assert net.nodes[leaf].route_lookup(other) == 0


def test_random_graph_mpr_coverage_and_bfs_after_three_tc_periods():
    rng = random.Random(606)
    pos = random_connected_positions(rng, 6)
    net = make_net(pos, "olsr", seed=2)
    net.run_for(3 * net.cfg.routing.olsr_tc_interval + 2.0)
    adj = adjacency(pos)
    for node, r in net.nodes.items():
        # every strict two-hop neighbor is covered through some MPR
        neighbors = r._sym_neighbors()
        assert neighbors == adj[node]
        strict = set()
        covered = set()
        for n in neighbors:
            two = set(r.links[n].sym) - {node}
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
                lambda u, d: net.nodes[u].route_lookup(d),
                node, dst, max_steps=len(pos))
            assert path is not None, f"{node}->{dst} unroutable"
            assert len(path) - 1 == dist[dst]


def test_link_break_drops_neighbor_immediately():
    net = make_net(STAR, "olsr")
    net.run_for(4.0)
    r = net.nodes[1]
    assert r.route_lookup(0) == 0
    r.on_link_break(0)
    assert r.route_lookup(0) is None


def test_state_of_a_node_that_left_expires():
    net = make_net(line_positions(4, 200.0), "olsr")
    net.run_for(6.0)
    r0, r1, r2 = (net.nodes[i] for i in range(3))
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


def test_an_entry_lives_until_heard_plus_hold_and_not_past_it():
    net = make_net({0: (0.0, 0.0)}, "olsr")          # a lone node: nothing refreshes
    r = net.nodes[0]
    heard = 1.3

    def hear():
        # neighbor 5 selects node 0 as its MPR; origin 7's TC names 5
        r._on_hello(olsr.Hello([(0, SYM, True)], frozenset({0, 9})), 5)
        r._on_tc(olsr.Tc(7, 1, (5,)), 5)

    def alive_after_expire_at(t):
        net.sim.run_until(t)
        r._expire()
        return 5 in r.links, 5 in r.mpr_selectors, 7 in r.topology

    net.sim.schedule(heard, hear, target="test.hear")
    link_end = heard + r.cfg.hold_multiplier * r.cfg.olsr_hello_interval
    tc_end = heard + r.cfg.hold_multiplier * r.cfg.olsr_tc_interval
    assert link_end < tc_end
    assert alive_after_expire_at(math.nextafter(link_end, 0.0)) == (True, True, True)
    assert r.links[5].heard == r.mpr_selectors[5] == r.topology[7] == heard
    assert alive_after_expire_at(link_end) == (False, False, True)
    assert alive_after_expire_at(math.nextafter(tc_end, 0.0)) == (False, False, True)
    assert alive_after_expire_at(tc_end) == (False, False, False)
    assert r.seen_tc[7].seq == 1        # the newest seq outlives its topology entry


def listing_select_mprs(neighbors: set, two_hop: dict) -> set:
    """The election as first written: a scan over every neighbor for each
    strict two-hop target. Reference for the coverage-counting version."""
    strict = set()
    for n, covered in two_hop.items():
        strict |= covered
    strict -= neighbors
    mprs = set()
    uncovered = set(strict)
    for target in sorted(strict):
        holders = [n for n in neighbors if target in two_hop.get(n, ())]
        if len(holders) == 1:
            mprs.add(holders[0])
    for m in mprs:
        uncovered -= two_hop.get(m, set())
    while uncovered:
        best = None
        best_gain = -1
        for n in sorted(neighbors - mprs):
            gain = len(uncovered & two_hop.get(n, set()))
            if gain > best_gain:
                best, best_gain = n, gain
        if best is None or best_gain <= 0:
            break
        mprs.add(best)
        uncovered -= two_hop.get(best, set())
    return mprs


node_ids = st.integers(0, 24)


# two-hop sets may name neighbors, and may be missing for some neighbors or
# given for nodes that are not neighbors, as stale link state can leave them
@given(st.sets(node_ids, max_size=12),
       st.dictionaries(node_ids, st.sets(node_ids, max_size=12)))
def test_select_mprs_equals_the_listing_election(neighbors, two_hop):
    assert select_mprs(neighbors, two_hop) == listing_select_mprs(neighbors, two_hop)


def olsr_simulation(vehicles, duration):
    """Short OLSR intervals, so that links and TC entries also expire in the run."""
    cfg = ScenarioConfig()
    cfg.routing.protocol = "olsr"
    cfg.routing.olsr_hello_interval = 0.5
    cfg.routing.olsr_tc_interval = 1.0
    cfg.run.vehicles = vehicles
    cfg.run.duration = duration
    return Simulation(cfg)


def fresh_mprs(r):
    neighbors = {n for n, info in r.links.items() if info.status == SYM}
    return select_mprs(neighbors, {n: set(r.links[n].sym) - {r.node_id} for n in neighbors})


def fresh_next_hops(r):
    """Next hop per destination from a BFS over links, two-hop sets and topology."""
    adj = {}

    def connect(a, b):
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)

    me = r.node_id
    for n, info in r.links.items():
        if info.status == SYM:
            connect(me, n)
        for x in info.sym:
            connect(n, x)
    for origin in r.topology:
        for s in r.seen_tc[origin].selectors:
            connect(origin, s)
    first_hop = {me: me}
    q = deque([me])
    while q:
        u = q.popleft()
        for v in sorted(adj.get(u, ())):
            if v not in first_hop:
                first_hop[v] = v if u == me else first_hop[u]
                q.append(v)
    return {d: nh for d, nh in first_hop.items()
            if d != me and nh in r.links and r.links[nh].status == SYM}


def raw_next_hops(r):
    """The route table a BFS over the node's current links, two-hop tuples and
    topology gives, before `route_lookup`'s filter of non-symmetric first hops."""
    me = r.node_id
    adj = defaultdict(set)
    edges = [(me, n) for n, info in r.links.items() if info.status == SYM]
    edges += [(n, x) for n, info in r.links.items() for x in info.sym]
    edges += [(o, s) for o in r.topology for s in r.seen_tc[o].selectors]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    first_hop = {me: me}
    q = deque([me])
    while q:
        u = q.popleft()
        for v in sorted(adj[u] - first_hop.keys()):
            first_hop[v] = v if u == me else first_hop[u]
            q.append(v)
    del first_hop[me]
    return first_hop


def test_every_receiver_of_a_message_holds_its_one_hello_set_or_tc_tuple():
    net = olsr_simulation(vehicles=40, duration=4.0)
    net.run()
    hellos, tcs = defaultdict(list), defaultdict(list)
    for r in net.nodes.values():
        # a HELLO ends at one instant, so all its receivers store one heard time
        for nbr, info in r.links.items():
            hellos[nbr, info.heard].append(info)
        for origin in r.topology:
            tc = r.seen_tc[origin]
            tcs[origin, tc.seq].append(tc)
    shared_hellos = [infos for infos in hellos.values() if len(infos) > 1]
    shared_tcs = [objs for objs in tcs.values() if len(objs) > 1]
    assert shared_hellos and shared_tcs
    for infos in shared_hellos:
        first = infos[0]
        assert type(first.sym) is tuple
        assert all(i.sym is first.sym and i.heard is first.heard for i in infos)
    for objs in shared_tcs:
        assert all(type(tc) is olsr.Tc and tc is objs[0] for tc in objs)


def test_lazy_mprs_and_routes_equal_a_fresh_recompute():
    net = olsr_simulation(vehicles=40, duration=6.0)
    checked = []
    held_counts = []

    def check():
        # before any lookup: a table still held was never made stale, so it
        # equals a fresh BFS; the lookups below leave every table held
        held = [(node, r) for node, r in net.nodes.items() if r.routes is not None]
        for node, r in held:
            assert r.routes == raw_next_hops(r), (net.sim.now, node)
        held_counts.append(len(held))
        for node, r in net.nodes.items():
            assert r.mpr_set == fresh_mprs(r), (net.sim.now, node)
            expected = fresh_next_hops(r)
            for dest in net.nodes:
                assert r.route_lookup(dest) == expected.get(dest), (net.sim.now, node, dest)
        checked.append(net.sim.now)

    stops = [k / 8 for k in range(1, 48)]
    for t in stops:
        net.sim.schedule(t, check, target="test.check")
    net.run()
    assert checked == stops
    # TC floods reached the nodes, so the checked routes also crossed TC topology
    assert any(len(r.topology) > 0 for r in net.nodes.values())
    # tables were both held and dropped between checkpoints
    assert 0 < sum(held_counts[1:]) < len(net.nodes) * len(stops[1:])


def test_mpr_election_runs_at_most_once_per_hello_tick(monkeypatch):
    calls = []

    def counting(neighbors, two_hop):
        calls.append(1)
        return select_mprs(neighbors, two_hop)

    monkeypatch.setattr(olsr, "select_mprs", counting)
    net = olsr_simulation(vehicles=30, duration=5.0)
    log = record_dispatch_log(net.sim)
    net.run()
    ticks = sum(1 for _, _, target in log if target == "olsr.hello")
    assert 0 < len(calls) <= ticks
