"""Sequenced distance vectors: convergence, revocation, metric ties, settling."""

import math

import pytest

from vanetbench.packets import KIND_CONTROL, Packet
from vanetbench.routing.dsdv import DsdvUpdate

from conftest import fast_convergence_config, line_positions, make_net


def test_three_node_line_converges_to_bfs_within_two_dumps():
    net = make_net(line_positions(3, 240.0), "dsdv")
    net.run_for(2 * net.cfg.routing.dsdv_full_dump_interval + 1.0)
    r0 = net.nodes[0]
    assert r0.route_lookup(1) == 1
    assert r0.route_lookup(2) == 1
    assert r0.table[1].metric == 1
    assert r0.table[2].metric == 2
    r2 = net.nodes[2]
    assert r2.route_lookup(0) == 1
    assert r2.table[0].metric == 2


def test_silent_neighbor_marked_broken_with_odd_seq():
    net = make_net(line_positions(2, 200.0), "dsdv")
    net.run_for(5.0)
    assert net.nodes[0].route_lookup(1) == 1
    net.coords[1] = (60_000.0, 0.0)
    net.channel.bump_geometry()
    # silence beyond twice the dump interval triggers revocation
    net.run_for(3 * net.cfg.routing.dsdv_full_dump_interval + 1.0)
    entry = net.nodes[0].table[1]
    assert entry.dest_seq % 2 == 1
    assert entry.metric == math.inf
    assert net.nodes[0].route_lookup(1) is None


def _inject(net, node, from_node, entries):
    pkt = Packet(KIND_CONTROL, -1, 32, 9000 + from_node,
                 payload=DsdvUpdate(entries))
    net.nodes[node].on_control(pkt, from_node)


def test_equal_seq_keeps_lower_metric_in_both_orders():
    net = make_net({0: (0, 0), 1: (100, 0), 2: (0, 100)}, "dsdv")
    r = net.nodes[0]
    _inject(net, 0, 1, [(9, 1, 10)])    # metric becomes 2 via node 1
    _inject(net, 0, 2, [(9, 2, 10)])    # same seq, worse metric: ignored
    assert r.table[9].metric == 2 and r.table[9].next_hop == 1

    _inject(net, 0, 2, [(8, 2, 10)])    # metric 3 via node 2 first
    _inject(net, 0, 1, [(8, 1, 10)])    # then better metric 2: adopted
    assert r.table[8].metric == 2 and r.table[8].next_hop == 1


def test_newer_seq_wins_even_with_worse_metric():
    net = make_net({0: (0, 0), 1: (100, 0), 2: (0, 100)}, "dsdv")
    r = net.nodes[0]
    _inject(net, 0, 1, [(9, 1, 10)])
    _inject(net, 0, 2, [(9, 4, 12)])
    assert r.table[9].metric == 5 and r.table[9].next_hop == 2


def test_broken_advert_adopted_then_repaired():
    net = make_net({0: (0, 0), 1: (100, 0), 2: (0, 100)}, "dsdv")
    r = net.nodes[0]
    _inject(net, 0, 1, [(9, 1, 10)])
    _inject(net, 0, 1, [(9, None, 11)])     # odd seq revocation
    assert r.route_lookup(9) is None
    _inject(net, 0, 2, [(9, 1, 12)])        # fresh even seq repairs
    assert r.route_lookup(9) == 2


def test_routes_advertised_only_after_settling():
    cfg = fast_convergence_config("dsdv")
    cfg.routing.dsdv_settling_time = 5.0
    cfg.routing.dsdv_full_dump_interval = 2.0
    net = make_net({0: (0, 0), 1: (100, 0), 2: (0, 100)}, "dsdv", cfg=cfg)
    r = net.nodes[0]
    _inject(net, 0, 1, [(9, 1, 10)])
    advertised = {d for d, _, _ in r._advertised_entries()}
    assert 9 not in advertised               # still settling
    net.run_for(6.0)
    advertised = {d for d, _, _ in r._advertised_entries()}
    assert 9 in advertised


def test_link_break_marks_everything_via_neighbor():
    net = make_net(line_positions(3, 240.0), "dsdv")
    net.run_for(5.0)
    r0 = net.nodes[0]
    assert r0.route_lookup(2) == 1
    r0.on_link_break(1)
    assert r0.route_lookup(1) is None
    assert r0.route_lookup(2) is None
    assert r0.table[2].dest_seq % 2 == 1
