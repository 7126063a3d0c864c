"""On-demand discovery, reverse paths, error propagation, re-discovery."""

import random
from collections import deque

import pytest

from vanetbench.core import Simulator
from vanetbench.packets import BROADCAST, KIND_CONTROL, Packet
from vanetbench.routing.aodv import RREQ_SIZE, Rerr, Rreq
from vanetbench.routing.base import RecentKeys
from vanetbench.scenario import ScenarioConfig
from vanetbench.simulation import Simulation

from conftest import fast_convergence_config, line_positions, make_net


def control_sends(net, payload_type=None):
    out = []
    for r in net.trace.records:
        if r.layer == "mac" and r.event == "sent" and r.kind == KIND_CONTROL:
            out.append(r)
    return out


def test_two_nodes_one_exchange_installs_hop_one():
    net = make_net(line_positions(2, 150.0), "aodv")
    net.run_for(0.1)
    net.send_data(0, 1)
    net.run_for(1.0)
    entry = net.nodes[0].table[1]
    assert entry.hop_count == 1
    assert entry.next_hop == 1
    assert net.aggregator.received() == 1
    # exactly one RREQ broadcast and one RREP unicast
    assert len(control_sends(net)) == 2


def test_five_node_line_hop_count_matches_bfs():
    net = make_net(line_positions(5, 240.0), "aodv")
    net.send_data(0, 4)
    net.run_for(3.0)
    entry = net.nodes[0].table[4]
    assert entry.hop_count == 4
    assert net.aggregator.received() == 1
    assert net.aggregator.forwards() == 3


def test_partitioned_destination_drops_after_retries():
    pos = line_positions(3, 200.0)
    pos[3] = (50_000.0, 0.0)
    net = make_net(pos, "aodv")
    net.send_data(0, 3)
    net.run_for(3.0)
    net.close()
    agg = net.aggregator
    assert agg.received() == 0
    drops = agg.drops_by_reason.get("cbr", {})
    assert drops.get("no-route") == 1
    # ring TTLs 1, 3, 7: exactly three request waves from the origin
    origin_rreqs = [r for r in control_sends(net) if r.node == 0]
    assert len(origin_rreqs) == 3


def test_rerr_propagates_to_precursors():
    net = make_net(line_positions(4, 240.0), "aodv")
    rerrs = {node: [] for node in net.nodes}
    for node, r in net.nodes.items():
        def send_control(payload, size, dest=BROADCAST, send=r.send_control, node=node):
            if type(payload) is Rerr:
                rerrs[node].append(payload.unreachable)
            send(payload, size, dest)
        r.send_control = send_control
    net.send_data(0, 3)
    net.run_for(2.0)
    assert net.aggregator.received() == 1
    # destination vanishes; next packet trips retries at node 2, RERR walks back
    net.coords[3] = (90_000.0, 0.0)
    net.channel.bump_geometry()
    net.send_data(0, 3)
    net.run_for(3.0)
    for node in (2, 1, 0):
        entry = net.nodes[node].table.get(3)
        assert entry is not None and not entry.valid
    # 2 lost its next hop and 1 relays the error; the origin has no precursor
    assert [len(rerrs[n]) for n in (3, 2, 1, 0)] == [0, 1, 1, 0]
    assert all(dest == 3 for sent in rerrs.values() for u in sent for dest, _ in u)
    net.close()


def test_break_on_unused_neighbor_sends_no_rerr():
    net = make_net(line_positions(3, 200.0), "aodv")
    net.run_for(0.5)
    before = len(control_sends(net))
    net.nodes[2].on_link_break(1)
    net.run_for(0.5)
    assert len(control_sends(net)) == before


def test_rediscovery_after_midrun_break_with_alternate_path():
    # diamond: 0 reaches 2 via 1 (top) or 3 (bottom); legs 200 m, 0-2 out of range
    pos = {0: (0.0, 0.0), 1: (150.0, 150.0), 2: (300.0, 0.0), 3: (150.0, -150.0)}
    net = make_net(pos, "aodv")
    net.send_data(0, 2)
    net.run_for(2.0)
    assert net.aggregator.received() == 1
    first_hop = net.nodes[0].table[2].next_hop
    other = 3 if first_hop == 1 else 1
    net.coords[first_hop] = (70_000.0, 0.0)
    net.channel.bump_geometry()
    net.send_data(0, 2)
    net.run_for(5.0)
    net.send_data(0, 2)
    net.run_for(5.0)
    assert net.aggregator.received() >= 2      # delivery resumed
    assert net.nodes[0].table[2].next_hop == other


def test_duplicate_rreqs_not_reflooded():
    # triangle, everyone in range: each node forwards a given discovery once
    pos = {0: (0.0, 0.0), 1: (100.0, 0.0), 2: (50.0, 90.0), 3: (150.0, 90.0)}
    net = make_net(pos, "aodv")
    net.send_data(0, 3)
    net.run_for(2.0)
    rreq_by_node = {}
    for r in control_sends(net):
        rreq_by_node[r.node] = rreq_by_node.get(r.node, 0) + 1
    # origin floods once; intermediates forward at most once; dest replies once
    assert rreq_by_node.get(0, 0) == 1
    assert all(n <= 2 for n in rreq_by_node.values())


def test_route_expires_without_use():
    cfg = fast_convergence_config("aodv")
    cfg.routing.aodv_route_timeout = 0.5
    net = make_net(line_positions(2, 150.0), "aodv", cfg=cfg)
    net.send_data(0, 1)
    net.run_for(0.3)
    assert net.nodes[0].route_lookup(1) == 1
    net.run_for(2.0)
    assert net.nodes[0].route_lookup(1) is None


# -- bounded duplicate suppression -------------------------------------------------

def test_recent_keys_forget_a_key_one_horizon_after_it_was_stored():
    sim = Simulator()
    seen = RecentKeys(sim, 1.0)
    seen[(0, 1)] = 3
    sim.run_until(0.5)
    seen[(0, 2)] = 1
    seen[(0, 1)] = 2            # an update keeps the first-stored time
    sim.run_until(1.2)
    seen[(5, 1)] = 0            # storing a new key evicts the expired ones
    assert dict(seen) == {(0, 2): 1, (5, 1): 0}


def test_recent_keys_hold_exactly_the_keys_stored_within_the_horizon():
    sim = Simulator()
    seen = RecentKeys(sim, 1.0)
    born = {}                   # key -> first-stored time, while the key is held
    rng = random.Random(34)
    for step in range(1, 3000):
        sim.run_until(step * 0.004)
        key = rng.randrange(400)
        if key not in born:
            born = {k: t for k, t in born.items() if t >= sim.now - 1.0}
            born[key] = sim.now
        seen[key] = step
    assert len(born) < 400           # keys were evicted, some of them stored again
    assert set(seen) == set(born)
    # every deque of the table is aligned with the dict: one entry per key held
    assert {len(v) for v in vars(seen).values() if isinstance(v, deque)} == {len(seen)}


def _seen_keys(buffer_timeout):
    cfg = ScenarioConfig()
    cfg.run.vehicles = 30
    cfg.traffic.cbr_connections = 10
    cfg.run.duration = 6.0
    cfg.routing.buffer_timeout = buffer_timeout
    sim = Simulation(cfg)
    sim.run()
    return sum(len(node.seen) for node in sim.nodes.values())


def test_rreq_duplicate_table_stays_bounded():
    bounded = _seen_keys(1.0)           # keys expire after 1 s
    unbounded = _seen_keys(30.0)        # longer than the run: nothing expires
    assert 0 < 3 * bounded < unbounded


def test_rreq_copy_older_than_the_horizon_is_ignored():
    cfg = fast_convergence_config("aodv")
    cfg.routing.buffer_timeout = 0.5
    net = make_net(line_positions(3, 240.0), "aodv", cfg=cfg)
    net.run_for(1.0)
    r = net.nodes[1]

    def deliver(flood_time, rreq_id):
        rreq = Rreq(0, rreq_id, 1, 2, -1, 0, 3, flood_time)
        r.on_control(Packet(KIND_CONTROL, -1, RREQ_SIZE, 900 + rreq_id,
                            payload=rreq), 0)

    deliver(net.sim.now - 0.5, rreq_id=1)
    assert (0, 1) not in r.seen and 0 not in r.table
    deliver(net.sim.now - 0.4, rreq_id=2)
    assert (0, 2) in r.seen and r.table[0].next_hop == 0
