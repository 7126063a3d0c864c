"""Multipath discovery: disjoint path sets, single-path topologies, failover."""

import pytest

from vanetbench.packets import KIND_CONTROL
from vanetbench.routing import aodv, aomdv

from conftest import fast_convergence_config, line_positions, make_net

DIAMOND = {0: (0.0, 0.0), 1: (150.0, 150.0), 2: (300.0, 0.0), 3: (150.0, -150.0)}


def origin_rreq_floods(net, origin=0):
    return sum(1 for r in net.trace.records
               if r.layer == "mac" and r.event == "sent"
               and r.kind == KIND_CONTROL and r.node == origin)


def test_diamond_installs_two_link_disjoint_paths():
    net = make_net(DIAMOND, "aomdv")
    net.send_data(0, 2)
    net.run_for(2.0)
    entry = net.nodes[0].table[2]
    alive = entry.alive_paths(net.sim.now)
    assert len(alive) == 2
    next_hops = {p.next_hop for p in alive}
    last_hops = {p.last_hop for p in alive}
    assert next_hops == {1, 3}
    assert len(last_hops) == 2          # pairwise distinct next AND last hops
    assert all(p.hop_count == 2 for p in alive)
    assert net.aggregator.received() == 1


def test_line_topology_single_path():
    net = make_net(line_positions(4, 240.0), "aomdv")
    net.send_data(0, 3)
    net.run_for(3.0)
    entry = net.nodes[0].table[3]
    assert len(entry.alive_paths(net.sim.now)) == 1


def test_failover_without_new_discovery():
    cfg = fast_convergence_config("aomdv")
    cfg.routing.aodv_route_timeout = 60.0    # keep the backup path alive
    net = make_net(DIAMOND, "aomdv", cfg=cfg)
    net.send_data(0, 2)
    net.run_for(2.0)
    entry = net.nodes[0].table[2]
    primary = entry.alive_paths(net.sim.now)[0].next_hop
    backup = 3 if primary == 1 else 1
    floods_before = origin_rreq_floods(net)
    # primary next hop disappears; retries fail, the entry fails over in place
    net.coords[primary] = (80_000.0, 0.0)
    net.channel.bump_geometry()
    net.send_data(0, 2)
    net.run_for(3.0)
    net.send_data(0, 2)
    net.run_for(3.0)
    assert net.aggregator.received() >= 2
    assert net.nodes[0].route_lookup(2) == backup
    assert origin_rreq_floods(net) == floods_before   # no new flood from 0


def test_paths_capped_at_max_paths():
    # five parallel relays between 0 and 2
    pos = {0: (0.0, 0.0), 2: (400.0, 0.0)}
    for i, y in zip((1, 3, 4, 5, 6), (200.0, 100.0, -100.0, -200.0, 0.0)):
        pos[i] = (200.0, y)
    net = make_net(pos, "aomdv")
    net.send_data(0, 2)
    net.run_for(3.0)
    entry = net.nodes[0].table[2]
    alive = entry.alive_paths(net.sim.now)
    assert 1 <= len(alive) <= net.cfg.routing.aomdv_max_paths == 3
    # disjointness invariant holds at the entry level
    assert len({p.next_hop for p in alive}) == len(alive)
    assert len({p.last_hop for p in alive}) == len(alive)


def test_paths_respect_advertised_hop_count():
    net = make_net(DIAMOND, "aomdv")
    net.send_data(0, 2)
    net.run_for(2.0)
    for node in net.nodes.values():
        for entry in node.table.values():
            for p in entry.paths:
                assert p.hop_count <= entry.advertised_hops


@pytest.mark.parametrize("protocol,module,first_hop", [("aomdv", aomdv, 1),
                                                       ("aodv", aodv, None)])
def test_a_rreq_first_forwarder_writes_itself_as_first_hop_under_aomdv_only(
        protocol, module, first_hop):
    net = make_net(line_positions(3, 240.0), protocol)
    relay = net.nodes[1]
    sent = []
    send_control = relay.send_control

    def spy(payload, size, **kw):
        sent.append((payload, size))
        send_control(payload, size, **kw)

    relay.send_control = spy
    net.send_data(0, 2)
    net.run_for(3.0)
    rreqs = [(msg, size) for msg, size in sent if isinstance(msg, aodv.Rreq)]
    assert rreqs and net.aggregator.received() == 1
    assert all(msg.first_hop == first_hop and size == module.RREQ_SIZE
               for msg, size in rreqs)
