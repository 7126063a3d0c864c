"""Shared data plane: delivery, forward records, TTL, buffers, no-route drops."""

import pytest

from vanetbench.metrics import conservation_check
from vanetbench.packets import KIND_CBR, Packet

from conftest import fast_convergence_config, line_positions, make_net


def test_local_destination_delivers_without_forward_record():
    net = make_net(line_positions(2, 150.0), "aodv")
    pkt = Packet(KIND_CBR, 0, 512, 777)
    net.trace.add(0.0, "sent", "none", "app", "cbr", 777, None, 1, 512)
    net.nodes[0].on_packet_arrival(pkt, 1)
    received = [r for r in net.trace.records
                if r.layer == "app" and r.event == "received"]
    assert len(received) == 1 and received[0].node == 0
    assert net.aggregator.forwards() == 0


def test_transit_packet_buffered_at_a_relay_is_forwarded_once_when_the_route_arrives():
    net = make_net(line_positions(3, 240.0), "aodv")
    relay = net.nodes[1]
    pid = relay.new_packet_id()
    pkt = Packet(KIND_CBR, 2, 512, pid, None, net.cfg.routing.ttl)
    net.trace.add(0.0, "sent", "none", "app", "cbr", pid, None, 0, 512)
    relay.on_packet_arrival(pkt, 0)         # no route to 2 exists yet
    assert [p for p, _, _ in relay.buffer[2]] == [pkt]
    net.run_for(2.0)
    records = [(r.event, r.node) for r in net.trace.records
               if r.packet_id == pid and r.layer != "mac"]
    assert records == [("sent", 0), ("forwarded", 1), ("received", 2)]
    assert net.aggregator.forwards() == 1


def test_one_hop_no_forward_records():
    net = make_net(line_positions(2, 150.0), "aodv")
    net.send_data(0, 1)
    net.run_for(1.0)
    assert net.aggregator.sent() == 1
    assert net.aggregator.received() == 1
    assert net.aggregator.forwards() == 0


def test_three_hop_route_two_forward_records():
    net = make_net(line_positions(4, 240.0), "aodv")
    net.send_data(0, 3)
    net.run_for(2.0)
    assert net.aggregator.received() == 1
    assert net.aggregator.forwards() == 2


def test_ttl_expiry_drops_with_ttl_reason():
    cfg = fast_convergence_config("aodv")
    cfg.routing.ttl = 2
    net = make_net(line_positions(4, 240.0), "aodv", cfg=cfg)
    net.send_data(0, 3)                     # needs 3 hops, TTL allows 2
    net.run_for(3.0)
    net.close()
    drops = net.aggregator.drops_by_reason.get("cbr", {})
    assert drops.get("ttl") == 1
    assert net.aggregator.received() == 0


def test_proactive_protocol_drops_immediately_without_route():
    net = make_net(line_positions(3, 240.0), "dsdv")
    net.send_data(0, 2)                     # nothing has converged yet
    drops = net.aggregator.drops_by_reason.get("cbr", {})
    assert drops.get("no-route") == 1


def test_reactive_buffer_holds_then_flushes():
    net = make_net(line_positions(3, 240.0), "aodv")
    for _ in range(5):
        net.send_data(0, 2)
    net.run_for(2.0)
    assert net.aggregator.received() == 5


def test_reactive_buffer_overflow_drops_oldest():
    cfg = fast_convergence_config("aodv")
    cfg.routing.buffer_packets = 4
    pos = line_positions(2, 150.0)
    pos[2] = (50_000.0, 0.0)                # unreachable destination
    net = make_net(pos, "aodv", cfg=cfg)
    for _ in range(10):
        net.send_data(0, 2)
    net.run_for(5.0)
    net.close()
    drops = net.aggregator.drops_by_reason.get("cbr", {})
    assert drops.get("no-route") == 10      # all eventually dropped
    assert net.aggregator.received() == 0


def test_buffer_timeout_drops_stale_packets():
    cfg = fast_convergence_config("aodv")
    cfg.routing.buffer_timeout = 0.5
    pos = line_positions(2, 150.0)
    pos[2] = (50_000.0, 0.0)
    net = make_net(pos, "aodv", cfg=cfg)
    net.send_data(0, 2)
    net.run_for(4.0)
    net.close()
    drops = net.aggregator.drops_by_reason.get("cbr", {})
    assert drops.get("no-route") == 1


def test_buffered_packet_expires_when_the_next_one_for_its_destination_waits():
    cfg = fast_convergence_config("aodv")
    cfg.routing.buffer_timeout = 0.2
    cfg.routing.aodv_node_traversal = 1.0   # the first discovery lasts 2 s
    pos = line_positions(2, 150.0)
    pos[2] = (50_000.0, 0.0)                # unreachable destination
    net = make_net(pos, "aodv", cfg=cfg)
    net.run_for(0.1)
    first = net.send_data(0, 2)
    net.run_for(0.5)
    assert not [r for r in net.trace.records if r.event == "dropped"]
    second = net.send_data(0, 2)
    drops = [(r.time, r.packet_id, r.reason) for r in net.trace.records
             if r.event == "dropped"]
    assert drops == [(pytest.approx(0.6), first.packet_id, "no-route")]
    assert [p for p, _, _ in net.nodes[0].buffer[2]] == [second]


def test_close_drops_a_buffered_packet_once_at_its_source():
    pos = line_positions(2, 150.0)
    pos[2] = (50_000.0, 0.0)                # unreachable: the packet waits for a route
    net = make_net(pos, "aodv")
    pkt = net.send_data(0, 2, size=300, flow_id=5)
    net.run_for(0.01)
    assert [p for p, _, _ in net.nodes[0].buffer[2]] == [pkt]
    net.close()
    closing = [(r.layer, r.packet_id, r.flow_id, r.node, r.size) for r in net.trace.records
               if r.event == "dropped" and r.reason == "none"]
    assert closing == [("app", pkt.packet_id, 5, 0, 300)]
    conservation_check(net.aggregator)
    written = len(net.trace.records)
    net.close()
    assert len(net.trace.records) == written
