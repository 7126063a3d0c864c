"""Queue admission, CSMA timing, unicast retries, broadcast service."""

import tracemalloc

import numpy as np
import pytest

from vanetbench import phy
from vanetbench.core import Simulator
from vanetbench.mac import CONTEND, Channel, Frame, NodeMac, epoch_block_rows
from vanetbench.metrics import Trace, TraceAggregator, conservation_check
from vanetbench.packets import BROADCAST, KIND_CBR, KIND_PBC, Packet
from vanetbench.scenario import MacConfig, PhyConfig, ScenarioConfig, epoch_bytes
from vanetbench.simulation import Simulation

from conftest import (StaticNetwork, fast_convergence_config, line_positions,
                      record_dispatch_log, recording_trace)


def _packet(pid, dst=1, size=512, kind=KIND_CBR):
    return Packet(kind, dst, size, pid)


class Harness:
    """Two-or-more nodes on an ideal channel with scripted backoffs."""

    def __init__(self, positions, mac_cfg=None, collisions=True, rng_values=None,
                 rng=None):
        self.sim = Simulator()
        self.trace = recording_trace()
        self.agg = self.trace.attach(TraceAggregator())
        self.mac_cfg = mac_cfg or MacConfig()
        phy_cfg = PhyConfig(loss_model="ideal" if rng is None else "nakagami",
                            collisions=collisions)
        coords = np.zeros((len(positions), 2))
        for node, (x, y) in positions.items():
            coords[node] = (x, y)
        if rng is None:
            rng = _ScriptedRng(rng_values) if rng_values is not None \
                else np.random.default_rng(7)
        self.channel = Channel(self.sim, coords, phy_cfg,
                               phy.calibrate_range(phy_cfg), rng, self.trace)
        self.delivered = []
        self.breaks = []
        self.macs = []
        for node in sorted(positions):
            mac = NodeMac(node, self.sim, self.channel, self.mac_cfg, rng,
                          self.trace,
                          deliver_cb=lambda p, frm, n=node: self.delivered.append((n, p, frm)),
                          link_break_cb=lambda nbr, n=node: self.breaks.append((n, nbr)))
            self.macs.append(mac)


class _ScriptedRng:
    """Backoff script: integers() pops from the list, then returns 0."""

    def __init__(self, values):
        self.values = list(values)

    def integers(self, low, high):
        return self.values.pop(0) if self.values else 0

    def standard_gamma(self, shape):
        raise AssertionError("ideal channel must not sample fading")


def test_enqueue_until_capacity_then_ifq_drop():
    h = Harness(line_positions(2, 100.0), rng_values=[0] * 200)
    mac = h.macs[0]
    # hold the medium so nothing drains: schedule first frame far in the future
    accepted = 0
    for pid in range(60):
        if mac.enqueue_packet(_packet(pid), 1):
            accepted += 1
    assert accepted == 50
    drops = [r for r in h.trace.records if r.event == "dropped"]
    assert len(drops) == 10
    assert all(r.reason == "ifq" for r in drops)
    assert len(mac.queue) == 50


def test_drain_one_then_accept_again():
    h = Harness(line_positions(2, 100.0))
    mac = h.macs[0]
    for pid in range(50):
        assert mac.enqueue_packet(_packet(pid), 1)
    assert not mac.enqueue_packet(_packet(99), 1)
    h.sim.run_until(0.01)   # a few frames drain
    assert len(mac.queue) < 50
    assert mac.enqueue_packet(_packet(100), 1)


def test_access_timing_zero_backoff():
    h = Harness(line_positions(2, 100.0), rng_values=[0])
    h.macs[0].enqueue_packet(_packet(0), 1)
    h.sim.run_until(1.0)
    sent = [r for r in h.trace.records if r.event == "sent" and r.layer == "mac"
            and r.kind == "cbr"]
    assert sent[0].time == pytest.approx(h.mac_cfg.difs, abs=1e-12)


def test_access_timing_five_slots():
    h = Harness(line_positions(2, 100.0), rng_values=[5])
    h.macs[0].enqueue_packet(_packet(0), 1)
    h.sim.run_until(1.0)
    sent = [r for r in h.trace.records if r.event == "sent" and r.layer == "mac"
            and r.kind == "cbr"]
    assert sent[0].time == pytest.approx(h.mac_cfg.difs + 5 * h.mac_cfg.slot,
                                         abs=1e-12)


def test_two_contenders_serialize_with_freeze():
    # node0 draws 3 slots, node1 draws 7; broadcast so no ACK traffic interferes
    h = Harness(line_positions(2, 100.0), rng_values=[3, 7])
    h.macs[0].enqueue_packet(_packet(0, dst=BROADCAST), BROADCAST)
    h.macs[1].enqueue_packet(_packet(1, dst=BROADCAST), BROADCAST)
    h.sim.run_until(1.0)
    cfg = h.mac_cfg
    sent = [r for r in h.trace.records if r.event == "sent" and r.layer == "mac"]
    assert len(sent) == 2
    assert sent[0].node == 0
    assert sent[0].time == pytest.approx(cfg.difs + 3 * cfg.slot, abs=1e-12)
    # loser froze at 4 remaining slots, resumed with a fresh DIFS after the frame
    frame_dur = cfg.phy_overhead + 8 * (512 + cfg.mac_overhead) / cfg.bitrate
    expected = sent[0].time + frame_dur + cfg.difs + 4 * cfg.slot
    assert sent[1].node == 1
    assert sent[1].time == pytest.approx(expected, abs=1e-12)
    # deterministic serialization: both frames delivered, no collision
    assert len(h.delivered) == 2


def _mac_sends(h):
    return [(r.node, r.time) for r in h.trace.records
            if r.event == "sent" and r.layer == "mac"]


def _broadcast_at(h, t, node, pid):
    h.sim.schedule(t, lambda: h.macs[node].enqueue_packet(_packet(pid, dst=BROADCAST),
                                                          BROADCAST))


def _freeze_node_0(t0, drawn, t1):
    """Node 0 draws `drawn` slots at t0; node 1 draws none at t1, so it sends
    DIFS later and node 0 senses it. Returns node 1's send time and node 0's."""
    cfg = MacConfig()
    rng_values = [drawn, 0] if t0 <= t1 else [0, drawn]
    h = Harness(line_positions(2, 100.0), mac_cfg=cfg, rng_values=rng_values)
    _broadcast_at(h, t0, 0, 0)
    _broadcast_at(h, t1, 1, 1)
    h.sim.run_until(1.0)
    (first, t_first), (second, t_second) = _mac_sends(h)
    assert (first, second) == (1, 0)
    assert t_first == pytest.approx(t1 + cfg.difs, abs=1e-12)
    return t_first, t_second


def test_a_freeze_inside_difs_consumes_no_slot():
    cfg = MacConfig()
    # node 1 sends at DIFS, half a DIFS into node 0's own DIFS
    busy, sent = _freeze_node_0(cfg.difs / 2, 3, 0.0)
    assert sent == pytest.approx(busy + cfg.airtime(512) + cfg.difs + 3 * cfg.slot,
                                 abs=1e-12)


def test_a_freeze_after_two_and_a_half_slots_consumes_two():
    cfg = MacConfig()
    busy, sent = _freeze_node_0(0.0, 5, 2.5 * cfg.slot)
    assert sent == pytest.approx(busy + cfg.airtime(512) + cfg.difs + 3 * cfg.slot,
                                 abs=1e-12)


def test_a_woken_node_waits_for_the_sensed_frame_that_ends_last():
    # 0 and 2 do not sense each other; 1, between them, senses both
    cfg = MacConfig()
    h = Harness(line_positions(3, 300.0), mac_cfg=cfg, rng_values=[0, 7, 0])
    _broadcast_at(h, 0.0, 0, 0)               # on air from DIFS
    _broadcast_at(h, 0.0, 1, 1)               # frozen by 0's frame, 7 slots left
    t2 = cfg.difs + cfg.airtime(512) / 2
    _broadcast_at(h, t2, 2, 2)                # on air until after 0's frame ends
    h.sim.run_until(1.0)
    sends = dict(_mac_sends(h))
    assert sends[2] == pytest.approx(t2 + cfg.difs, abs=1e-12)
    end_last = sends[2] + cfg.airtime(512)
    assert sends[0] + cfg.airtime(512) < end_last
    assert sends[1] == pytest.approx(end_last + cfg.difs + 7 * cfg.slot, abs=1e-12)


class _FadedUpRng(_ScriptedRng):
    """Scripted backoffs, and every fading sample 20 dB above its mean."""

    def standard_gamma(self, shape):
        return shape * 100.0


def test_decoding_an_unsensed_frame_freezes_the_countdown_at_its_start():
    # 1 sits beyond 0's carrier-sense range, but fading lets it decode 0's
    # frame; it starts counting down 40 slots halfway through that frame
    cfg = MacConfig()
    h = Harness(line_positions(2, 600.0), mac_cfg=cfg, rng=_FadedUpRng([0, 40]))
    assert not h.channel._link_budget(0)[0][1]
    h.sim.schedule(0.0, lambda: h.macs[0].enqueue_packet(_packet(0, dst=1), 1))
    t1 = cfg.difs + cfg.airtime(512) / 2
    _broadcast_at(h, t1, 1, 1)
    h.sim.run_until(1.0)
    assert [(node, pkt.packet_id) for node, pkt, _ in h.delivered] == [(1, 0)]
    # no slot counted down during the frame: 1 re-arms at its end, freezes on
    # its own ACK and counts all 40 slots after the ACK
    (_, t_data), (_, t_ack), (node, t_sent) = _mac_sends(h)
    assert t_ack == pytest.approx(t_data + cfg.airtime(512) + cfg.sifs, abs=1e-12)
    ack_end = t_ack + cfg.airtime(0)
    assert node == 1
    assert t_sent == pytest.approx(ack_end + cfg.difs + 40 * cfg.slot, abs=1e-12)


def test_a_node_whose_backoff_fires_as_a_unicast_to_it_ends_sends_no_ack_over_its_frame():
    # 1 sits beyond 0's carrier-sense range and decodes 0's frame by fading.
    # In exact binary times, 0's frame (46 bytes, 9 slots) ends at the instant
    # 1's 9-slot backoff fires, and the backoff fires first; frames that only
    # touch do not overlap, so 1 decodes the frame while its own is on air.
    # Its ACK fell due with that frame still on air and crashed the run.
    cfg = MacConfig(slot=2.0 ** -16, sifs=2.0 ** -15, phy_overhead=2.0 ** -14,
                    bitrate=2.0 ** 23)
    assert cfg.airtime(46) == 9 * cfg.slot
    h = Harness(line_positions(2, 600.0), mac_cfg=cfg, rng=_FadedUpRng([0, 9]))
    assert not h.channel._link_budget(0)[0][1]
    h.sim.schedule(0.0, lambda: h.macs[0].enqueue_packet(_packet(0, size=46), 1))
    h.sim.schedule(0.0, lambda: h.macs[1].enqueue_packet(
        _packet(1, dst=BROADCAST, size=46), BROADCAST))
    h.sim.run_until(1.0)
    (n0, t_data), (n1, t_bcast), (n2, t_retry), (n3, t_ack) = _mac_sends(h)
    assert (n0, n1, n2, n3) == (0, 1, 0, 1)
    assert t_bcast == t_data + cfg.airtime(46) == cfg.difs + 9 * cfg.slot
    # no ACK: 0 times out and retries, and 1 acknowledges the retry only
    assert t_retry > t_bcast + cfg.airtime(46)
    assert t_ack == t_retry + cfg.airtime(46) + cfg.sifs
    # 0 does not sense 1, so it is no hearer of the broadcast
    assert [(node, pkt.packet_id) for node, pkt, _ in h.delivered] == [(1, 0)]
    assert not h.macs[0].queue and not h.macs[1].queue
    assert not [r for r in h.trace.records if r.event == "dropped"]


def test_nodes_frozen_by_one_frame_with_equal_slots_send_together_in_freeze_order():
    # node 2 starts contending before node 1, so it froze first
    cfg = MacConfig()
    h = Harness(line_positions(3, 100.0), mac_cfg=cfg, rng_values=[0, 4, 4])
    for node in (0, 2, 1):
        _broadcast_at(h, 0.0, node, node)
    h.sim.run_until(1.0)
    sends = _mac_sends(h)
    assert [node for node, _ in sends] == [0, 2, 1]
    expected = sends[0][1] + cfg.airtime(512) + cfg.difs + 4 * cfg.slot
    assert sends[1][1] == sends[2][1] == pytest.approx(expected, abs=1e-12)


def _queued_backoffs(sim):
    return [ev for _, _, ev in sim._queue if ev.target == "mac.backoff" and not ev.cancelled]


def test_one_backoff_event_is_queued_for_the_earliest_contender():
    # 24 nodes 120 m apart on a 6 x 4 grid, each with six frames at t=0:
    # far corners sit beyond each other's carrier sense, so contenders freeze
    # on some frames and not on others, and one can displace another and later
    # be earliest again
    h = Harness({i: (120.0 * (i % 6), 120.0 * (i // 6)) for i in range(24)},
                rng=np.random.default_rng(3))
    channel, sim = h.channel, h.sim
    schedule, contending, pushed, displaced, regained = sim.schedule, [], set(), set(), []

    def key(mac):
        return mac.backoff_end, mac.backoff_seq

    def check():
        live = _queued_backoffs(sim)
        contenders = channel.contenders.values()
        if not channel.contenders:
            assert live == [] and channel.armed is None
        else:
            first = min(contenders, key=key)
            assert channel.armed is first
            assert first._entry in live
            assert (first._entry.fire_time, first._entry.sequence) == key(first)
            contending.append(len(channel.contenders))
        owners = {id(mac._entry): mac for mac in contenders if mac._entry is not None}
        for ev in live:
            mac = owners.pop(id(ev))
            assert (ev.fire_time, ev.sequence) == key(mac)
        assert not owners
        assert all(mac._entry is None for mac in h.macs
                   if mac.node_id not in channel.contenders)
        displaced.update(mac._entry for mac in contenders
                         if mac._entry is not None and mac is not channel.armed)

    def checked_schedule(at, action, target=""):
        def fire():
            if ev in displaced:
                regained.append(ev)
            action()
            check()
        ev = schedule(at, fire, target)
        assert (ev.fire_time, ev.sequence) not in pushed
        pushed.add((ev.fire_time, ev.sequence))
        return ev

    sim.schedule = checked_schedule
    for node, mac in enumerate(h.macs):
        right = node + 1 if node % 6 < 5 else node - 1
        for k in range(6):
            dest = BROADCAST if k % 3 == 1 else right
            mac.enqueue_packet(_packet(6 * node + k, dst=dest), dest)
            check()
    sim.run_until(0.5)
    assert all(not mac.queue for mac in h.macs)
    assert len(contending) > 300 and max(contending) >= 10 and regained


def test_a_contender_that_regains_earliest_fires_once():
    # 0 and 1 do not sense each other. 1 enters with the earlier end and
    # displaces 0 as armed, leaving 0's entry queued; once 1 has sent, 0 is
    # earliest again and that entry, under its own (end, number), fires
    cfg = MacConfig()
    h = Harness(line_positions(2, 1000.0), mac_cfg=cfg, rng_values=[10, 2])
    assert not h.channel._link_budget(0)[0][1]
    log = record_dispatch_log(h.sim)
    h.macs[0].enqueue_packet(_packet(0, dst=BROADCAST), BROADCAST)
    entry = h.macs[0]._entry
    h.macs[1].enqueue_packet(_packet(1, dst=BROADCAST), BROADCAST)
    assert entry in _queued_backoffs(h.sim) and h.channel.armed is h.macs[1]
    h.sim.run_until(1.0)
    assert _mac_sends(h) == [(1, pytest.approx(cfg.difs + 2 * cfg.slot, abs=1e-12)),
                             (0, pytest.approx(cfg.difs + 10 * cfg.slot, abs=1e-12))]
    fired = [(t, seq) for t, seq, target in log if target == "mac.backoff"]
    assert fired == [(h.macs[1].backoff_end, h.macs[1].backoff_seq),
                     (entry.fire_time, entry.sequence)]
    assert entry.fired and h.macs[0]._entry is None


def test_a_displaced_contender_that_freezes_cancels_its_entry_and_waits_anew():
    # 0 and 1 sense each other. 1 enters with the earlier end and displaces 0,
    # whose entry stays queued; 1's frame freezes 0 before 0 is earliest
    # again, and the freeze cancels that entry
    cfg = MacConfig()
    h = Harness(line_positions(2, 100.0), mac_cfg=cfg, rng_values=[10, 2])
    log = record_dispatch_log(h.sim)
    h.macs[0].enqueue_packet(_packet(0, dst=BROADCAST), BROADCAST)
    entry = h.macs[0]._entry
    h.macs[1].enqueue_packet(_packet(1, dst=BROADCAST), BROADCAST)
    assert entry in _queued_backoffs(h.sim) and h.channel.armed is h.macs[1]
    t_first = cfg.difs + 2 * cfg.slot
    h.sim.run_until(t_first)
    assert entry.cancelled and h.macs[0]._entry is None
    h.sim.run_until(1.0)
    # 0 counted 2 of its 10 slots before 1's frame froze it
    t_second = t_first + cfg.airtime(512) + cfg.difs + 8 * cfg.slot
    assert _mac_sends(h) == [(1, pytest.approx(t_first, abs=1e-12)),
                             (0, pytest.approx(t_second, abs=1e-12))]
    fired = [seq for _, seq, target in log if target == "mac.backoff"]
    assert fired == [h.macs[1].backoff_seq, h.macs[0].backoff_seq]
    assert not entry.fired and entry.sequence not in fired


def test_armed_freezing_for_reception_arms_a_displaced_entry_without_a_second_push():
    # 600 m apart, no node senses another, but fading lets 1 decode 0's
    # unicast frame. Halfway through it, 2 enters with 60 slots and 1 with 40,
    # displacing 2; at the frame's end 1 freezes for reception, and 2, now
    # earliest, is armed on the entry it already has
    cfg = MacConfig()
    h = Harness(line_positions(3, 600.0), mac_cfg=cfg, rng=_FadedUpRng([0, 60, 40]))
    assert not any(h.channel._link_budget(1)[0][node] for node in (0, 2))
    h.sim.schedule(0.0, lambda: h.macs[0].enqueue_packet(_packet(0, dst=1), 1))
    t1 = cfg.difs + cfg.airtime(512) / 2
    _broadcast_at(h, t1, 2, 2)
    _broadcast_at(h, t1, 1, 1)
    h.sim.run_until(t1)
    entry = h.macs[2]._entry
    assert entry in _queued_backoffs(h.sim) and h.channel.armed is h.macs[1]
    schedule, pushed = h.sim.schedule, []

    def counted(at, action, target=""):
        ev = schedule(at, action, target)
        pushed.append((ev.fire_time, ev.sequence))
        return ev

    h.sim.schedule = counted
    h.sim.run_until(cfg.difs + cfg.airtime(512))     # 0's frame ends at 1
    assert [(node, pkt.packet_id) for node, pkt, _ in h.delivered] == [(1, 0)]
    assert h.channel.armed is h.macs[2] and h.macs[2]._entry is entry
    h.sim.run_until(1.0)
    assert entry.fired and (entry.fire_time, entry.sequence) not in pushed
    assert (2, pytest.approx(t1 + cfg.difs + 60 * cfg.slot, abs=1e-12)) in _mac_sends(h)


def test_aodv_contention_schedules_few_events_per_dispatched_event():
    # 0.5 s of the reference frame; an event per contender's backoff would
    # make this 3.8
    cfg = ScenarioConfig()
    cfg.routing.protocol = "aodv"
    cfg.run.duration = 0.5
    net = Simulation(cfg)
    schedule, scheduled = net.sim.schedule, []

    def counted(at, action, target=""):
        scheduled.append(target)
        return schedule(at, action, target)

    net.sim.schedule = counted
    result = net.run()
    assert result.events > 5000
    assert len(scheduled) / result.events <= 1.5


def test_unicast_perfect_channel_first_attempt():
    h = Harness(line_positions(2, 100.0))
    h.macs[0].enqueue_packet(_packet(0), 1)
    h.sim.run_until(0.5)
    assert len(h.delivered) == 1
    assert not h.breaks
    attempts = [r for r in h.trace.records if r.layer == "mac" and r.event == "sent"
                and r.kind == "cbr"]
    assert len(attempts) == 1


def test_unicast_out_of_range_fails_after_retry_limit_plus_one():
    # receiver far beyond range: every attempt times out
    h = Harness({0: (0.0, 0.0), 1: (5000.0, 0.0)})
    h.macs[0].enqueue_packet(_packet(0), 1)
    h.sim.run_until(5.0)
    attempts = [r for r in h.trace.records if r.layer == "mac" and r.event == "sent"
                and r.kind == "cbr"]
    assert len(attempts) == h.mac_cfg.retry_limit + 1 == 8
    assert h.breaks == [(0, 1)]
    drops = [(r.node, r.reason) for r in h.trace.records
             if r.layer == "mac" and r.event == "dropped"]
    assert drops == [(0, "fading")]


def test_cw_doubling_sequence():
    h = Harness({0: (0.0, 0.0), 1: (5000.0, 0.0)})
    seen = []
    mac = h.macs[0]
    orig = mac._new_backoff

    def spy():
        seen.append(mac.cw)
        orig()

    mac._new_backoff = spy
    mac.enqueue_packet(_packet(0), 1)
    h.sim.run_until(5.0)
    assert seen == [15, 31, 63, 127, 255, 511, 1023, 1023]


def test_simultaneous_unicasts_without_collisions_get_one_ack_slot():
    # both senders fire at DIFS and their frames end at the same instant; with
    # collisions off the receiver decodes both but has one ACK slot
    h = Harness(line_positions(3, 100.0), collisions=False, rng_values=[0, 0])
    h.macs[0].enqueue_packet(_packet(0, dst=1), 1)
    h.macs[2].enqueue_packet(_packet(1, dst=1), 1)
    h.sim.run_until(0.5)
    assert sorted((n, frm) for n, _, frm in h.delivered) == [(1, 0), (1, 2)]
    assert not h.macs[0].queue and not h.macs[2].queue and not h.breaks
    acks = [r for r in h.trace.records if r.kind == "ack"]
    sent_by_2 = [r for r in h.trace.records if r.event == "sent" and r.kind == "cbr"
                 and r.node == 2]
    assert len(acks) == 2 and len(sent_by_2) == 2   # the unanswered sender retried


def test_collisions_off_double_ack_regression():
    # node 27 decodes two unicast frames ending at the same instant; answering
    # both would put two ACKs on the air at once and abort the run
    cfg = ScenarioConfig()
    cfg.routing.protocol = "aodv"
    cfg.run.vehicles = 30
    cfg.traffic.cbr_connections = 9
    cfg.run.duration = 2.0
    cfg.run.seed = 19
    cfg.phy.collisions = False
    result = Simulation(cfg).run()
    conservation_check(result.aggregator)


def test_broadcast_three_receivers():
    pos = {0: (0.0, 0.0), 1: (100.0, 0.0), 2: (0.0, 100.0), 3: (-120.0, 0.0)}
    h = Harness(pos)
    h.macs[0].enqueue_packet(_packet(0, dst=BROADCAST), BROADCAST)
    h.sim.run_until(0.5)
    assert sorted(n for n, _, _ in h.delivered) == [1, 2, 3]
    # broadcasts are never acknowledged
    acks = [r for r in h.trace.records if r.kind == "ack"]
    assert not acks


def test_broadcast_no_receivers_sent_record_only():
    h = Harness({0: (0.0, 0.0), 1: (5000.0, 0.0)})
    h.macs[0].enqueue_packet(_packet(0, dst=BROADCAST), BROADCAST)
    h.sim.run_until(0.5)
    assert not h.delivered
    sent = [r for r in h.trace.records if r.event == "sent"]
    assert len(sent) == 1


def test_pbc_outcomes_are_traced_in_hearer_order_one_reception_per_delivery():
    # 0 beacons while 4 broadcasts cbr at the same instant: 1 receives, 2 sits
    # past reception range, 3 hears both equally, 4 is sending (half duplex)
    pos = {0: (0.0, 0.0), 1: (-100.0, 0.0), 2: (-350.0, 0.0), 3: (120.0, 0.0),
           4: (240.0, 0.0)}
    h = Harness(pos, rng_values=[])
    received = []
    orig = NodeMac.frame_received

    def spy(mac, frame, tx):
        received.append((mac.node_id, frame.packet.kind))
        return orig(mac, frame, tx)

    NodeMac.frame_received = spy
    try:
        h.macs[0].enqueue_packet(_packet(7, dst=BROADCAST, size=300, kind=KIND_PBC),
                                 BROADCAST)
        h.macs[4].enqueue_packet(_packet(8, dst=BROADCAST, size=300), BROADCAST)
        h.sim.run_until(0.5)
    finally:
        NodeMac.frame_received = orig
    outcomes = [(r.node, r.layer, r.event, r.reason) for r in h.trace.records
                if r.kind == KIND_PBC and r.event != "sent"]
    assert outcomes == [(1, "app", "received", "none"), (2, "mac", "dropped", "fading"),
                        (3, "mac", "dropped", "collision"),
                        (4, "mac", "dropped", "collision")]
    # the beacon's one reception is its one received record; it ends in the
    # channel, so no MAC sees it (nor the lost cbr frame) and nothing goes up
    assert [r.node for r in h.trace.records
            if r.packet_id == 7 and r.event == "received"] == [1]
    assert received == []
    assert h.delivered == []
    # the cbr broadcast's lost copies leave no record
    assert [r.event for r in h.trace.records if r.kind == KIND_CBR] == ["sent"]


@pytest.mark.parametrize("collisions", [True, False])
@pytest.mark.parametrize("protocol, seed", [("aodv", 1), ("olsr", 2), ("dsdv", 3),
                                            ("aomdv", 4)])
def test_no_broadcast_hearer_is_contending_when_the_frame_ends(protocol, seed, collisions):
    # a hearer sensed the frame at its start, so it froze then or was sending:
    # the channel has no countdown to stop at a broadcast's receivers
    cfg = ScenarioConfig()
    cfg.graph.grid = (3, 3, 100.0)
    cfg.run.vehicles, cfg.run.duration, cfg.run.seed = 20, 2.0, seed
    cfg.routing.protocol = protocol
    cfg.phy.collisions = collisions
    cfg.traffic.cbr_connections = 6
    net = Simulation(cfg)
    hearers_seen, receptions = [], []
    orig_end, orig_received = Channel._tx_end, NodeMac.frame_received

    def end_spy(channel, tx):
        if tx.frame.dest == BROADCAST:
            states = [channel.macs[node].state for node in tx.hearers.tolist()]
            assert CONTEND not in states
            hearers_seen.append(len(states))
        return orig_end(channel, tx)

    def received_spy(mac, frame, tx):
        if frame.dest == BROADCAST:
            assert mac.state != CONTEND
            receptions.append(frame.packet.kind)
        return orig_received(mac, frame, tx)

    Channel._tx_end, NodeMac.frame_received = end_spy, received_spy
    try:
        net.run()
    finally:
        Channel._tx_end, NodeMac.frame_received = orig_end, orig_received
    assert sum(hearers_seen) > 1000 and receptions


def test_frames_that_only_touch_do_not_overlap():
    # hearer 2 sits between the senders of A and B, which reach it with equal
    # power; C's sender is near the edge of range, so B captures over C there
    h = Harness({0: (-10.0, 0.0), 1: (10.0, 0.0), 2: (0.0, 0.0), 3: (240.0, 0.0)})
    p = h.mac_cfg
    a = Frame(p, 0, BROADCAST, _packet(0, dst=BROADCAST), 1)
    b = Frame(p, 1, BROADCAST, _packet(1, dst=BROADCAST), 1)
    c = Frame(p, 3, 2, _packet(2, dst=2), 1)
    # B starts at the instant A ends, sequenced before A's channel.tx_end
    h.sim.schedule(a.duration, lambda: h.channel.transmit(1, b))
    h.sim.schedule(0.0, lambda: h.channel.transmit(0, a))
    h.sim.schedule(a.duration + b.duration / 2, lambda: h.channel.transmit(3, c))
    h.sim.run_until(1.0)
    assert [pkt.packet_id for node, pkt, _ in h.delivered if node == 2] == [0, 1]
    assert c.last_outcome == phy.OUTCOME_COLLISION


def test_a_second_transmission_of_a_node_on_air_is_refused():
    h = Harness(line_positions(2, 100.0))
    p = h.mac_cfg
    a = Frame(p, 0, BROADCAST, _packet(0, dst=BROADCAST), 1)
    b = Frame(p, 0, BROADCAST, _packet(1, dst=BROADCAST), 2)
    h.channel.transmit(0, a)
    with pytest.raises(RuntimeError, match="node 0 already transmitting at t=0.0"):
        h.channel.transmit(0, b)


def test_never_two_simultaneous_own_transmissions():
    cfg = fast_convergence_config("aodv", seed=3)
    cfg.traffic.cbr_connections = 0
    net = StaticNetwork(line_positions(5, 200.0), cfg)
    net.start_protocols()
    spans = {}
    orig = Channel.transmit

    def spy(channel, sender, frame):
        tx = orig(channel, sender, frame)
        spans.setdefault(sender, []).append((tx.start, tx.end))
        return tx

    Channel.transmit = spy
    try:
        for i in range(4):
            net.send_data(i, i + 1)
        net.run_for(5.0)
    finally:
        Channel.transmit = orig
    for sender, intervals in spans.items():
        intervals.sort()
        for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
            assert s2 >= e1, f"node {sender} overlapped own transmissions"


def test_saturation_broadcast_throughput_bounded():
    cfg = ScenarioConfig()
    cfg.phy.loss_model = "ideal"
    net = StaticNetwork(line_positions(4, 50.0), cfg)
    # hammer broadcast beacons from three senders for a second of simulated time
    pid = 1000
    for k in range(900):
        for src in (0, 1, 2):
            pkt = Packet(KIND_PBC, BROADCAST, 512, pid)
            pid += 1
            net.nodes[src].mac.enqueue_packet(pkt, BROADCAST)
        net.run_for(1.0 / 900)
    net.run_for(0.2)
    # payload bits delivered to node 3 within any 1 s window stay under the bitrate
    recv3 = sorted(r.time for r in net.trace.records
                   if r.layer == "app" and r.event == "received" and r.node == 3)
    window_bits = 512 * 8 * max(
        (sum(1 for t in recv3 if lo <= t < lo + 1.0) for lo in (0.0, 0.1, 0.2)),
        default=0)
    assert 0 < window_bits <= 6e6


def per_sender_budget(coords, sender, p, tx_power):
    """The link budget of one sender computed on its own: the reference the
    channel's per-epoch matrices must reproduce bit for bit."""
    delta = coords - coords[sender]
    d = np.sqrt(delta[:, 0] ** 2 + delta[:, 1] ** 2)
    np.maximum(d, p.ref_distance, out=d)
    mean_dbm = phy.mean_rx_power(d, p, tx_power)
    return mean_dbm, phy.dbm_to_mw(mean_dbm), phy.shape_m(d, p)


def assert_budget_matches(channel, coords, sender):
    p = channel.phy
    mean_dbm, mean_mw, shape = per_sender_budget(coords, sender, p, channel.tx_power)
    sensed, hearers, got_mw, got_band = channel._link_budget(sender)
    assert got_mw.tobytes() == mean_mw.tobytes()
    # the channel keeps a band per pair and expands it to shapes at transmit
    assert got_band.dtype == np.uint8
    assert phy.shape_table(p).take(got_band).tobytes() == shape.tobytes()
    cs = p.carrier_sense_threshold
    assert [bool(b) for b in sensed] == [j == sender or v >= cs
                                         for j, v in enumerate(mean_dbm.tolist())]
    # the hearers are exactly the other sensing nodes, in ascending order
    assert hearers.tolist() == [j for j, v in enumerate(mean_dbm.tolist())
                                if j != sender and v >= cs]


def random_coords(seed, n=60, box=1500.0):
    """Random positions plus two co-located nodes and one 50 km away."""
    coords = np.random.default_rng(seed).uniform(0.0, box, size=(n, 2))
    coords[1] = coords[0]
    coords[2] = (50_000.0, 0.0)
    return coords


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_link_budget_rows_equal_the_per_sender_formula(seed):
    coords = random_coords(seed)
    phy_cfg = PhyConfig()
    channel = Channel(Simulator(), coords, phy_cfg, phy.calibrate_range(phy_cfg),
                      np.random.default_rng(seed), Trace())
    for sender in range(len(coords)):
        assert_budget_matches(channel, coords, sender)
    assert 1 in channel._link_budget(0)[1]          # co-located nodes hear each other
    assert channel._link_budget(2)[1].size == 0     # the far node hears nobody


def test_link_budget_rows_equal_the_per_sender_formula_over_several_blocks():
    # the smallest count from 250 on whose build takes three or more blocks
    # and ends in a partial one
    n = next(n for n in range(250, 2000) if n // epoch_block_rows(n) >= 3
             and n % epoch_block_rows(n))
    coords = random_coords(5, n=n, box=3000.0)
    phy_cfg = PhyConfig()
    channel = Channel(Simulator(), coords, phy_cfg, phy.calibrate_range(phy_cfg),
                      np.random.default_rng(5), Trace())
    for sender in range(n):
        assert_budget_matches(channel, coords, sender)


def test_an_epoch_build_peaks_within_its_memory_estimate():
    n = 1000
    coords = random_coords(6, n=n, box=3000.0)
    phy_cfg = PhyConfig()
    channel = Channel(Simulator(), coords, phy_cfg, phy.calibrate_range(phy_cfg),
                      np.random.default_rng(6), Trace())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        epoch = channel._budget_matrices()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert sum(matrix.nbytes for matrix in epoch) == 10 * n * n
    assert 0.75 * epoch_bytes(n) <= peak <= epoch_bytes(n)


def test_link_budget_follows_a_moved_node_after_bump_geometry():
    coords = random_coords(3, n=20, box=400.0)
    phy_cfg = PhyConfig()
    channel = Channel(Simulator(), coords, phy_cfg, phy.calibrate_range(phy_cfg),
                      np.random.default_rng(3), Trace())
    assert 5 in channel._link_budget(4)[1]
    coords[5] = (80_000.0, 0.0)
    channel.bump_geometry()
    for sender in range(len(coords)):
        assert_budget_matches(channel, coords, sender)
    assert 5 not in channel._link_budget(4)[1]
    assert channel._link_budget(5)[1].size == 0


def beacon_storm(seed, loss_model, collisions, n=40, senders=12):
    """Beacons from `senders` random nodes of `n`, started at random instants
    within two frame times so that many overlap. Returns, per broadcast, the
    outcomes its pbc block traced at each hearer and those `frame_outcome_mw`
    gives hearer by hearer when the broadcast ends."""
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0.0, 700.0, size=(n, 2))
    sim, trace = Simulator(), recording_trace()
    phy_cfg = PhyConfig(loss_model=loss_model, collisions=collisions)
    channel = Channel(sim, coords, phy_cfg, phy.calibrate_range(phy_cfg),
                      rng, trace)
    mac_cfg = MacConfig()
    for node in range(n):
        NodeMac(node, sim, channel, mac_cfg, rng, trace, deliver_cb=None,
                link_break_cb=None)
    for pid, sender in enumerate(rng.choice(n, size=senders, replace=False).tolist()):
        frame = Frame(mac_cfg, sender, BROADCAST,
                      _packet(pid, dst=BROADCAST, size=300, kind=KIND_PBC), 1)
        sim.schedule(float(rng.uniform(0.0, 2.0 * frame.duration)),
                     lambda s=sender, f=frame: channel.transmit(s, f))
    pairs = []
    orig = Channel._tx_end

    def checked_tx_end(ch, tx):
        expected = [(node, phy.frame_outcome_mw(tx.sample_mw[node], node,
                                                tx.overlaps, ch._rx_mw,
                                                ch._capture_ratio, collisions))
                    for node in tx.hearers.tolist()]
        start = len(trace.records)
        orig(ch, tx)
        got = [(r.node, "received" if r.event == "received" else r.reason)
               for r in trace.records[start:] if r.kind == KIND_PBC]
        pairs.append((got, expected))

    Channel._tx_end = checked_tx_end
    try:
        sim.run_until(1.0)
    finally:
        Channel._tx_end = orig
    assert len(pairs) == senders
    return pairs


@pytest.mark.parametrize("collisions", [True, False])
@pytest.mark.parametrize("loss_model", ["nakagami", "ideal"])
@pytest.mark.parametrize("seed", range(4))
def test_broadcast_decision_equals_frame_outcome_at_every_hearer(seed, loss_model,
                                                                 collisions):
    pairs = beacon_storm(seed, loss_model, collisions)
    for got, expected in pairs:
        assert got == expected
    seen = {outcome for _, expected in pairs for _, outcome in expected}
    # every outcome is reached: half duplex makes collisions with collisions off
    assert seen == {phy.OUTCOME_RECEIVED, phy.OUTCOME_FADING, phy.OUTCOME_COLLISION}
