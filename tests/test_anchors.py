"""Analytic anchors: the MAC against Bianchi's saturation model, the capture
rule on two overlapping frames, and the channel against the Nakagami
reception curve. They pin what the MAC and channel must keep doing in terms
that do not depend on trace bytes."""

import math

import pytest
from scipy.optimize import brentq
from scipy.special import gammaincc
from scipy.stats import binom

from vanetbench import phy
from vanetbench.mac import Frame
from vanetbench.metrics import EV_SENT, LAYER_APP
from vanetbench.packets import BROADCAST, KIND_CBR, KIND_PBC, Packet
from vanetbench.scenario import ScenarioConfig

from conftest import StaticNetwork

PAYLOAD = 512            # bytes of each saturated station's frames
SATURATED_S = 3.0        # simulated seconds per station count


def bianchi(n: int, mac, payload: int):
    """Saturation throughput (bit/s) and collision probability of n stations
    (Bianchi, IEEE JSAC 2000), with this MAC's finite retry stages: stage i
    draws its backoff uniformly from [0, W_i - 1], W_i doubling from
    cw_min + 1 up to cw_max + 1, and a frame is dropped after retry_limit
    retries. Basic access with no propagation delay."""
    stages = range(mac.retry_limit + 1)
    windows = [min((mac.cw_min + 1) << i, mac.cw_max + 1) for i in stages]

    def attempt_rate(p):     # a station's transmission probability per slot
        return (sum(p ** i for i in stages)
                / sum(p ** i * (w + 1) / 2 for i, w in zip(stages, windows)))

    tau = brentq(lambda t: t - attempt_rate(1 - (1 - t) ** (n - 1)), 0.0, 1.0)
    p = 1 - (1 - tau) ** (n - 1)
    p_tr = 1 - (1 - tau) ** n
    p_s = n * tau * (1 - tau) ** (n - 1) / p_tr
    data = mac.airtime(payload)
    t_success = data + mac.sifs + mac.airtime(0) + mac.difs
    t_collision = data + mac.difs
    mean_slot = ((1 - p_tr) * mac.slot + p_tr * p_s * t_success
                 + p_tr * (1 - p_s) * t_collision)
    return p_s * p_tr * 8 * payload / mean_slot, p


def app_packet(net, src: int, dst: int, kind=KIND_CBR, size=PAYLOAD):
    """A packet from `src` for neighbour `dst`, with the app sent record the
    trace ledger needs for a cbr packet's delivery."""
    node = net.nodes[src]
    pkt = Packet(kind, dst, size, node.new_packet_id(), None, 1)
    if kind == KIND_CBR:
        node.record(EV_SENT, "none", LAYER_APP, pkt)
    return pkt


def send_straight(net, src: int, dst: int, kind=KIND_CBR, size=PAYLOAD):
    """Hand a packet to `src`'s MAC, past routing."""
    net.nodes[src].mac.enqueue_packet(app_packet(net, src, dst, kind, size), dst)


# Tolerances, fixed before this file first ran.
# - Throughput: |S_sim / S_model - 1| <= 0.03 + 3 * sqrt(p / ((1 - p) * A)).
#   0.03 is the model's own error. Bianchi reports model and simulation within
#   a few percent; his decoupling assumption (every attempt collides with the
#   same p, whatever its stage) and Tc = data + DIFS, which leaves out the ACK
#   timeout (SIFS + ACK + one slot) a colliding sender of this MAC waits before
#   its next DIFS, lie inside that. The second term is the run's binomial
#   noise: given A attempts, the successes are binomial with probability
#   1 - p, so the measured throughput has relative standard deviation
#   sqrt(p / ((1 - p) * A)); three of those.
# - Unacknowledged share: |p_sim - p| <= 0.03 + 3 * sqrt(p * (1 - p) / A), the
#   same noise in absolute terms. The decoupling assumption overstates p as n
#   grows: 10 s runs of this MAC measured the model up to 0.027 above it at
#   10 to 40 stations.
MODEL_ERROR = 0.03


@pytest.mark.parametrize("n", [2, 5, 10])
def test_saturated_throughput_matches_bianchi(n):
    cfg = ScenarioConfig()
    cfg.phy.loss_model = "ideal"
    cfg.phy.capture_margin = 200.0      # any overlap collides, as the model has it
    mac = cfg.mac
    # a station sends at most one frame per data airtime, so this many frames
    # keep every queue non-empty for the whole run
    frames = math.ceil(SATURATED_S / mac.airtime(PAYLOAD)) + 1
    mac.queue_capacity = frames
    ring = {i: (10.0 * math.cos(2 * math.pi * i / n), 10.0 * math.sin(2 * math.pi * i / n))
            for i in range(n)}
    net = StaticNetwork(ring, cfg)
    for src in range(n):
        for _ in range(frames):
            send_straight(net, src, (src + 1) % n)
    net.run_for(SATURATED_S)
    assert all(node.mac.queue for node in net.nodes.values())    # saturated throughout
    agg = net.aggregator
    attempts = agg.count(layer="mac", kind=KIND_CBR, event="sent")
    successes = agg.received()
    throughput, p = bianchi(n, mac, PAYLOAD)
    measured = successes * 8 * PAYLOAD / SATURATED_S
    assert abs(measured / throughput - 1) <= \
        MODEL_ERROR + 3 * math.sqrt(p / ((1 - p) * attempts))
    assert abs(1 - successes / attempts - p) <= \
        MODEL_ERROR + 3 * math.sqrt(p * (1 - p) / attempts)


@pytest.mark.parametrize("margin_db,outcome", [(10.0, phy.OUTCOME_RECEIVED),
                                               (200.0, phy.OUTCOME_COLLISION)])
def test_two_overlapping_frames_near_their_receivers_capture_at_10_db(margin_db, outcome):
    # each sender is 3 m from its receiver and 20 m from the other receiver:
    # 19 * log10(20 / 3) = 15.7 dB apart on the first path-loss slope, so each
    # frame clears a 10 dB capture margin and neither clears 200 dB
    cfg = ScenarioConfig()
    cfg.phy.loss_model = "ideal"
    cfg.phy.capture_margin = margin_db
    net = StaticNetwork({0: (0.0, 0.0), 1: (3.0, 0.0), 2: (20.0, 0.0), 3: (23.0, 0.0)}, cfg)
    frames = [Frame(cfg.mac, src, dst, app_packet(net, src, dst), 1)
              for src, dst in ((0, 1), (3, 2))]
    for frame in frames:                  # both at t = 0, past the MACs' carrier sense
        net.channel.transmit(frame.src, frame)
    net.run_for(0.01)
    assert [f.last_outcome for f in frames] == [outcome, outcome]
    assert net.aggregator.received() == (2 if outcome == phy.OUTCOME_RECEIVED else 0)


BEACONS = 2000


@pytest.mark.parametrize("distance,band", [(70.0, "m0"), (150.0, "m1"), (230.0, "m2")])
def test_beacon_reception_ratio_follows_the_nakagami_curve(distance, band):
    cfg = ScenarioConfig()
    cfg.phy.collisions = False
    cfg.phy.m2 = 3.0                  # every band its own shape, so a band mix-up shows
    cfg.mac.queue_capacity = BEACONS
    net = StaticNetwork({0: (0.0, 0.0), 1: (distance, 0.0)}, cfg)
    for _ in range(BEACONS):
        send_straight(net, 0, BROADCAST, KIND_PBC, cfg.traffic.beacon_size)
    net.run_for(60.0)
    agg = net.aggregator
    assert agg.count(layer="mac", kind=KIND_PBC, event="sent") == BEACONS
    m = getattr(cfg.phy, band)
    mean_mw = phy.dbm_to_mw(phy.mean_rx_power(distance, cfg.phy, phy.calibrate_range(cfg.phy)))
    prr = gammaincc(m, m * phy.dbm_to_mw(cfg.phy.rx_threshold) / mean_mw)
    lo, hi = binom.interval(0.99, BEACONS, prr)
    assert lo <= agg.received(KIND_PBC) <= hi
