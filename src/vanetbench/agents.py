"""Application-layer traffic: CBR flows over routing and periodic safety beacons."""

from dataclasses import dataclass

from .metrics import EV_SENT, LAYER_APP
from .packets import BROADCAST, KIND_CBR, KIND_PBC, Packet


@dataclass
class CbrFlow:
    flow_id: int
    src: int
    dst: int
    packet_size: int = 512
    rate: float = 4.0
    start: float = 0.0
    stop: float = 100.0


def setup_flows(rng, n_flows: int, nodes, packet_size=512, rate=4.0,
                start=0.0, stop=100.0) -> list[CbrFlow]:
    """Distinct ordered (src, dst) pairs drawn uniformly without replacement;
    start times jittered uniformly within one packet interval."""
    nodes = list(nodes)
    n = len(nodes)
    picks = rng.choice(n * (n - 1), size=n_flows, replace=False)
    flows = []
    for fid, ix in enumerate(int(i) for i in picks):
        src_i, rest = divmod(ix, n - 1)
        dst_i = rest if rest < src_i else rest + 1
        jitter = float(rng.uniform(0.0, 1.0 / rate))
        flows.append(CbrFlow(fid, nodes[src_i], nodes[dst_i], packet_size, rate,
                             start + jitter, stop))
    return flows


def start_cbr(sim, node, f: CbrFlow):
    """Originate flow `f` at `node`: one packet every 1/rate s on an exact grid."""
    if f.start <= f.stop:
        sim.every(f.start, 1.0 / f.rate, f.stop, lambda: node.originate(
            Packet(KIND_CBR, f.dst, f.packet_size, node.new_packet_id(), f.flow_id,
                   node.cfg.ttl)), "cbr.emit")


class PbcAgent:
    """Per-vehicle periodic single-hop safety beacon broadcaster.

    A beacon is a packet of `beacon_size` bytes with no content: what a run
    measures is its delivery at each hearer, never what it carries. Beacons
    are never routed or forwarded. An emergency is one extra out-of-cycle
    beacon, sent at once when the vehicle brakes at or beyond the configured
    deceleration, at most once per rate-limit window.
    """

    def __init__(self, sim, node, cfg, duration, phase: float):
        self.sim = sim
        self.node = node
        self.cfg = cfg
        self.duration = duration
        self.phase = phase
        self._last_emergency = -float("inf")

    def start(self):
        if self.phase < self.duration:
            self.sim.every(self.phase, self.cfg.beacon_interval, self.duration, self._emit,
                           "pbc.tick")

    def _emit(self):
        pkt = Packet(KIND_PBC, BROADCAST, self.cfg.beacon_size, self.node.new_packet_id(),
                     None, 1)
        self.node.record(EV_SENT, "none", LAYER_APP, pkt)
        self.node.mac.enqueue_packet(pkt, BROADCAST)

    def on_accel(self, accel: float, t: float):
        if accel > -self.cfg.emergency_decel:
            return
        if t - self._last_emergency < self.cfg.emergency_rate_limit:
            return
        self._last_emergency = t
        self._emit()
