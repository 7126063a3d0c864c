"""Application-layer traffic: CBR flows over routing and periodic safety beacons."""

from dataclasses import dataclass

from .metrics import EV_SENT, LAYER_APP
from .packets import BROADCAST, KIND_CBR, KIND_PBC, Packet, SafetyBeacon


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
    total_pairs = n * (n - 1)
    if n_flows > total_pairs:
        raise ValueError(f"{n_flows} flows requested but only {total_pairs} "
                         f"ordered pairs exist for {n} nodes")
    picks = rng.choice(total_pairs, size=n_flows, replace=False)
    flows = []
    for fid, ix in enumerate(int(i) for i in picks):
        src_i, rest = divmod(ix, n - 1)
        dst_i = rest if rest < src_i else rest + 1
        jitter = float(rng.uniform(0.0, 1.0 / rate))
        flows.append(CbrFlow(fid, nodes[src_i], nodes[dst_i], packet_size, rate,
                             start + jitter, stop))
    return flows


class CbrAgent:
    """Emits one fixed-size packet per flow every 1/rate seconds on an exact grid."""

    def __init__(self, sim, node, flow: CbrFlow):
        self.sim = sim
        self.node = node
        self.flow = flow
        self._k = 0

    def start(self):
        if self.flow.start <= self.flow.stop:
            self.sim.schedule(self.flow.start, self._emit, target="cbr.emit")

    def _emit(self):
        f = self.flow
        self.node.originate(Packet(KIND_CBR, f.src, f.dst, f.packet_size,
                                   self.node.new_packet_id(), f.flow_id, self.node.cfg.ttl))
        self._k += 1
        t_next = f.start + self._k / f.rate      # multiplicative grid, no drift
        if t_next < f.stop:
            self.sim.schedule(t_next, self._emit, target="cbr.emit")


class PbcAgent:
    """Per-vehicle periodic single-hop beacon broadcaster with an emergency path.

    Beacons are never routed or forwarded; hard braking at or beyond the
    configured deceleration emits an immediate out-of-cycle beacon, rate
    limited per vehicle.
    """

    def __init__(self, sim, node, world, cfg, duration, phase: float):
        self.sim = sim
        self.node = node
        self.world = world
        self.cfg = cfg
        self.duration = duration
        self.phase = phase
        self._k = 0
        self._last_emergency = -float("inf")

    def start(self):
        if self.phase < self.duration:
            self.sim.schedule(self.phase, self._tick, target="pbc.tick")

    def _beacon(self, flag: str) -> Packet:
        vid = self.node.node_id
        st = self.world.vehicles[vid]
        beacon = SafetyBeacon(vid, st.x, st.y, st.speed, st.heading, self.sim.now, flag)
        return Packet(KIND_PBC, vid, BROADCAST, self.cfg.beacon_size,
                      self.node.new_packet_id(), None, 1, beacon)

    def _emit(self, flag: str):
        pkt = self._beacon(flag)
        self.node.record(EV_SENT, "none", LAYER_APP, pkt)
        self.node.mac.enqueue_packet(pkt, BROADCAST)

    def _tick(self):
        self._emit("none")
        self._k += 1
        t_next = self.phase + self._k * self.cfg.beacon_interval
        if t_next < self.duration:
            self.sim.schedule(t_next, self._tick, target="pbc.tick")

    def on_accel(self, vehicle_id: int, accel: float, t: float):
        if accel > -self.cfg.emergency_decel:
            return
        if t - self._last_emergency < self.cfg.emergency_rate_limit:
            return
        self._last_emergency = t
        self._emit("emergency")
