"""Simplified IEEE 802.11p MAC: drop-tail queue, DIFS + binary-exponential backoff
with freezing, broadcast and unicast (ACK/retry) services, and the shared medium."""

import math
from collections import deque

import numpy as np

from . import phy
from .metrics import EV_DROPPED, EV_SENT, LAYER_MAC
from .packets import BROADCAST, KIND_ACK, KIND_PBC

FRAME_DATA = "data"
FRAME_ACK = "ack"

# MAC states
IDLE = "idle"
CONTEND = "contend"       # DIFS + backoff countdown scheduled
FROZEN = "frozen"         # waiting for the medium to go idle
TX = "tx"                 # own data frame in the air
WAIT_ACK = "wait-ack"


class Frame:
    """One MAC frame; duration covers preamble plus serialized payload + overhead."""

    __slots__ = ("kind", "src", "dest", "packet", "payload_size", "duration",
                 "mac_seq", "ack_for", "delivered_to_dest", "last_outcome")

    def __init__(self, params, kind, src, dest, packet, payload_size, mac_seq,
                 ack_for=None):
        self.kind = kind
        self.src = src
        self.dest = dest
        self.packet = packet
        self.payload_size = payload_size
        self.duration = params.airtime(payload_size)
        self.mac_seq = mac_seq
        self.ack_for = ack_for
        self.delivered_to_dest = False
        self.last_outcome = None

    @property
    def trace_kind(self):
        return KIND_ACK if self.kind == FRAME_ACK else self.packet.kind


class Transmission:
    __slots__ = ("sender", "frame", "start", "end", "sensed", "hearers",
                 "samples", "sample_mw", "waiters", "overlaps")

    def __init__(self, sender, frame, start, end, sensed, hearers, samples):
        self.sender = sender
        self.frame = frame
        self.start = start
        self.end = end
        self.sensed = sensed          # per node: carrier sensed, by mean power (bytearray, 0/1)
        self.hearers = hearers        # ascending ids that sense it, sender excluded (array)
        self.samples = samples        # per-node faded power for this transmission (array)
        # the same powers as floats, for the per-node reads of frame_outcome_mw
        self.sample_mw = memoryview(samples)
        self.waiters: list = []       # frozen MACs woken inline when this tx ends
        self.overlaps: list = []      # transmissions overlapping it in time, in send order


class Channel:
    """The set of in-flight transmissions plus reception/busy decisions.

    Carrier sensing uses the deterministic mean power; fading samples are drawn
    i.i.d. per (transmission, receiver) from the channel RNG stream. A sender's
    carrier-sense row is a `bytearray`, one 0/1 byte per node.

    Overlap record: a starting transmission and each in-flight one that ends
    after this instant join each other's `overlaps`, so the record is complete
    when a transmission ends; `_tx_end` reads it to decide receptions, then clears it.

    Geometry contract: every write to the `coords` array must be followed by
    `bump_geometry()`. The first link budget asked for after a bump
    snapshots all senders at once, and that snapshot holds until the next bump.
    """

    def __init__(self, sim, coords, phy_cfg, tx_power, rng, trace):
        self.sim = sim
        self.coords = coords                  # ndarray (n, 2), row i = node i
        self.phy = phy_cfg                    # the [phy] section
        self.tx_power = tx_power              # dBm, calibrated to phy_cfg.target_range
        self.rng = rng
        self.trace = trace
        self.active: list[Transmission] = []
        self.contenders: dict[int, "NodeMac"] = {}
        self.macs: dict[int, "NodeMac"] = {}
        self._cs_dbm = phy_cfg.carrier_sense_threshold
        self._rx_mw = float(phy.dbm_to_mw(phy_cfg.rx_threshold))
        self._capture_ratio = 10.0 ** (phy_cfg.capture_margin / 10.0)
        self._epoch = None                    # (sensed, mean mW, shape) matrices
        self._geometry: dict[int, tuple] = {}   # sender -> cached link budget

    # -- medium state --------------------------------------------------------

    def busy_tx(self, node_id: int):
        """The sensed in-flight transmission ending last; None when idle."""
        latest = None
        for tx in self.active:
            if tx.sensed[node_id]:
                if latest is None or tx.end > latest.end:
                    latest = tx
        return latest

    # -- transmission --------------------------------------------------------

    def bump_geometry(self):
        """Start a new geometry epoch: node positions moved, so every cached
        link budget is stale. The next budget asked for snapshots all senders."""
        self._epoch = None
        self._geometry.clear()

    def _budget_matrices(self):
        """Carrier sense, mean power in mW and Nakagami shape for every
        (sender, receiver) pair of the current geometry; row s is sender s."""
        x, y = self.coords[:, 0], self.coords[:, 1]
        d = x - x[:, None]                    # d[s, j] = x[j] - x[s]
        dy = y - y[:, None]
        d *= d
        dy *= dy
        d += dy
        del dy
        np.sqrt(d, out=d)
        np.maximum(d, self.phy.ref_distance, out=d)   # co-located nodes: clamp to ref
        # the shape after the mean power: at most three N x N float arrays at once
        mean_dbm = phy.mean_rx_power(d, self.phy, self.tx_power)
        shape = phy.shape_m(d, self.phy)
        del d
        sensed = mean_dbm >= self._cs_dbm
        np.fill_diagonal(sensed, False)      # a sender is not its own hearer
        return sensed, phy.dbm_to_mw(mean_dbm), shape

    def _link_budget(self, sender: int):
        """This sender's row of the current geometry: who senses it (bytearray,
        1 at the sender), the ascending ids of the other nodes that do (index
        array), and the mean power in mW and Nakagami shape at every node
        (arrays)."""
        cached = self._geometry.get(sender)
        if cached is not None:
            return cached
        if self._epoch is None:
            self._epoch = self._budget_matrices()
        sensed, mean_mw, shape = self._epoch
        row = sensed[sender]
        sensed_by = bytearray(row.tobytes())
        sensed_by[sender] = 1                 # a sender senses its own transmission
        budget = (sensed_by, np.flatnonzero(row), mean_mw[sender], shape[sender])
        self._geometry[sender] = budget
        return budget

    def transmit(self, sender: int, frame: Frame):
        now = self.sim.now
        sensed, hearers, mean_mw, shape = self._link_budget(sender)
        if self.phy.loss_model == "nakagami":
            sample_mw = phy.sample_rx_power(self.rng, mean_mw, shape)
        else:
            sample_mw = mean_mw.copy()        # the row is a view into the epoch's matrix
        # the sender's own entry also carries the half-duplex rule: an infinite
        # power at the sender wins every capture test frame_outcome_mw makes there
        sample_mw[sender] = math.inf
        end = now + frame.duration
        tx = Transmission(sender, frame, now, end, sensed, hearers, sample_mw)
        for other in self.active:
            if other.sender == sender:
                raise RuntimeError(f"node {sender} already transmitting at t={now}")
            if other.start < end and other.end > now:
                other.overlaps.append(tx)
                tx.overlaps.append(other)
        self.active.append(tx)
        pkt = frame.packet
        self.trace.add(now, EV_SENT, "none", LAYER_MAC, frame.trace_kind,
                       pkt.packet_id, pkt.flow_id, sender, frame.payload_size)
        if self.contenders:
            # freeze nodes mid-countdown that sense this transmission
            for mac in list(self.contenders.values()):
                if sensed[mac.node_id]:
                    mac.medium_busy(now, tx)
        self.sim.schedule(end, lambda: self._tx_end(tx), target="channel.tx_end")
        return tx

    def _tx_end(self, tx: Transmission):
        """Hand the frame to each receiver whose outcome is a reception: every
        hearer of a broadcast, or the one destination of a unicast frame."""
        self.active.remove(tx)
        frame = tx.frame
        args = (tx.overlaps, self._rx_mw, self._capture_ratio, self.phy.collisions)
        if frame.dest == BROADCAST:
            # the hearers that miss the threshold lose the frame to fading
            decided = phy.broadcast_outcomes_mw(tx.samples, tx.hearers, *args)
        else:
            node = frame.dest
            # the sender's _ack_timeout reads last_outcome
            frame.last_outcome = phy.frame_outcome_mw(tx.sample_mw[node], node, *args)
            decided = [(node, frame.last_outcome)]
        macs = self.macs
        for node, outcome in decided:
            if outcome == phy.OUTCOME_RECEIVED:
                mac = macs.get(node)
                if mac is not None:           # an id without a node receives nothing
                    mac.frame_received(frame, tx)
        # a beacon's outcome at each hearer, received or lost, is traced as one
        # block after the fan-out; frame_received writes no record for it
        packet = frame.packet
        if packet.kind == KIND_PBC:
            self.trace.add_pbc_block(self.sim.now, packet.packet_id, frame.payload_size,
                                     tx.hearers.tolist(), decided)
        self.macs[tx.sender].own_tx_ended(frame)
        for mac in tx.waiters:
            mac.resume_contention()
        tx.waiters = tx.overlaps = ()      # no reference cycle between overlapping pairs


class NodeMac:
    """Per-node CSMA/CA state machine over the shared channel.

    A frozen node joins the `waiters` of the transmission that blocks it, and
    `Channel._tx_end` resumes it inline when that transmission ends.
    """

    def __init__(self, node_id, sim, channel: Channel, params, rng, trace,
                 deliver_cb, link_break_cb):
        self.node_id = node_id
        self.sim = sim
        self.channel = channel
        self.p = params
        self.rng = rng
        self.trace = trace
        self.deliver_cb = deliver_cb          # (packet, from_node) -> None
        self.link_break_cb = link_break_cb    # (neighbor) -> None
        self.queue: deque[Frame] = deque()
        self.state = IDLE
        self.cw = params.cw_min
        self.retries = 0
        self.backoff_remaining = 0
        self.wait_started = 0.0
        self._difs = params.difs
        self._ack_wait = params.sifs + params.airtime(0) + params.slot
        self._done_ev = None
        self._timeout_ev = None
        self._ack = None                      # ACK frame pending or in flight
        self._mac_seq = 0
        self._dedupe: dict[int, int] = {}     # src -> last delivered mac_seq
        channel.macs[node_id] = self

    # -- queue admission -----------------------------------------------------

    def enqueue_packet(self, packet, dest: int) -> bool:
        """FIFO admission of a network packet; False (and a trace record) when full."""
        if len(self.queue) >= self.p.queue_capacity:
            self.trace.add(self.sim.now, EV_DROPPED, "ifq", LAYER_MAC, packet.kind,
                           packet.packet_id, packet.flow_id, self.node_id, packet.size)
            return False
        self._mac_seq += 1
        frame = Frame(self.p, FRAME_DATA, self.node_id, dest, packet,
                      packet.size, self._mac_seq)
        self.queue.append(frame)
        if self.state == IDLE:
            self._start_access()
        return True

    # -- channel access ------------------------------------------------------

    def _start_access(self):
        self.retries = 0
        self.cw = self.p.cw_min
        self._new_backoff()

    def _new_backoff(self):
        self.backoff_remaining = int(self.rng.integers(0, self.cw + 1))
        self._begin_wait()

    def _begin_wait(self):
        blocker = self.channel.busy_tx(self.node_id)
        if blocker is not None:
            self.state = FROZEN
            blocker.waiters.append(self)
            return
        self.state = CONTEND
        self.channel.contenders[self.node_id] = self
        self.wait_started = self.sim.now
        fire = self.sim.now + self._difs + self.backoff_remaining * self.p.slot
        self._done_ev = self.sim.schedule(fire, self._backoff_done, target="mac.backoff")

    def resume_contention(self):
        """Woken by the channel when a transmission this node waited on ends.

        The medium may have gone busy again meanwhile; _begin_wait re-checks
        and re-registers on the new blocker, so stale wakeups are harmless."""
        if self.state == FROZEN:
            self._begin_wait()

    def _freeze(self, t_busy: float):
        """Stop the countdown (CONTEND only) at t_busy, keeping the slots not yet
        counted down, and leave the contenders."""
        self.sim.cancel(self._done_ev)
        self._done_ev = None
        elapsed = t_busy - (self.wait_started + self._difs)
        consumed = int(math.floor(elapsed / self.p.slot + 1e-9)) if elapsed > 0 else 0
        self.backoff_remaining -= min(max(consumed, 0), self.backoff_remaining)
        self.channel.contenders.pop(self.node_id, None)
        self.state = FROZEN

    def medium_busy(self, t_busy: float, blocker):
        """Only `Channel.transmit` calls this, for each contender that senses the
        new transmission `blocker`; a contender is in CONTEND with a live countdown
        from `_begin_wait` until `_freeze` or `_backoff_done` takes it out."""
        if self._done_ev.fire_time <= self.sim.now:
            return   # backoff hit zero this same instant: transmit (and collide)
        self._freeze(t_busy)
        blocker.waiters.append(self)

    def _backoff_done(self):
        self._done_ev = None
        self.channel.contenders.pop(self.node_id, None)
        frame = self.queue[0]
        self.state = TX
        self.channel.transmit(self.node_id, frame)

    # -- completion paths ----------------------------------------------------

    def own_tx_ended(self, frame: Frame):
        if frame.kind == FRAME_ACK:
            self._ack = None
            return
        if self.state != TX:
            return
        if frame.dest == BROADCAST:
            self._frame_done()
        else:
            self.state = WAIT_ACK
            self._timeout_ev = self.sim.after(self._ack_wait, self._ack_timeout,
                                              target="mac.ack_timeout")

    def _frame_done(self):
        self.queue.popleft()
        self.state = IDLE
        if self.queue:
            self._start_access()

    def _ack_timeout(self):
        self._timeout_ev = None
        frame = self.queue[0]
        self.retries += 1
        if self.retries > self.p.retry_limit:
            self.queue.popleft()
            self.state = IDLE
            packet = frame.packet
            # no terminal drop when the data landed and only the ACKs were
            # lost: the packet lives on downstream
            if not frame.delivered_to_dest:
                reason = "collision" if frame.last_outcome == phy.OUTCOME_COLLISION else "fading"
                self.trace.add(self.sim.now, EV_DROPPED, reason, LAYER_MAC, packet.kind,
                               packet.packet_id, packet.flow_id, self.node_id,
                               packet.size)
            # may re-enter enqueue_packet on this node (e.g. a RERR broadcast)
            self.link_break_cb(frame.dest)
            if self.queue and self.state == IDLE:
                self._start_access()
            return
        self.cw = min(2 * (self.cw + 1) - 1, self.p.cw_max)
        self._new_backoff()

    # -- reception -----------------------------------------------------------

    def _freeze_for_reception(self, tx_start: float):
        """Decoding a frame occupies the radio even when the transmitter sits
        below the carrier-sense threshold; the countdown must not have run
        through the frame, and nothing may transmit before the SIFS ack slot."""
        if self.state == CONTEND:
            self._freeze(tx_start)
            self._begin_wait()

    def frame_received(self, frame: Frame, tx: Transmission):
        self._freeze_for_reception(tx.start)
        if frame.kind == FRAME_ACK:
            if (self.state == WAIT_ACK and self.queue
                    and frame.ack_for == self.queue[0].mac_seq
                    and frame.src == self.queue[0].dest):
                self.sim.cancel(self._timeout_ev)     # armed for as long as WAIT_ACK lasts
                self._timeout_ev = None
                self._frame_done()
            return
        if frame.dest == BROADCAST:
            # a beacon ends here: the channel traces its reception
            if frame.packet.kind != KIND_PBC:
                self.deliver_cb(frame.packet, frame.src)
            return
        self._send_ack(frame)
        if self._dedupe.get(frame.src) == frame.mac_seq:
            return   # retry duplicate: ACK again but deliver once
        self._dedupe[frame.src] = frame.mac_seq
        frame.delivered_to_dest = True
        self.deliver_cb(frame.packet, frame.src)

    def _send_ack(self, data_frame: Frame):
        """Answer after SIFS. The radio has one response slot: while an ACK is
        pending or in flight a second one is not sent (it could only overlap the
        first), so that sender retries and _dedupe keeps its delivery single."""
        if self._ack is not None:
            return
        ack = self._ack = Frame(self.p, FRAME_ACK, self.node_id, data_frame.src,
                                data_frame.packet, 0, 0, ack_for=data_frame.mac_seq)
        self.sim.after(self.p.sifs, lambda: self.channel.transmit(self.node_id, ack),
                       target="mac.ack")
