"""Simplified IEEE 802.11p MAC: drop-tail queue, DIFS + binary-exponential backoff
with freezing, broadcast and unicast (ACK/retry) services, and the shared medium."""

import math
from collections import deque
from operator import attrgetter

import numpy as np

from . import phy
from .metrics import EV_DROPPED, EV_SENT, LAYER_MAC
from .packets import BROADCAST, KIND_ACK, KIND_PBC
from .scenario import EPOCH_BLOCK_BYTES

# the most temporary bytes a pair of an epoch block holds at once, in
# phy.path_loss_db, which builds the loss in the block's output rows: the
# distance, one float64 term of the loss (a band's value or the log10) and a mask
BLOCK_BYTES_PER_PAIR = 2 * 8 + 1


def epoch_block_rows(n: int) -> int:
    """Sender rows per block of an n-node epoch build: as many as keep the
    block's temporaries within EPOCH_BLOCK_BYTES, and at least one."""
    return max(1, EPOCH_BLOCK_BYTES // (BLOCK_BYTES_PER_PAIR * max(n, 1)))


_BACKOFF_END = attrgetter("backoff_end")

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

    Epoch layout: that snapshot is three N x N matrices, row s for sender s,
    10 bytes per (sender, receiver) pair: the float64 mean power in mW, the
    uint8 Nakagami shape band (`phy.shape_band`) and the bool carrier-sense
    matrix. `transmit` expands its sender's band row to shapes through the
    3-entry `phy.shape_table`. The build runs over blocks of sender rows, each
    block's temporaries within `scenario.EPOCH_BLOCK_BYTES`, so that
    `scenario.epoch_bytes` bounds the whole build.

    Contention: `contenders` holds the MACs counting down a backoff, keyed by
    node id in the order they entered, and a transmission's `waiters` holds the
    MACs frozen on it, in the order they froze. `transmit` freezes the
    contenders that sense its frame in `contenders` order, and `_tx_end` wakes
    the waiters in `waiters` order. These orders set the sequence numbers that
    contenders reserve, which order equal end times: backoffs ending in one
    slot, which collide.

    Backoff events: `armed` is the earliest contender by (end time, reserved
    number), and its `mac.backoff` entry is always queued. `contenders` is in
    reservation order, so that is its first entry with the least end time,
    and a new contender, whose number is the newest, displaces `armed` only by
    a strictly earlier end. When `armed` fires, it transmits, and `transmit`
    arms the next earliest after its freeze pass; when it freezes for
    reception, `_arm` runs before it waits again. How long an entry lives is
    `NodeMac`'s rule. Each fire time and sequence number is the one an event
    per contender would have had, so the dispatch order is too.
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
        self.armed: "NodeMac | None" = None   # the contender whose event is queued
        self.macs: dict[int, "NodeMac"] = {}
        self._cs_dbm = phy_cfg.carrier_sense_threshold
        self._rx_mw = float(phy.dbm_to_mw(phy_cfg.rx_threshold))
        self._capture_ratio = 10.0 ** (phy_cfg.capture_margin / 10.0)
        self._shapes = phy.shape_table(phy_cfg)
        self._epoch = None                    # (sensed, mean mW, shape band) matrices
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

    # -- contention ----------------------------------------------------------

    def _arm(self):
        """Make the earliest contender `armed`, unless one is, and queue its
        entry if it has none."""
        if self.armed is None and self.contenders:
            # min keeps the first of equal end times: the earliest reservation
            mac = self.armed = min(self.contenders.values(), key=_BACKOFF_END)
            if mac._entry is None:
                mac._entry = self.sim.schedule_reserved(mac.backoff_end, mac.backoff_seq,
                                                        mac._backoff_done, "mac.backoff")

    # -- transmission --------------------------------------------------------

    def bump_geometry(self):
        """Start a new geometry epoch: node positions moved, so every cached
        link budget is stale. The next budget asked for snapshots all senders."""
        self._epoch = None
        self._geometry.clear()

    def _budget_matrices(self):
        """Carrier sense, mean power in mW and Nakagami shape band for every
        (sender, receiver) pair of the current geometry; row s is sender s.
        Built in blocks of sender rows, so that every temporary is block-sized."""
        n = len(self.coords)
        x, y = self.coords[:, 0], self.coords[:, 1]
        sensed = np.empty((n, n), dtype=bool)
        mean_mw = np.empty((n, n))
        band = np.empty((n, n), dtype=np.uint8)
        rows = epoch_block_rows(n)
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            block = mean_mw[lo:hi]            # holds dy, then mean dBm, then mW
            d = x - x[lo:hi, None]            # d[s, j] = x[j] - x[s]
            dy = np.subtract(y, y[lo:hi, None], out=block)
            d *= d
            dy *= dy
            d += dy
            np.sqrt(d, out=d)
            np.maximum(d, self.phy.ref_distance, out=d)   # co-located nodes: clamp to ref
            band[lo:hi] = phy.shape_band(d, self.phy)
            phy.mean_rx_power(d, self.phy, self.tx_power, out=block)
            del d
            np.greater_equal(block, self._cs_dbm, out=sensed[lo:hi])
            phy.dbm_to_mw(block, out=block)
        np.fill_diagonal(sensed, False)      # a sender is not its own hearer
        return sensed, mean_mw, band

    def _link_budget(self, sender: int):
        """This sender's row of the current geometry: who senses it (bytearray,
        1 at the sender), the ascending ids of the other nodes that do (index
        array), and the mean power in mW and Nakagami shape band at every
        node (arrays)."""
        cached = self._geometry.get(sender)
        if cached is not None:
            return cached
        if self._epoch is None:
            self._epoch = self._budget_matrices()
        sensed, mean_mw, band = self._epoch
        row = sensed[sender]
        sensed_by = bytearray(row.tobytes())
        sensed_by[sender] = 1                 # a sender senses its own transmission
        budget = (sensed_by, np.flatnonzero(row), mean_mw[sender], band[sender])
        self._geometry[sender] = budget
        return budget

    def transmit(self, sender: int, frame: Frame):
        now = self.sim.now
        sensed, hearers, mean_mw, band = self._link_budget(sender)
        if self.phy.loss_model == "nakagami":
            sample_mw = phy.sample_rx_power(self.rng, mean_mw, self._shapes.take(band))
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
        contenders = self.contenders
        if contenders:
            # freeze, in the order they entered, the contenders that sense this frame
            for mac in [mac for node, mac in contenders.items() if sensed[node]]:
                mac.medium_busy(now, tx)
            self._arm()
        self.sim.schedule(end, lambda: self._tx_end(tx), target="channel.tx_end")
        return tx

    def _tx_end(self, tx: Transmission):
        """Hand the frame to each receiver whose outcome is a reception: every
        hearer of a broadcast, or the one destination of a unicast frame. A
        beacon ends here: its outcome at each hearer, received or lost, is
        traced as one block, and no MAC sees it."""
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
        packet = frame.packet
        if packet.kind == KIND_PBC:
            self.trace.add_pbc_block(self.sim.now, packet.packet_id, frame.payload_size,
                                     tx.hearers.tolist(), decided)
        else:
            macs = self.macs
            for node, outcome in decided:
                if outcome == phy.OUTCOME_RECEIVED:
                    mac = macs.get(node)
                    if mac is not None:       # an id without a node receives nothing
                        mac.frame_received(frame, tx)
        self.macs[tx.sender].own_tx_ended(frame)
        for mac in tx.waiters:
            mac.resume_contention()
        tx.waiters = tx.overlaps = ()      # no reference cycle between overlapping pairs


class NodeMac:
    """Per-node CSMA/CA state machine over the shared channel.

    `_begin_wait` sets the backoff's end, DIFS plus the remaining slots away,
    reserves the sequence number its event gets, and enters
    `Channel.contenders` (CONTEND); or, while a sensed frame is on air, it
    joins the `waiters` of the one ending last (FROZEN). A contender leaves
    when its backoff fires or when it freezes (`medium_busy`): at the start of
    a sensed frame, or on decoding a unicast frame it did not sense.
    `Channel._tx_end` wakes a frozen node inline (`resume_contention`), and it
    waits again.

    Entry rule: a reservation's `mac.backoff` event, `_entry`, is queued at
    most once, when the node becomes `Channel.armed` without one, and lives
    until it fires or the node freezes, which cancels it. A displaced entry
    stays queued under its own (end, number) key: it comes up only after every
    earlier contender has fired or frozen, when its node is `armed` again.
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
        self._slot = params.slot
        self._ack_wait = params.sifs + params.airtime(0) + params.slot
        self.backoff_end = 0.0
        self.backoff_seq = 0
        self._entry = None                    # this reservation's queued entry, or None
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
        channel = self.channel
        # no frame on air, as often right after a wake: nothing to scan
        blocker = channel.busy_tx(self.node_id) if channel.active else None
        if blocker is not None:
            self.state = FROZEN
            blocker.waiters.append(self)
            return
        self.state = CONTEND
        sim = self.sim
        now = self.wait_started = sim.now
        # this operand order, as IEEE rounding makes it, decides same-slot ties
        end = self.backoff_end = now + self._difs + self.backoff_remaining * self._slot
        seq = self.backoff_seq = sim.reserve()
        channel.contenders[self.node_id] = self
        armed = channel.armed
        # on a tie `armed` keeps its place: its number is older. It is None only
        # when no one else contends, since _freeze_for_reception re-arms first
        if armed is None or end < armed.backoff_end:
            channel.armed = self
            self._entry = sim.schedule_reserved(end, seq, self._backoff_done, "mac.backoff")

    # the wake pass's call: a frozen node is in one `waiters` list and stays
    # FROZEN until that frame ends, so waking it is waiting again
    resume_contention = _begin_wait

    def medium_busy(self, t_busy: float, blocker):
        """Freeze this contender's countdown at t_busy, leave the contenders
        and join the `waiters` of `blocker`, if given. The whole slots counted
        down since DIFS ended are consumed, none inside DIFS:
        floor((t_busy - (wait_started + difs)) / slot + 1e-9)."""
        if self.backoff_end <= t_busy:
            return   # backoff hit zero this same instant: transmit (and collide)
        channel = self.channel
        if self._entry is not None:
            self._entry.cancelled = True      # pending, so this is all cancel() does
            self._entry = None
        if channel.armed is self:
            channel.armed = None              # the caller arms the next one
        elapsed = t_busy - (self.wait_started + self._difs)
        if elapsed > 0:
            consumed = int(elapsed / self._slot + 1e-9)   # a positive quotient: floor
            left = self.backoff_remaining
            self.backoff_remaining = left - consumed if consumed < left else 0
        del channel.contenders[self.node_id]
        self.state = FROZEN
        if blocker is not None:
            blocker.waiters.append(self)

    def _backoff_done(self):
        channel = self.channel
        channel.armed = self._entry = None    # transmit arms the next one
        del channel.contenders[self.node_id]
        frame = self.queue[0]
        self.state = TX
        channel.transmit(self.node_id, frame)

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
        below the carrier-sense threshold: the countdown must not have run
        through it, and nothing may transmit before the SIFS ack slot. Only a
        unicast destination can be contending here: a broadcast's receivers
        sensed it at its start. Its backoff ends at or after now, which is
        after tx_start, so it freezes."""
        if self.state == CONTEND:
            self.medium_busy(tx_start, None)
            self.channel._arm()               # it may have frozen as `armed`
            self._begin_wait()

    def frame_received(self, frame: Frame, tx: Transmission):
        if frame.dest == BROADCAST:
            self.deliver_cb(frame.packet, frame.src)
            return
        self._freeze_for_reception(tx.start)
        if frame.kind == FRAME_ACK:
            if (self.state == WAIT_ACK and self.queue
                    and frame.ack_for == self.queue[0].mac_seq
                    and frame.src == self.queue[0].dest):
                self.sim.cancel(self._timeout_ev)     # armed for as long as WAIT_ACK lasts
                self._timeout_ev = None
                self._frame_done()
            return
        self._send_ack(frame)
        if self._dedupe.get(frame.src) == frame.mac_seq:
            return   # retry duplicate: ACK again but deliver once
        self._dedupe[frame.src] = frame.mac_seq
        frame.delivered_to_dest = True
        self.deliver_cb(frame.packet, frame.src)

    def _send_ack(self, data_frame: Frame):
        """Answer after SIFS. The radio has one response slot: no ACK is sent while
        another is pending or in flight, or while its own frame is on air when
        this one falls due, so that sender retries and _dedupe keeps its delivery single."""
        if self._ack is not None:
            return
        self._ack = Frame(self.p, FRAME_ACK, self.node_id, data_frame.src,
                          data_frame.packet, 0, 0, ack_for=data_frame.mac_seq)
        self.sim.after(self.p.sifs, self._ack_due, target="mac.ack")

    def _ack_due(self):
        # its own frame is on air: its backoff fired as the data frame ended
        if self.state == TX:
            self._ack = None
        else:
            self.channel.transmit(self.node_id, self._ack)
