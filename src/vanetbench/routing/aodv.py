"""On-demand distance-vector routing: RREQ flood / RREP reverse-path / RERR."""

from dataclasses import dataclass

from ..packets import BROADCAST
from .base import ReactiveProtocol, RecentKeys

RREQ_SIZE = 24
RREP_SIZE = 20
RERR_SIZE = 20


@dataclass(slots=True)
class Rreq:
    origin: int
    rreq_id: int
    origin_seq: int
    dest: int
    dest_seq: int            # last known; -1 when unknown
    hop_count: int
    ttl: int
    flood_time: float        # when the origin sent the first copy
    first_hop: int | None = None   # AOMDV's extension: first forwarder after the origin
    key: tuple | None = None   # (origin, rreq_id): made by the origin, carried by each copy

    def __post_init__(self):
        self.key = self.key or (self.origin, self.rreq_id)


@dataclass(slots=True)
class Rrep:
    origin: int              # discovery source the reply travels to
    dest: int                # destination the route leads to
    dest_seq: int
    hop_count: int
    first_hop: int | None = None   # AOMDV's extension: dest-side neighbour it left through


@dataclass(slots=True)
class Rerr:
    unreachable: list        # [(dest, seq), ...]


@dataclass(slots=True)
class AodvEntry:
    dest: int
    dest_seq: int
    seq_valid: bool
    hop_count: int
    next_hop: int
    expiry: float
    valid: bool


class Aodv(ReactiveProtocol):
    discovery_target = "aodv.discovery"
    control_handlers = {Rreq: "_on_rreq", Rrep: "_on_rrep", Rerr: "_on_rerr"}

    def __init__(self, net, node_id: int):
        super().__init__(net, node_id)
        self.table: dict[int, AodvEntry] = {}
        # dest -> neighbours that route to dest through this node. A set is made
        # by its first add, so a key means a non-empty set; a table entry is
        # never replaced or deleted, only invalidated, so per dest is per entry
        self.precursors: dict[int, set] = {}
        # flood key -> best hop count seen, for duplicate suppression
        self.seen = RecentKeys(self.sim, self.rreq_horizon)

    # -- table helpers ---------------------------------------------------------

    def _entry_usable(self, e: AodvEntry | None) -> bool:
        return (e is not None and e.valid and e.seq_valid
                and e.expiry > self.sim.now)

    def route_lookup(self, dest: int):
        e = self.table.get(dest)
        if not self._entry_usable(e):
            return None
        e.expiry = self.sim.now + self.cfg.aodv_route_timeout   # refresh on use
        return e.next_hop

    def _update_route(self, dest, seq, seq_valid, hops, next_hop):
        """Install/refresh under the freshness rule: newer seq, or equal seq
        with fewer hops, or replacing an unusable entry."""
        now = self.sim.now
        expiry = now + self.cfg.aodv_route_timeout
        e = self.table.get(dest)
        if e is None:
            self.table[dest] = AodvEntry(dest, seq, seq_valid, hops, next_hop,
                                         expiry, True)
            return
        fresher = (seq_valid and (not e.seq_valid or seq > e.dest_seq
                                  or (seq == e.dest_seq and hops < e.hop_count)))
        if fresher or not self._entry_usable(e):
            e.dest_seq = seq if seq_valid else e.dest_seq
            e.seq_valid = e.seq_valid or seq_valid
            e.hop_count = hops
            e.next_hop = next_hop
            e.expiry = expiry
            e.valid = True
        else:
            e.expiry = max(e.expiry, expiry)

    # -- discovery ---------------------------------------------------------------

    def _has_route(self, dest: int) -> bool:
        return self._entry_usable(self.table.get(dest))   # no expiry refresh

    def _flood_rreq(self, dest: int, ttl: int):
        e = self.table.get(dest)
        dest_seq = e.dest_seq if (e is not None and e.seq_valid) else -1
        rreq = Rreq(self.node_id, self.rreq_id, self.seq, dest, dest_seq, 0, ttl,
                    self.sim.now)
        self.send_control(rreq, RREQ_SIZE)

    # -- control handling ---------------------------------------------------------

    def _on_rreq(self, rreq: Rreq, prev: int):
        if rreq.origin == self.node_id or self._stale_rreq(rreq.flood_time):
            return
        # neighbor route to the transmitter
        self._update_route(prev, 0, False, 1, prev)
        hops_here = rreq.hop_count + 1
        duplicate = rreq.key in self.seen
        if duplicate and hops_here >= self.seen[rreq.key]:
            return
        self.seen[rreq.key] = hops_here
        self._update_route(rreq.origin, rreq.origin_seq, True, hops_here, prev)
        if rreq.dest == self.node_id:
            self._reply_as_dest(rreq, prev)
            return
        if duplicate:
            return   # a better duplicate keeps the better reverse path, never re-floods
        e = self.table.get(rreq.dest)
        if self._entry_usable(e) and e.seq_valid and e.dest_seq >= rreq.dest_seq:
            rrep = Rrep(rreq.origin, rreq.dest, e.dest_seq, e.hop_count)
            self.precursors.setdefault(rreq.dest, set()).add(prev)
            self.send_control(rrep, RREP_SIZE, dest=prev)
            return
        if rreq.ttl - 1 > 0:
            fwd = Rreq(rreq.origin, rreq.rreq_id, rreq.origin_seq, rreq.dest,
                       rreq.dest_seq, hops_here, rreq.ttl - 1, rreq.flood_time, key=rreq.key)
            self.send_control(fwd, RREQ_SIZE)

    def _reply_as_dest(self, rreq: Rreq, prev: int):
        if rreq.dest_seq > self.seq:
            self.seq = rreq.dest_seq
        self.seq += 1
        self.send_control(Rrep(rreq.origin, self.node_id, self.seq, 0),
                          RREP_SIZE, dest=prev)

    def _on_rrep(self, rrep: Rrep, prev: int):
        hops_here = rrep.hop_count + 1
        self._update_route(prev, 0, False, 1, prev)
        self._update_route(rrep.dest, rrep.dest_seq, True, hops_here, prev)
        if rrep.origin == self.node_id:
            self._discovery_done(rrep.dest)
            return
        back = self.table.get(rrep.origin)
        if not self._entry_usable(back):
            return   # reverse route evaporated; the reply dies here
        fwd = Rrep(rrep.origin, rrep.dest, rrep.dest_seq, hops_here)
        self.precursors.setdefault(rrep.dest, set()).add(back.next_hop)
        self.send_control(fwd, RREP_SIZE, dest=back.next_hop)

    # -- failure handling -----------------------------------------------------------

    def on_link_break(self, neighbor: int):
        unreachable = []
        has_precursors = False
        for e in self.table.values():
            if e.valid and e.next_hop == neighbor:
                e.valid = False
                if e.seq_valid:
                    e.dest_seq += 1
                unreachable.append((e.dest, e.dest_seq))
                has_precursors = has_precursors or e.dest in self.precursors
        nbr = self.table.get(neighbor)
        if nbr is not None:
            nbr.valid = False
        if has_precursors:
            self.send_control(Rerr(unreachable), RERR_SIZE)

    def _on_rerr(self, rerr: Rerr, prev: int):
        propagate = []
        for dest, seq in rerr.unreachable:
            e = self.table.get(dest)
            if e is not None and e.valid and e.next_hop == prev:
                e.valid = False
                if seq > e.dest_seq:
                    e.dest_seq = seq
                if dest in self.precursors:
                    propagate.append((dest, e.dest_seq))
        if propagate:
            self.send_control(Rerr(propagate), RERR_SIZE)
