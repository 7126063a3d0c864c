"""Multipath on-demand routing: link-disjoint path sets with loop freedom via
the advertised-hop-count rule. Its messages are AODV's plus the first hop
(Marina and Das, ICNP 2001); a copy's `hop_count` is the count it advertises."""

import math
from dataclasses import dataclass, field

from .aodv import Rerr, Rrep, Rreq
from .base import ReactiveProtocol, RecentKeys

RREQ_SIZE = 28
RREP_SIZE = 24
RERR_SIZE = 20


@dataclass(slots=True)
class AomdvPath:
    next_hop: int
    last_hop: int
    hop_count: int
    expiry: float


@dataclass(slots=True)
class AomdvEntry:
    dest: int
    dest_seq: int
    advertised_hops: float = math.inf    # frozen at first advertisement per sequence
    paths: list = field(default_factory=list)

    def alive_paths(self, now: float):
        return [p for p in self.paths if p.expiry > now]


class Aomdv(ReactiveProtocol):
    discovery_target = "aomdv.discovery"
    control_handlers = {Rreq: "_on_rreq", Rrep: "_on_rrep", Rerr: "_on_rerr"}

    def __init__(self, net, node_id: int):
        super().__init__(net, node_id)
        self.table: dict[int, AomdvEntry] = {}
        # (origin, rreq_id) -> True at a relay once it handled the request, or
        # (replies, seq used) at its destination
        self.seen = RecentKeys(self.sim, self.rreq_horizon)

    # -- table ------------------------------------------------------------------

    def route_lookup(self, dest: int):
        e = self.table.get(dest)
        if e is None:
            return None
        now = self.sim.now
        alive = e.alive_paths(now)
        if not alive:
            return None
        primary = alive[0]
        primary.expiry = now + self.cfg.aodv_route_timeout
        return primary.next_hop

    def _install_path(self, dest, seq, next_hop, last_hop, hop_count) -> bool:
        """Disjointness (distinct next and last hops) plus the hop-count rule."""
        e = self.table.get(dest)
        if e is None:
            e = self.table[dest] = AomdvEntry(dest, seq)
        if seq > e.dest_seq:
            e.dest_seq = seq
            e.paths = []
            e.advertised_hops = math.inf
        elif seq < e.dest_seq:
            return False
        if hop_count >= e.advertised_hops:
            return False
        if len(e.paths) >= self.cfg.aomdv_max_paths or any(
                p.next_hop == next_hop or p.last_hop == last_hop for p in e.paths):
            return False
        e.paths.append(AomdvPath(next_hop, last_hop, hop_count,
                                 self.sim.now + self.cfg.aodv_route_timeout))
        e.paths.sort(key=lambda p: (p.hop_count, p.next_hop))
        return True

    def _freeze_advertised(self, e: AomdvEntry):
        if e.advertised_hops is math.inf and e.paths:
            e.advertised_hops = max(p.hop_count for p in e.paths)

    # -- discovery ----------------------------------------------------------------

    def _has_route(self, dest: int) -> bool:
        return self.route_lookup(dest) is not None   # refreshes the primary's expiry

    def _flood_rreq(self, dest: int, ttl: int):
        e = self.table.get(dest)
        dest_seq = e.dest_seq if e is not None else -1
        rreq = Rreq(self.node_id, self.rreq_id, self.seq, dest, dest_seq, 0, ttl,
                    self.sim.now, first_hop=self.node_id)
        self.send_control(rreq, RREQ_SIZE)

    # -- control --------------------------------------------------------------------

    def _on_rreq(self, rreq: Rreq, prev: int):
        if rreq.origin == self.node_id or self._stale_rreq(rreq.flood_time):
            return
        hops_here = rreq.hop_count + 1
        last_hop = rreq.first_hop if rreq.first_hop != rreq.origin else prev
        # every copy is examined for an additional disjoint reverse path
        self._install_path(rreq.origin, rreq.origin_seq, prev, last_hop, hops_here)
        key = (rreq.origin, rreq.rreq_id)
        if rreq.dest == self.node_id:
            replies, reply_seq = self.seen.get(key, (0, None))
            if replies >= self.cfg.aomdv_max_paths:
                return
            if reply_seq is None:
                # one sequence bump per discovery; later replies reuse it so the
                # origin accumulates paths instead of resetting on a fresher seq
                if rreq.origin_seq > self.seq:
                    self.seq = rreq.origin_seq
                self.seq += 1
                reply_seq = self.seq
            self.seen[key] = (replies + 1, reply_seq)
            self.send_control(Rrep(rreq.origin, self.node_id, reply_seq, 0,
                                   first_hop=self.node_id), RREP_SIZE, dest=prev)
            return
        if key in self.seen:
            return
        self.seen[key] = True
        if rreq.ttl - 1 > 0:
            entry = self.table.get(rreq.origin)
            if entry is not None:
                self._freeze_advertised(entry)   # forwarding advertises the reverse path
            first = self.node_id if rreq.first_hop == rreq.origin else rreq.first_hop
            fwd = Rreq(rreq.origin, rreq.rreq_id, rreq.origin_seq, rreq.dest,
                       rreq.dest_seq, hops_here, rreq.ttl - 1, rreq.flood_time, first)
            self.send_control(fwd, RREQ_SIZE)

    def _on_rrep(self, rrep: Rrep, prev: int):
        hops_here = rrep.hop_count + 1
        last_hop = rrep.first_hop if rrep.first_hop != rrep.dest else prev
        installed = self._install_path(rrep.dest, rrep.dest_seq, prev, last_hop,
                                       hops_here)
        if rrep.origin == self.node_id:
            self._discovery_done(rrep.dest)
            return
        if not installed:
            return
        back = self.table.get(rrep.origin)
        alive = back.alive_paths(self.sim.now) if back is not None else []
        if not alive:
            return
        e = self.table[rrep.dest]
        self._freeze_advertised(e)
        first = self.node_id if rrep.first_hop == rrep.dest else rrep.first_hop
        fwd = Rrep(rrep.origin, rrep.dest, rrep.dest_seq, int(e.advertised_hops), first)
        self.send_control(fwd, RREP_SIZE, dest=alive[0].next_hop)

    # -- failure ----------------------------------------------------------------------

    def on_link_break(self, neighbor: int):
        lost = []
        for e in self.table.values():
            before = bool(e.paths)
            e.paths = [p for p in e.paths if p.next_hop != neighbor]
            if before and not e.paths:
                e.dest_seq += 1
                lost.append((e.dest, e.dest_seq))
        if lost:
            self.send_control(Rerr(lost), RERR_SIZE)

    def _on_rerr(self, rerr: Rerr, prev: int):
        propagate = []
        for dest, seq in rerr.unreachable:
            e = self.table.get(dest)
            if e is None:
                continue
            before = bool(e.paths)
            e.paths = [p for p in e.paths if p.next_hop != prev]
            if before and not e.paths:
                if seq > e.dest_seq:
                    e.dest_seq = seq
                propagate.append((dest, e.dest_seq))
        if propagate:
            self.send_control(Rerr(propagate), RERR_SIZE)
