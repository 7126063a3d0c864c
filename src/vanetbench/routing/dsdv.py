"""Proactive distance-vector routing with destination sequence numbers:
periodic full dumps, triggered updates, settling delay, odd-sequence breaks."""

import math
from dataclasses import dataclass

from .base import RoutingProtocol

UPDATE_HEADER = 12
ENTRY_SIZE = 8

INF_METRIC = math.inf


@dataclass(slots=True)
class DsdvUpdate:
    entries: list            # [(dest, metric, seq), ...]; metric None encodes broken


@dataclass(slots=True)
class DsdvEntry:
    dest: int
    next_hop: int            # stale while the route is broken
    metric: float
    dest_seq: int            # even = alive (from the destination), odd = broken
    advertise_after: float


class Dsdv(RoutingProtocol):
    control_handlers = {DsdvUpdate: "_on_update"}

    def __init__(self, net, node_id: int):
        super().__init__(net, node_id)
        self.own_seq = 0
        self.table: dict[int, DsdvEntry] = {}
        self.last_heard: dict[int, float] = {}
        self.last_trigger = -math.inf
        self._trigger_pending = False

    def start(self):
        self.sim.every(self.sim.now + float(self.rng.uniform(0.0, 1.0)),
                       self.cfg.dsdv_full_dump_interval, math.inf, self._full_dump, "dsdv.dump")

    # -- lookups -----------------------------------------------------------------

    def route_lookup(self, dest: int):
        e = self.table.get(dest)
        return None if e is None or e.dest_seq % 2 else e.next_hop

    # -- advertisement -----------------------------------------------------------

    def _advertised_entries(self):
        now = self.sim.now
        out = [(self.node_id, 0, self.own_seq)]
        for e in self.table.values():
            if e.dest_seq % 2:
                out.append((e.dest, None, e.dest_seq))    # bad news skips settling
            elif now >= e.advertise_after:
                out.append((e.dest, e.metric, e.dest_seq))
        return out

    def _advertise(self):
        self.own_seq += 2
        entries = self._advertised_entries()
        self.send_control(DsdvUpdate(entries),
                          UPDATE_HEADER + ENTRY_SIZE * len(entries))

    def _full_dump(self):
        self._advertise()
        self._check_neighbors()

    def _trigger_update(self):
        now = self.sim.now
        if self._trigger_pending:
            return
        gap = self.cfg.dsdv_trigger_min_gap
        delay = max(0.0, self.last_trigger + gap - now)
        self._trigger_pending = True
        self.sim.after(delay, self._emit_trigger, target="dsdv.trigger")

    def _emit_trigger(self):
        self._trigger_pending = False
        self.last_trigger = self.sim.now
        self._advertise()

    def _check_neighbors(self):
        timeout = 2.0 * self.cfg.dsdv_full_dump_interval
        now = self.sim.now
        stale = [n for n, t in self.last_heard.items() if now - t > timeout]
        for n in stale:
            del self.last_heard[n]
            self.on_link_break(n)

    # -- updates -------------------------------------------------------------------

    def _on_update(self, msg: DsdvUpdate, from_node: int):
        now = self.sim.now
        self.last_heard[from_node] = now
        changed = False
        for dest, metric, seq in msg.entries:
            if dest == self.node_id:
                if seq % 2 and seq > self.own_seq:
                    # someone declared us dead: answer with a fresher even sequence
                    self.own_seq = seq + 1
                    self._trigger_update()
                continue
            broken = metric is None
            cand_metric = INF_METRIC if broken else metric + 1
            e = self.table.get(dest)
            if e is None:
                if broken:
                    continue
                self.table[dest] = DsdvEntry(dest, from_node, cand_metric, seq,
                                             now + self.cfg.dsdv_settling_time)
                changed = True
                continue
            if seq > e.dest_seq:
                settling = (not broken and cand_metric > e.metric)
                e.dest_seq = seq
                e.next_hop = from_node
                e.metric = cand_metric
                e.advertise_after = now + self.cfg.dsdv_settling_time if settling else now
                changed = True
            elif seq == e.dest_seq and cand_metric < e.metric:
                e.next_hop = from_node
                e.metric = cand_metric
                changed = True
        if changed:
            self._trigger_update()

    # -- failures --------------------------------------------------------------------

    def on_link_break(self, neighbor: int):
        """The MAC gave up on `neighbor`, or its updates stopped: break its routes."""
        changed = False
        for e in self.table.values():
            if e.next_hop == neighbor and e.metric != INF_METRIC:
                e.metric = INF_METRIC
                e.dest_seq += 1          # odd: locally generated break
                changed = True
        if changed:
            self._trigger_update()
