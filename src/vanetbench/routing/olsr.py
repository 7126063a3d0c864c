"""Proactive link-state routing with multipoint relays: HELLO link sensing,
greedy MPR election, TC flooding via MPRs, hop-count shortest paths."""

import math
from bisect import bisect_left
from collections import defaultdict, deque
from dataclasses import dataclass

from .base import RoutingProtocol

HELLO_HEADER = 16
HELLO_LINK_SIZE = 4
TC_HEADER = 16
TC_ENTRY_SIZE = 4

SYM = "sym"
HEARD = "heard"


@dataclass(slots=True)
class Hello:
    links: list              # [(neighbor, status, is_mpr), ...], ascending neighbor
    sym: tuple               # the sender's symmetric neighbors, ascending


@dataclass(slots=True)
class Tc:
    origin: int
    seq: int
    selectors: tuple         # ascending


@dataclass(slots=True)
class LinkInfo:
    status: str
    sym: tuple               # the neighbor's symmetric neighbors, from its HELLO
    heard: float             # when its latest HELLO arrived


def select_mprs(neighbors: set, two_hop: dict) -> set:
    """Greedy MPR election over a neighborhood snapshot.

    `two_hop` maps each symmetric neighbor to the set of nodes it covers.
    First take neighbors uniquely covering some strict two-hop neighbor, then
    repeatedly the neighbor covering most uncovered nodes (smallest id on ties).
    """
    strict = set()
    for n, covered in two_hop.items():
        strict |= covered
    strict -= neighbors
    holder = {}                      # covered node -> its only neighbor, None if several
    for n in neighbors:
        for target in two_hop.get(n, ()):
            holder[target] = None if target in holder else n
    mprs = {holder[t] for t in strict if holder.get(t) is not None}
    uncovered = set(strict)
    for m in mprs:
        uncovered -= two_hop.get(m, set())
    while uncovered:
        best = None
        best_gain = -1
        for n in sorted(neighbors - mprs):
            gain = len(uncovered & two_hop.get(n, set()))
            if gain > best_gain:
                best, best_gain = n, gain
        if best is None or best_gain <= 0:
            break   # leftover targets are uncoverable (stale two-hop info)
        mprs.add(best)
        uncovered -= two_hop.get(best, set())
    return mprs


class Olsr(RoutingProtocol):
    """One node's OLSR state. The MPR set and the route table are derived from
    `links` and `topology`. The MPR set is elected on each read, once per own
    HELLO, as a moving neighborhood changes between any two of them. The route
    table is dropped (`routes` is None) when a change makes it stale: a new
    neighbor, a changed link status or symmetric-neighbor set, a TC from a new
    origin or with changed selectors, an expiry or a link break. The next
    `route_lookup` recomputes it.

    A received fact is kept as a reference to the message that carried it plus
    the instant it was heard, the dispatching event's clock value: a link keeps
    its HELLO's ascending tuple of symmetric neighbors, and `seen_tc` keeps each
    origin's newest `Tc`, whose selectors a `topology` entry stands for while
    it lives; an MPR re-sends that same `Tc`. An entry expires once `heard +
    hold <= now`. A link's `sym` may include the node itself; the MPR
    election subtracts it, and in the route BFS it is the root."""

    control_handlers = {Hello: "_on_hello", Tc: "_on_tc"}

    def __init__(self, net, node_id: int):
        super().__init__(net, node_id)
        self.links: dict[int, LinkInfo] = {}
        self.mpr_selectors: dict[int, float] = {}    # nbr -> heard
        self.topology: dict[int, float] = {}         # origin -> heard
        self.tc_seq = 0
        self.seen_tc: dict[int, Tc] = {}             # origin -> newest TC seen
        self.routes: dict[int, int] | None = None     # None while stale

    def start(self):
        sim, cfg = self.sim, self.cfg
        hello = sim.now + float(self.rng.uniform(0.0, cfg.olsr_hello_interval))
        tc = sim.now + float(self.rng.uniform(0.0, cfg.olsr_tc_interval))
        sim.every(hello, cfg.olsr_hello_interval, math.inf, self._hello_tick, "olsr.hello")
        sim.every(tc, cfg.olsr_tc_interval, math.inf, self._tc_tick, "olsr.tc")

    # -- timers ------------------------------------------------------------------

    def _hello_tick(self):
        self._expire()
        mprs = self.mpr_set
        links = [(n, info.status, n in mprs)
                 for n, info in sorted(self.links.items())]
        sym = tuple([n for n, status, _ in links if status == SYM])
        self.send_control(Hello(links, sym), HELLO_HEADER + HELLO_LINK_SIZE * len(links))

    def _tc_tick(self):
        self._expire()
        if self.mpr_selectors:
            self.tc_seq += 1
            selectors = tuple(sorted(self.mpr_selectors))
            self.send_control(Tc(self.node_id, self.tc_seq, selectors),
                              TC_HEADER + TC_ENTRY_SIZE * len(selectors))

    def _expire(self):
        now = self.sim.now
        hold = self.cfg.hold_multiplier * self.cfg.olsr_hello_interval
        for n in [n for n, i in self.links.items() if i.heard + hold <= now]:
            del self.links[n]
            self.routes = None
        for n in [n for n, heard in self.mpr_selectors.items() if heard + hold <= now]:
            del self.mpr_selectors[n]
        hold = self.cfg.hold_multiplier * self.cfg.olsr_tc_interval
        for o in [o for o, heard in self.topology.items() if heard + hold <= now]:
            del self.topology[o]
            self.routes = None

    # -- control ------------------------------------------------------------------

    def _on_hello(self, hello: Hello, nbr: int):
        now = self.sim.now
        me = self.node_id
        links = hello.links
        i = bisect_left(links, (me,))
        heard_me = i < len(links) and links[i][0] == me
        if heard_me and links[i][2]:
            self.mpr_selectors[nbr] = now
        status = SYM if heard_me else HEARD
        sym = hello.sym
        old = self.links.get(nbr)
        # whether the sender lists this node as symmetric changes neither the
        # MPR election nor the routes, so it alone marks nothing stale
        if old is None or old.status != status or (
                old.sym != sym and set(old.sym).symmetric_difference(sym) != {me}):
            self.routes = None
        self.links[nbr] = LinkInfo(status, sym, now)

    def _on_tc(self, tc: Tc, prev: int):
        if tc.origin == self.node_id:
            return
        seen = self.seen_tc.get(tc.origin)
        if seen is not None and seen.seq >= tc.seq:
            return
        if tc.origin not in self.topology or seen.selectors != tc.selectors:
            self.routes = None
        self.seen_tc[tc.origin] = tc
        self.topology[tc.origin] = self.sim.now
        # only multipoint relays of the previous hop retransmit the flood
        if prev in self.mpr_selectors:
            self.send_control(tc, TC_HEADER + TC_ENTRY_SIZE * len(tc.selectors))

    # -- state --------------------------------------------------------------------

    def _sym_neighbors(self) -> set:
        return {n for n, i in self.links.items() if i.status == SYM}

    @property
    def mpr_set(self) -> set:
        """Multipoint relays among the symmetric neighbors, elected on each read."""
        neighbors = self._sym_neighbors()
        me = {self.node_id}
        return select_mprs(neighbors, {n: set(self.links[n].sym) - me for n in neighbors})

    def _recompute_routes(self) -> dict[int, int]:
        """Hop-count BFS over the learned topology; deterministic next hops."""
        me = self.node_id
        stars = [(me, self._sym_neighbors())]      # (node, nodes it links to)
        stars += [(n, info.sym) for n, info in self.links.items()]
        stars += [(origin, self.seen_tc[origin].selectors) for origin in self.topology]
        adj: dict[int, set] = defaultdict(set)
        for a, others in stars:
            adj[a].update(others)
            for b in others:
                adj[b].add(a)

        routes: dict[int, int] = {}
        first_hop: dict[int, int] = {me: me}
        q = deque([me])
        while q:
            u = q.popleft()
            for v in sorted(adj.get(u, ())):
                if v in first_hop:
                    continue
                first_hop[v] = v if u == me else first_hop[u]
                if v != me:
                    routes[v] = first_hop[v]
                q.append(v)
        self.routes = routes
        return routes

    def route_lookup(self, dest: int):
        routes = self.routes
        if routes is None:
            routes = self._recompute_routes()
        nh = routes.get(dest)
        if nh is not None and nh in self.links and self.links[nh].status == SYM:
            return nh
        return None

    def on_link_break(self, neighbor: int):
        if neighbor in self.links:
            del self.links[neighbor]
            self.mpr_selectors.pop(neighbor, None)
            self.routes = None
