"""One network node: its routing protocol and the shared data-forwarding plane."""

from collections import deque

from ..metrics import EV_DROPPED, EV_FORWARDED, EV_RECEIVED, EV_SENT, LAYER_APP, \
    LAYER_ROUTING
from ..packets import BROADCAST, KIND_CONTROL, Packet


class RoutingProtocol:
    """One node, bound to the run services of `net`: route lookup, data
    send/arrival, link-break signal, timers. `mac` is the node's NodeMac, which
    the Network wires to `on_packet_arrival` and `on_link_break`.

    Every data packet enters the network through `originate` and ends at this
    node in a received or dropped record, or in the MAC's own drop record.
    Which packets are still open is the run's TraceAggregator's to say: it
    sees each of those records.

    A data packet leaves a node only through `_send`, whether it starts here,
    arrives from a neighbour, or waited in a reactive buffer. Proactive
    protocols drop data immediately when the table has no route;
    ReactiveProtocol buffers it pending discovery instead.
    """

    # control payload type -> name of the method that handles it as (msg, from_node)
    control_handlers: dict = {}

    def __init__(self, net, node_id: int):
        self.node_id = node_id
        self.sim = net.sim
        self.trace = net.trace
        self.cfg = net.cfg.routing
        self.rng = net.rngs.stream("routing")
        self._packet_ids = net.packet_ids
        self.mac = None

    def new_packet_id(self) -> int:
        return next(self._packet_ids)

    def record(self, event: str, reason: str, layer: str, packet: Packet):
        """Write one trace record of `packet` at this node, now."""
        self.trace.add(self.sim.now, event, reason, layer, packet.kind,
                       packet.packet_id, packet.flow_id, self.node_id, packet.size)

    # -- protocol hooks ------------------------------------------------------

    def start(self):
        """Schedule periodic timers; called once at run start."""

    def route_lookup(self, dest: int):
        raise NotImplementedError

    def on_link_break(self, neighbor: int):
        """The MAC gave up on a unicast frame to `neighbor`."""

    def on_control(self, packet: Packet, from_node: int):
        """Hand the payload to its type's handler; other payloads are ignored."""
        name = self.control_handlers.get(type(packet.payload))
        if name is not None:
            getattr(self, name)(packet.payload, from_node)

    # -- data plane ----------------------------------------------------------

    def originate(self, packet: Packet):
        """A data packet enters the network: its app sent record, then routing."""
        self.record(EV_SENT, "none", LAYER_APP, packet)
        self.on_data_to_send(packet)

    def on_data_to_send(self, packet: Packet):
        if not self._send(packet, origin=True):
            self._no_route(packet, origin=True)

    def on_packet_arrival(self, packet: Packet, from_node: int):
        """Handle control; deliver data addressed here, or forward it."""
        # a beacon never gets here: it ends in the channel (`Channel._tx_end`)
        if packet.kind == KIND_CONTROL:
            self.on_control(packet, from_node)
        elif packet.dst == self.node_id:
            self.record(EV_RECEIVED, "none", LAYER_APP, packet)
        else:
            packet.ttl -= 1
            if packet.ttl <= 0:
                self.drop_packet(packet, "ttl")
            elif not self._send(packet, origin=False):
                self._no_route(packet, origin=False)

    def drop_packet(self, packet: Packet, reason: str):
        """A data packet ends here; routing never drops a control packet."""
        self.record(EV_DROPPED, reason, LAYER_ROUTING, packet)

    def _send(self, packet: Packet, origin: bool) -> bool:
        """Hand the packet to the MAC for its next hop, with a forward record
        unless it started here. False, and no record, when there is no route."""
        nh = self.route_lookup(packet.dst)
        if nh is None:
            return False
        if not origin:
            self.record(EV_FORWARDED, "none", LAYER_ROUTING, packet)
        self.mac.enqueue_packet(packet, nh)
        return True

    def _no_route(self, packet: Packet, origin: bool):
        self.drop_packet(packet, "no-route")

    # -- control emission helper ----------------------------------------------

    def send_control(self, payload, size: int, dest: int = BROADCAST):
        self.mac.enqueue_packet(Packet(KIND_CONTROL, dest, size, self.new_packet_id(),
                                       None, 255, payload), dest)


class RecentKeys(dict):
    """Duplicate-suppression table that forgets a key `horizon` seconds after
    the key was first stored.

    Keys are stored in time order, so each new key first evicts the expired
    ones from the front of `_born` and `_keys`; lookups are plain dict lookups.
    """

    def __init__(self, sim, horizon: float):
        super().__init__()
        self._sim = sim
        self._horizon = horizon
        # first-stored times and their keys, oldest first, in two aligned
        # deques so that storing a key allocates no (time, key) tuple
        self._born: deque = deque()
        self._keys: deque = deque()

    def __setitem__(self, key, value):
        if key not in self:
            now = self._sim.now
            born = self._born
            keys = self._keys
            cutoff = now - self._horizon
            while born and born[0] < cutoff:
                born.popleft()
                del self[keys.popleft()]
            born.append(now)
            keys.append(key)
        super().__setitem__(key, value)


class ReactiveProtocol(RoutingProtocol):
    """Expanding-ring route discovery shared by the on-demand protocols.

    Each attempt floods one RREQ with the next ring TTL and arms a timer; a
    reply reaching the origin ends the discovery, and a timeout either finds
    the route installed meanwhile, retries, or gives up and drops the buffer.
    Subclasses supply the RREQ (`_flood_rreq`), the route check at timeout
    (`_has_route`) and the timer's event label (`discovery_target`).
    """

    discovery_target = ""

    def __init__(self, net, node_id: int):
        super().__init__(net, node_id)
        self.seq = 0
        self.rreq_id = 0
        self.pending: dict = {}                 # dest -> the discovery's timeout event
        self.buffer: dict[int, deque] = {}      # dest -> deque[(packet, enq time, origin)]
        # RREQ duplicate keys are forgotten, and RREQ copies ignored, this long
        # after the flood began: by then every packet that started the flood
        # has expired from the origin's buffer, so a reply could deliver nothing
        self.rreq_horizon = self.cfg.buffer_timeout

    def _stale_rreq(self, flood_time: float) -> bool:
        """A copy this old may belong to a forgotten key; it is not a new request."""
        return self.sim.now - flood_time >= self.rreq_horizon

    def _flood_rreq(self, dest: int, ttl: int):
        raise NotImplementedError

    def _has_route(self, dest: int) -> bool:
        raise NotImplementedError

    # -- reactive send buffer --------------------------------------------------

    def _no_route(self, packet: Packet, origin: bool):
        """Hold the packet (bounded per destination) and discover a route."""
        q = self.buffer.setdefault(packet.dst, deque())
        self._expire_buffer(packet.dst)
        if len(q) >= self.cfg.buffer_packets:
            self.drop_packet(q.popleft()[0], "no-route")
        q.append((packet, self.sim.now, origin))
        if packet.dst not in self.pending:
            self._send_rreq(packet.dst, 0)

    def _expire_buffer(self, dest: int):
        q = self.buffer.get(dest)
        if not q:
            return
        horizon = self.sim.now - self.cfg.buffer_timeout
        while q and q[0][1] < horizon:
            self.drop_packet(q.popleft()[0], "no-route")

    def flush_buffer(self, dest: int):
        """Send everything buffered for dest; with no route, each is dropped."""
        self._expire_buffer(dest)
        for packet, _, origin in self.buffer.pop(dest, ()):
            if not self._send(packet, origin):
                self.drop_packet(packet, "no-route")

    # -- discovery -------------------------------------------------------------

    def _send_rreq(self, dest: int, attempt: int):
        ttls = self.cfg.aodv_ring_ttls
        ttl = ttls[min(attempt, len(ttls) - 1)]
        self.rreq_id += 1
        self.seq += 1
        self._flood_rreq(dest, ttl)
        self.pending[dest] = self.sim.after(
            2.0 * self.cfg.aodv_node_traversal * ttl,
            lambda: self._discovery_timeout(dest, attempt), target=self.discovery_target)

    def _discovery_timeout(self, dest: int, attempt: int):
        del self.pending[dest]               # _discovery_done cancels this timer
        if self._has_route(dest) or attempt >= self.cfg.aodv_rreq_retries:
            self.flush_buffer(dest)          # sends, or drops what found no route
        else:
            self._send_rreq(dest, attempt + 1)

    def _discovery_done(self, dest: int):
        """A reply reached the origin: stop the timer and send what waited."""
        if dest in self.pending:            # later replies find the discovery over
            self.sim.cancel(self.pending.pop(dest))
        self.flush_buffer(dest)
