"""Run assembly: build the world, stacks and agents from a scenario and execute it."""

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import phy
from .agents import CbrAgent, PbcAgent, setup_flows
from .core import RngStreams, Simulator
from .mac import Channel, NodeMac
from .metrics import (EV_DROPPED, EV_RECEIVED, EV_SENT, LAYER_APP, Trace, TraceAggregator,
                      TraceFileWriter)
from .mobility import VehicleWorld
from .packets import BROADCAST, KIND_CBR
from .routing import PROTOCOLS
from .scenario import ScenarioConfig


class NodeStack:
    """One node's MAC and routing protocol, bound to the run services of `net`.

    Every data packet enters the network through `originate` and ends at this
    node in `deliver_local` or `drop_packet`, or in the MAC's own drop record.
    Which packets are still open is the run's TraceAggregator's to say: it
    sees each of those records.
    """

    def __init__(self, net, node_id):
        self.node_id = node_id
        self.sim = net.sim
        self.trace = net.trace
        self.routing_cfg = net.cfg.routing
        self.rng_routing = net.rngs.stream("routing")
        self._packet_ids = net.packet_ids
        self.mac = NodeMac(node_id, self.sim, net.channel, net.cfg.mac,
                           net.rngs.stream("mac"), self.trace,
                           deliver_cb=self._on_frame,
                           link_break_cb=self._on_link_break)
        self.routing = PROTOCOLS[self.routing_cfg.protocol](self)

    def new_packet_id(self) -> int:
        return next(self._packet_ids)

    # -- downward path -----------------------------------------------------------

    def originate(self, packet):
        """A data packet enters the network: its app sent record, then routing."""
        self.trace.add(self.sim.now, EV_SENT, "none", LAYER_APP, packet.kind,
                       packet.packet_id, packet.flow_id, self.node_id, packet.size)
        self.routing.on_data_to_send(packet)

    def send_unicast(self, packet, next_hop: int):
        self.mac.enqueue_packet(packet, next_hop)

    def send_broadcast(self, packet):
        self.mac.enqueue_packet(packet, BROADCAST)

    # -- upward path ---------------------------------------------------------------

    def _on_frame(self, packet, from_node: int):
        # a beacon never gets here: it ends in the MAC
        self.routing.on_packet_arrival(packet, from_node)

    def deliver_local(self, packet):
        self.trace.add(self.sim.now, EV_RECEIVED, "none", LAYER_APP, packet.kind,
                       packet.packet_id, packet.flow_id, self.node_id, packet.size)

    def drop_packet(self, packet, reason: str, layer: str):
        """A data packet ends here; routing never drops a control packet."""
        self.trace.add(self.sim.now, EV_DROPPED, reason, layer, packet.kind,
                       packet.packet_id, packet.flow_id, self.node_id, packet.size)

    def _on_link_break(self, neighbor: int):
        self.routing.on_link_break(neighbor)


@dataclass
class RunResult:
    aggregator: TraceAggregator
    events: int
    warnings: dict = field(default_factory=dict)


class Network:
    """The run services shared by every node, and one NodeStack per node id.

    Node i sits at row i of `coords` and has `stacks[i]`; subclasses place the
    nodes there.
    """

    def __init__(self, cfg: ScenarioConfig, nodes, trace_file=None):
        n = max(nodes) + 1 if nodes else 0
        self.cfg = cfg
        self.sim = Simulator()
        self.rngs = RngStreams(cfg.run.seed)
        self.trace = Trace()
        self.aggregator = self.trace.attach(TraceAggregator())
        if trace_file is not None:
            self.trace.attach(TraceFileWriter(trace_file))
        self.packet_ids = itertools.count()
        self.coords = np.zeros((n, 2))
        self.channel = Channel(self.sim, lambda: self.coords, cfg.phy,
                               phy.calibrate_range(cfg.phy),
                               self.rngs.stream("channel"), self.trace)
        self.stacks = {i: NodeStack(self, i) for i in nodes}

    def start_protocols(self):
        for stack in self.stacks.values():
            stack.routing.start()

    def close(self):
        """Drop every data packet still open, reason none, at its source, so
        that conservation holds exactly."""
        now = self.sim.now
        for pid, flow, node, size in list(self.aggregator.open_packets()):
            self.trace.add(now, EV_DROPPED, "none", LAYER_APP, KIND_CBR, pid, flow,
                           node, size)


class Simulation(Network):
    """One deterministic run: mobility + channel + MAC + routing + traffic."""

    def __init__(self, cfg: ScenarioConfig, trace_file=None):
        self.graph = cfg.validate()
        n = cfg.run.vehicles
        super().__init__(cfg, range(n), trace_file)
        self.world = VehicleWorld(self.graph, cfg.mobility, n,
                                  self.rngs.stream("mobility"),
                                  lane_changes=(cfg.mobility.model == "idm-lc"))
        self._refresh_coords()

        rng_traffic = self.rngs.stream("traffic")
        stop = cfg.traffic.cbr_stop if cfg.traffic.cbr_stop is not None else cfg.run.duration
        self.flows = setup_flows(rng_traffic, cfg.traffic.cbr_connections, range(n),
                                 cfg.traffic.packet_size, cfg.traffic.rate,
                                 cfg.traffic.cbr_start, stop)
        self.cbr_agents = [CbrAgent(self.sim, self.stacks[f.src], f)
                           for f in self.flows]
        phases = rng_traffic.uniform(0.0, cfg.traffic.beacon_interval, size=n)
        self.pbc_agents = [PbcAgent(self.sim, self.stacks[i], self.world,
                                    cfg.traffic, cfg.run.duration, float(phases[i]))
                           for i in range(n)]
        self.world.brake_listeners.append(self._dispatch_brake)
        self.mobility_rows: list[tuple] = []   # (t, vehicle, x, y, speed) on the 1 s grid

    # -- wiring helpers ---------------------------------------------------------

    def _refresh_coords(self):
        for vid, st in self.world.vehicles.items():
            self.coords[vid, 0] = st.x
            self.coords[vid, 1] = st.y

    def _dispatch_brake(self, vehicle_id: int, accel: float, t: float):
        self.pbc_agents[vehicle_id].on_accel(vehicle_id, accel, t)

    def _mobility_tick(self, k: int):
        dt = self.cfg.mobility.integration_dt
        self.world.step(dt)
        self._refresh_coords()
        self.channel.bump_geometry()
        if self.cfg.run.mobility_trace and (k + 1) % self.world.recalc_every == 0:
            t = self.sim.now
            for vid, st in self.world.vehicles.items():
                self.mobility_rows.append((t, vid, st.x, st.y, st.speed))
        t_next = (k + 1) * dt
        if t_next < self.cfg.run.duration:
            self.sim.schedule(t_next, lambda: self._mobility_tick(k + 1),
                              target="world.step")

    # -- execution -----------------------------------------------------------------

    def run(self) -> RunResult:
        cfg = self.cfg
        if cfg.run.vehicles > 0:
            self.sim.schedule(0.0, lambda: self._mobility_tick(0), target="world.step")
        self.start_protocols()
        for agent in self.cbr_agents:
            agent.start()
        for agent in self.pbc_agents:
            agent.start()
        events = self.sim.run_until(cfg.run.duration)
        self.close()
        warnings = {
            "emergency_brakes": self.world.emergency_warnings,
            "lane_changes": self.world.lane_change_count,
        }
        return RunResult(self.aggregator, events, warnings)
