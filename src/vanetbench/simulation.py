"""Run assembly: build the world, nodes and agents from a scenario and execute it."""

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import phy
from .agents import PbcAgent, setup_flows, start_cbr
from .core import RngStreams, Simulator
from .mac import Channel, NodeMac
from .metrics import EV_DROPPED, LAYER_APP, Trace, TraceAggregator, TraceFileWriter
from .mobility import VehicleWorld
from .packets import KIND_CBR
from .routing import PROTOCOLS
from .scenario import ScenarioConfig


@dataclass
class RunResult:
    aggregator: TraceAggregator
    events: int
    warnings: dict = field(default_factory=dict)


class Network:
    """The run services shared by every node, and `n` nodes, ids 0 to n - 1:
    each a routing protocol wired to its own NodeMac.

    Node i sits at row i of `coords` and is `nodes[i]`. Whoever moves a node
    writes its new position there, then calls `channel.bump_geometry()`,
    which drops the link budgets of the old positions.
    """

    def __init__(self, cfg: ScenarioConfig, n: int, trace_file=None):
        self.cfg = cfg
        self.sim = Simulator()
        self.rngs = RngStreams(cfg.run.seed)
        self.trace = Trace()
        self.aggregator = self.trace.attach(TraceAggregator())
        if trace_file is not None:
            self.trace.attach(TraceFileWriter(trace_file))
        self.packet_ids = itertools.count()
        self.coords = np.zeros((n, 2))
        self.channel = Channel(self.sim, self.coords, cfg.phy, phy.calibrate_range(cfg.phy),
                               self.rngs.stream("channel"), self.trace)
        rng_mac = self.rngs.stream("mac")
        self.nodes = {i: PROTOCOLS[cfg.routing.protocol](self, i) for i in range(n)}
        for i, node in self.nodes.items():
            node.mac = NodeMac(i, self.sim, self.channel, cfg.mac, rng_mac, self.trace,
                               deliver_cb=node.on_packet_arrival,
                               link_break_cb=node.on_link_break)

    def start_protocols(self):
        for node in self.nodes.values():
            node.start()

    def close(self):
        """Drop every data packet still open, reason none, at its source, so
        that conservation holds exactly."""
        now = self.sim.now
        for pid, flow, node, size in list(self.aggregator.open_packets()):
            self.trace.add(now, EV_DROPPED, "none", LAYER_APP, KIND_CBR, pid, flow,
                           node, size)


class Simulation(Network):
    """One deterministic run: mobility + channel + MAC + routing + traffic.

    `_refresh_coords` is the only writer of `coords`: once at build, before any
    link budget exists, then after every mobility step, each time followed by
    `channel.bump_geometry()`.
    """

    def __init__(self, cfg: ScenarioConfig, trace_file=None):
        self.graph = cfg.validate()
        n = cfg.run.vehicles
        super().__init__(cfg, n, trace_file)
        self.world = VehicleWorld(self.graph, cfg.mobility, n,
                                  self.rngs.stream("mobility"),
                                  lane_changes=(cfg.mobility.model == "idm-lc"))
        self._refresh_coords()

        rng_traffic = self.rngs.stream("traffic")
        stop = cfg.traffic.cbr_stop if cfg.traffic.cbr_stop is not None else cfg.run.duration
        self.flows = setup_flows(rng_traffic, cfg.traffic.cbr_connections, range(n),
                                 cfg.traffic.packet_size, cfg.traffic.rate,
                                 cfg.traffic.cbr_start, stop)
        phases = rng_traffic.uniform(0.0, cfg.traffic.beacon_interval, size=n)
        self.pbc_agents = [PbcAgent(self.sim, node, cfg.traffic, cfg.run.duration, phase)
                           for node, phase in zip(self.nodes.values(), phases.tolist())]
        self.world.on_brake = lambda vid, accel, t: self.pbc_agents[vid].on_accel(accel, t)
        self.mobility_rows: list[tuple] = []   # (t, vehicle, x, y, speed) on the 1 s grid

    # -- wiring helpers ---------------------------------------------------------

    def _refresh_coords(self):
        for vid, st in self.world.vehicles.items():
            self.coords[vid, 0], self.coords[vid, 1] = self.world.position(st)

    def _mobility_step(self):
        self.world.step(self.cfg.mobility.integration_dt)
        self._refresh_coords()
        self.channel.bump_geometry()
        if self.cfg.run.mobility_trace and self.world.steps % self.world.recalc_every == 0:
            for (vid, st), (x, y) in zip(self.world.vehicles.items(), self.coords.tolist()):
                self.mobility_rows.append((self.sim.now, vid, x, y, st.speed))

    # -- execution -----------------------------------------------------------------

    def run(self) -> RunResult:
        cfg = self.cfg
        if cfg.run.vehicles > 0:
            self.sim.every(0.0, cfg.mobility.integration_dt, cfg.run.duration,
                           self._mobility_step, "world.step")
        self.start_protocols()
        for f in self.flows:
            start_cbr(self.sim, self.nodes[f.src], f)
        for agent in self.pbc_agents:
            agent.start()
        events = self.sim.run_until(cfg.run.duration)
        self.close()
        warnings = {
            "emergency_brakes": self.world.emergency_warnings,
            "lane_changes": self.world.lane_change_count,
        }
        return RunResult(self.aggregator, events, warnings)
