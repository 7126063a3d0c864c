"""Scenario files: sectioned key-value text, schema validation, defaults, echo.

Sections: [graph] [mobility] [phy] [mac] [routing] [traffic] [run]. Every key is
optional; defaults reproduce the reference experimental frame (100 vehicles,
1000x1000 m grid, 100 s, 40 CBR flows at 4 pkt/s x 512 B, 6 Mbps 802.11p,
Nakagami fading calibrated to 250 m). The schema is the config dataclasses below:
each section is one dataclass, each key one of its fields, parsed by the field's
type. `scenario.effective.ini` in a run directory lists every key with its value.
"""

import configparser
import math
from dataclasses import dataclass, field, fields

from .roadnet import Edge, GraphError, RoadGraph, Vertex, edge_id, generate_grid
from .routing import PROTOCOLS as _PROTOCOL_CLASSES

PROTOCOLS = tuple(_PROTOCOL_CLASSES)
MOBILITY_MODELS = ("idm-im", "idm-lc")


class SchemaError(ValueError):
    """Scenario file violates the schema; message names the key and line."""


@dataclass
class GraphConfig:
    grid: tuple[int, int, float] | None = (5, 5, 250.0)   # rows cols spacing
    vertices: list[tuple[str, float, float]] = field(default_factory=list)
    edges: list[tuple[str, str, int]] = field(default_factory=list)
    lanes: int = 2
    speed_limit: float = 80 / 3.6
    phase_length: float = 10.0


@dataclass
class MobilityConfig:
    model: str = "idm-im"
    a_max: float = 0.6           # maximal acceleration, m/s^2
    b: float = 0.9               # comfortable deceleration, m/s^2
    s0: float = 1.0              # jam distance, m
    headway: float = 0.5         # safe time headway, s
    vehicle_length: float = 5.0
    visibility: float = 200.0
    recalc_step: float = 1.0     # lane-change / reporting grid, s
    integration_dt: float = 0.1
    v_min_kmh: float = 10.0
    v_max_kmh: float = 80.0
    politeness: float = 0.5
    accel_threshold: float = 0.5
    safe_decel_limit: float | None = None    # defaults to b
    min_stay: float = 2.0
    max_stay: float = 6.0


@dataclass
class PhyConfig:
    m0: float = 1.5
    m1: float = 0.75
    m2: float = 0.75
    d0_m: float = 80.0
    d1_m: float = 200.0
    gamma0: float = 1.9
    gamma1: float = 3.8
    gamma2: float = 3.8
    d0_g: float = 200.0
    d1_g: float = 500.0
    ref_distance: float = 1.0
    frequency: float = 5.9e9
    rx_threshold: float = -82.0          # dBm
    carrier_sense_threshold: float = -92.0
    target_range: float = 250.0
    capture_margin: float = 10.0         # dB
    loss_model: str = "nakagami"         # nakagami | ideal
    collisions: bool = True


@dataclass
class MacConfig:
    bitrate: float = 6e6
    slot: float = 13e-6
    sifs: float = 32e-6
    cw_min: int = 15
    cw_max: int = 1023
    retry_limit: int = 7
    queue_capacity: int = 50
    phy_overhead: float = 40e-6
    mac_overhead: int = 34

    @property
    def difs(self) -> float:
        return self.sifs + 2 * self.slot


@dataclass
class RoutingConfig:
    protocol: str = "aodv"
    ttl: int = 64
    buffer_packets: int = 64       # reactive send buffer, per destination
    buffer_timeout: float = 30.0
    aodv_route_timeout: float = 3.0
    aodv_rreq_retries: int = 2
    aodv_ring_ttls: tuple[int, ...] = (1, 3, 7)
    aodv_node_traversal: float = 0.04
    aomdv_max_paths: int = 3
    dsdv_full_dump_interval: float = 15.0
    dsdv_settling_time: float = 6.0
    dsdv_trigger_min_gap: float = 1.0
    olsr_hello_interval: float = 2.0
    olsr_tc_interval: float = 5.0
    hold_multiplier: float = 3.0


@dataclass
class TrafficConfig:
    cbr_connections: int = 40
    packet_size: int = 512
    rate: float = 4.0
    cbr_start: float = 0.0
    cbr_stop: float | None = None        # defaults to run duration
    beacon_interval: float = 0.1
    beacon_size: int = 200
    emergency_decel: float = 2.7         # m/s^2 deceleration magnitude triggering a beacon
    emergency_rate_limit: float = 1.0    # min seconds between emergency beacons per vehicle


@dataclass
class RunConfig:
    duration: float = 100.0
    seed: int = 1
    vehicles: int = 100
    mobility_trace: bool = False


@dataclass
class ScenarioConfig:
    graph: GraphConfig = field(default_factory=GraphConfig)
    mobility: MobilityConfig = field(default_factory=MobilityConfig)
    phy: PhyConfig = field(default_factory=PhyConfig)
    mac: MacConfig = field(default_factory=MacConfig)
    routing: RoutingConfig = field(default_factory=RoutingConfig)
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    run: RunConfig = field(default_factory=RunConfig)

    def build_graph(self) -> RoadGraph:
        g = self.graph
        if g.vertices or g.edges:
            if not (g.vertices and g.edges):
                raise SchemaError("inline graphs need both 'vertices' and 'edges' keys")
            verts = [Vertex(vid, x, y) for vid, x, y in g.vertices]
            coords = {v.id: v for v in verts}
            edges = []
            for src, dst, lanes in g.edges:
                for vid in (src, dst):
                    if vid not in coords:
                        raise SchemaError(f"edge references unknown vertex '{vid}'")
                a, b = coords[src], coords[dst]
                length = math.hypot(b.x - a.x, b.y - a.y)
                edges.append(Edge(edge_id(src, dst), src, dst, lanes, length, g.speed_limit))
            return RoadGraph(verts, edges).validate()
        rows, cols, spacing = g.grid
        return generate_grid(rows, cols, spacing, g.lanes, g.speed_limit, g.phase_length)

    def validate(self) -> RoadGraph:
        """Check every section; returns the road graph the check built, so a
        run needs no second build."""
        for sec in fields(self):
            obj = getattr(self, sec.name)
            for f in fields(obj):
                value = getattr(obj, f.name)
                if f.type in (float, float | None) and value is not None \
                        and not math.isfinite(value):
                    raise SchemaError(f"{sec.name}.{f.name} must be finite, not {value}")
        g = self.graph
        # the floats inside the layout fields, which the loop above does not see
        if g.grid is not None and not math.isfinite(g.grid[2]):
            raise SchemaError(f"graph.grid spacing must be finite, not {g.grid[2]}")
        for vid, x, y in g.vertices:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise SchemaError(f"graph.vertices: vertex '{vid}' must have finite "
                                  f"coordinates, not ({x}, {y})")
        try:
            graph = self.build_graph()
        except GraphError as exc:
            raise SchemaError(f"graph: {exc}") from exc
        if len(graph.vertices) < 2:
            raise SchemaError("graph: trips need two or more vertices")
        m = self.mobility
        if m.model not in MOBILITY_MODELS:
            raise SchemaError(f"mobility.model '{m.model}' not one of {MOBILITY_MODELS}")
        for name in ("a_max", "b", "s0", "headway", "vehicle_length", "visibility",
                     "recalc_step", "integration_dt"):
            if getattr(m, name) <= 0:
                raise SchemaError(f"mobility.{name} must be positive")
        if not 0 <= m.politeness <= 1:
            raise SchemaError("mobility.politeness must lie in [0, 1]")
        if m.accel_threshold < 0:
            raise SchemaError("mobility.accel_threshold must be >= 0")
        if not 0 < m.v_min_kmh <= m.v_max_kmh:
            raise SchemaError("mobility speed band requires 0 < v_min_kmh <= v_max_kmh")
        if m.min_stay > m.max_stay or m.min_stay < 0:
            raise SchemaError("mobility stay bounds require 0 <= min_stay <= max_stay")
        steps = m.recalc_step / m.integration_dt
        if abs(steps - round(steps)) > 1e-9 or round(steps) < 1:
            raise SchemaError("mobility.recalc_step must be a multiple of integration_dt")
        p = self.phy
        if not ( p.d0_m < p.d1_m and p.d0_g < p.d1_g):
            raise SchemaError("phy band thresholds must be strictly increasing")
        if min(p.m0, p.m1, p.m2) <= 0 or min(p.gamma0, p.gamma1, p.gamma2) <= 0:
            raise SchemaError("phy shape factors and exponents must be positive")
        if p.carrier_sense_threshold > p.rx_threshold:
            raise SchemaError("phy.carrier_sense_threshold must be <= rx_threshold")
        if p.loss_model not in ("nakagami", "ideal"):
            raise SchemaError("phy.loss_model must be 'nakagami' or 'ideal'")
        for name in ("target_range", "ref_distance", "frequency", "d0_g"):
            if getattr(p, name) <= 0:
                raise SchemaError(f"phy.{name} must be positive")
        try:
            10.0 ** (p.capture_margin / 10.0)           # the channel's linear capture ratio
        except OverflowError:
            raise SchemaError("phy.capture_margin overflows a float as a linear ratio") from None
        c = self.mac
        for name in ("cw_min", "cw_max"):
            v = getattr(c, name)
            if v < 0 or (v + 1) & v != 0:
                raise SchemaError(f"mac.{name} must be of the form 2^k - 1")
        if c.cw_min >= c.cw_max:
            raise SchemaError("mac.cw_min must be < cw_max")
        if c.queue_capacity <= 0:
            raise SchemaError("mac.queue_capacity must be positive")
        if c.bitrate <= 0:
            raise SchemaError("mac.bitrate must be positive")
        for name in ("slot", "sifs", "phy_overhead", "mac_overhead"):
            if getattr(c, name) < 0:
                raise SchemaError(f"mac.{name} must be >= 0")
        r = self.routing
        if r.protocol not in PROTOCOLS:
            raise SchemaError(f"routing.protocol '{r.protocol}' not one of {PROTOCOLS}")
        if not r.aodv_ring_ttls or min(r.aodv_ring_ttls) < 0:
            raise SchemaError("routing.aodv_ring_ttls must list one or more TTLs >= 0")
        if r.buffer_packets <= 0:
            raise SchemaError("routing.buffer_packets must be positive")
        if r.aodv_node_traversal < 0:
            raise SchemaError("routing.aodv_node_traversal must be >= 0")
        for name in ("olsr_hello_interval", "olsr_tc_interval", "dsdv_full_dump_interval"):
            if getattr(r, name) <= 0:
                raise SchemaError(f"routing.{name} must be positive")
        t = self.traffic
        if t.cbr_connections < 0 or t.packet_size <= 0 or t.rate <= 0:
            raise SchemaError("traffic requires cbr_connections >= 0, packet_size > 0, rate > 0")
        if t.cbr_start < 0:
            raise SchemaError("traffic.cbr_start must be >= 0")
        if t.beacon_interval <= 0 or t.beacon_size <= 0:
            raise SchemaError("traffic beacon settings must be positive")
        if self.run.duration <= 0 or self.run.vehicles < 0:
            raise SchemaError("run.duration must be positive and run.vehicles >= 0")
        n = self.run.vehicles
        if t.cbr_connections > n * (n - 1):
            raise SchemaError(f"traffic.cbr_connections={t.cbr_connections} exceeds "
                              f"available ordered pairs for {n} vehicles")
        return graph


# ---------------------------------------------------------------------------
# parsing

def _parse_bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_grid(s: str):
    parts = s.split()
    if len(parts) != 3:
        raise ValueError("grid expects 'rows cols spacing'")
    return (int(parts[0]), int(parts[1]), float(parts[2]))


def _parse_vertices(s: str):
    out = []
    for item in filter(None, (p.strip() for p in s.split(";"))):
        tok = item.split()
        if len(tok) != 3:
            raise ValueError(f"vertex entry '{item}' expects 'id x y'")
        out.append((tok[0], float(tok[1]), float(tok[2])))
    return out


def _parse_edges(s: str):
    out = []
    for item in filter(None, (p.strip() for p in s.split(";"))):
        tok = item.split()
        if len(tok) not in (2, 3):
            raise ValueError(f"edge entry '{item}' expects 'src dst [lanes]'")
        out.append((tok[0], tok[1], int(tok[2]) if len(tok) == 3 else -1))
    return out


def _parse_int_tuple(s: str):
    return tuple(int(x) for x in s.replace(",", " ").split())


# field type -> parser; the [graph] layout keys have their own text formats
_PARSERS = {int: int, float: float, float | None: float, str: str,
            bool: _parse_bool, tuple[int, ...]: _parse_int_tuple}
_LAYOUT_PARSERS = {("graph", "grid"): _parse_grid,
                   ("graph", "vertices"): _parse_vertices,
                   ("graph", "edges"): _parse_edges}

# (section, key) -> parser, for every field of every config section
_SCHEMA = {(sec.name, f.name): _LAYOUT_PARSERS.get((sec.name, f.name)) or _PARSERS[f.type]
           for sec in fields(ScenarioConfig) for f in fields(sec.type)}


def _key_line(text: str, section: str, key: str) -> int:
    """Best-effort line number of `key` within `section` for diagnostics."""
    current = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            current = stripped[1:-1].strip().lower()
        elif current == section and stripped.lower().startswith(key.lower()):
            rest = stripped[len(key):].lstrip()
            if rest.startswith(("=", ":")):
                return lineno
    return 0


def parse_scenario_text(text: str, base: ScenarioConfig | None = None) -> ScenarioConfig:
    """Parse scenario text over `base` (defaults when None) and validate it.
    An inline graph (`vertices` and `edges`) replaces the grid: the parsed
    config has `grid = None`, and edges without a lane count get `lanes`."""
    cfg = base if base is not None else ScenarioConfig()
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise SchemaError(f"scenario parse error: {exc}") from exc
    for section in parser.sections():
        sec = section.lower()
        for key, raw in parser.items(section):
            attr = key.lower()
            parse = _SCHEMA.get((sec, attr))
            line = _key_line(text, sec, key)
            if parse is None:
                raise SchemaError(f"unknown key '{key}' in section [{sec}] (line {line})")
            try:
                value = parse(raw)
            except ValueError as exc:
                raise SchemaError(
                    f"bad value for [{sec}] {key} (line {line}): {exc}") from exc
            setattr(getattr(cfg, sec), attr, value)
    g = cfg.graph
    if g.vertices or g.edges:
        g.grid = None
        # -1 marks "lanes not given": fill the section default, keep explicit values
        g.edges = [(s, d, n if n >= 0 else g.lanes) for s, d, n in g.edges]
    cfg.validate()
    return cfg


def load_scenario(path) -> ScenarioConfig:
    """Parse and validate a scenario file; returns the config only (a run
    builds its road graph when it validates the config)."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario_text(fh.read())


def _format(value) -> str:
    """A field value as scenario text; the field parsers read it back."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):                 # inline vertices or edges
        return "; ".join(_format(item) for item in value)
    if isinstance(value, tuple):
        return " ".join(_format(item) for item in value)
    return str(value)                           # str of a float is its repr


def effective_ini(cfg: ScenarioConfig) -> str:
    """The complete effective configuration, one `key = value` line per field
    in field order, leaving out unset (None) and empty values; a parsed config
    never has both a grid and an inline graph. Re-loading it reproduces the run."""
    blocks = []
    for section in fields(cfg):
        obj = getattr(cfg, section.name)
        lines = [f"[{section.name}]\n"]
        for f in fields(obj):
            value = getattr(obj, f.name)
            if value is not None and value != []:
                lines.append(f"{f.name} = {_format(value)}\n")
        blocks.append("".join(lines))
    return "\n".join(blocks)
