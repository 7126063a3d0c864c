"""Scenario files: sectioned key-value text, schema validation, defaults, echo.

Sections: [graph] [mobility] [phy] [mac] [routing] [traffic] [run]. Every key is
optional; defaults reproduce the reference experimental frame (100 vehicles,
1000x1000 m grid, 100 s, 40 CBR flows at 4 pkt/s x 512 B, 6 Mbps 802.11p,
Nakagami fading calibrated to 250 m). The schema is the config dataclasses below:
each section is one dataclass, each key one of its fields, parsed by the field's
type. A field's legal values are its metadata (see `bounded`): bounds from physics
or the standard, each with its reason, stated nowhere else. `validate()` checks every
field against them in one loop, then the rules that span fields, build the road graph
or cap a run's memory and work. `scenario.effective.ini` lists every key's value.
"""

import configparser
import math
import operator
from dataclasses import dataclass, field, fields

from .roadnet import Edge, GraphError, RoadGraph, Vertex, edge_id, generate_grid
from .routing import PROTOCOLS as _PROTOCOL_CLASSES

PROTOCOLS = tuple(_PROTOCOL_CLASSES)
MOBILITY_MODELS = ("idm-im", "idm-lc")


class SchemaError(ValueError):
    """Scenario file violates the schema; message names the key and line."""


def bounded(default, **bounds):
    """A config field and its legal values, which `validate()` checks: `gt`,
    `ge` and `le` bound a number or each item of a tuple; `one_of` lists the
    choices; `mask` asks for the form 2^k - 1."""
    return field(default=default, metadata=bounds)


_ORDER = {"gt": (operator.gt, ">"), "ge": (operator.ge, ">="), "le": (operator.le, "<=")}


def _check_bounds(name: str, value, bounds) -> None:
    """Raise SchemaError naming `name` unless `value` keeps every bound; a
    tuple needs one or more items."""
    if "one_of" in bounds and value not in bounds["one_of"]:
        raise SchemaError(f"{name} '{value}' not one of {bounds['one_of']}")
    items = value if isinstance(value, tuple) else (value,)
    if not items:
        raise SchemaError(f"{name} must list one or more values")
    for v in items:
        for key, (holds, op) in _ORDER.items():
            if key in bounds and not holds(v, bounds[key]):
                raise SchemaError(f"{name} must be {op} {bounds[key]}, not {v}")
        if bounds.get("mask") and (v < 0 or v & (v + 1)):
            raise SchemaError(f"{name} must be of the form 2^k - 1, not {v}")


# Bounds of the [graph] layout keys, which validate() checks itself, since
# they are not single numbers:
# - a road between junctions, a grid block or an inline edge, is 10 m to
#   100 km long: a shorter one barely holds a vehicle and its jam distance,
#   and no road runs longer without a junction. A grid spacing of 1e-300 m put
#   every vehicle at one point (PDR 100 %, as did inline vertices 1e-300 m
#   apart), and one of 1e300 m made every distance inf (PDR 0).
# - an inline vertex lies within 1,000 km of the origin, ten times the
#   longest block, so that no distance between vertices overflows.
# - a road graph has at most 10,000 intersections, a 100 x 100 grid 25 km
#   across at 250 m, which validate() builds in 0.24 s; a 2,000 x 2,000 grid
#   was still building after 60 s.
ROAD_LENGTH_M = (10.0, 1e5)
MAX_VERTEX_COORDINATE_M = 1e6
MAX_INTERSECTIONS = 10_000


@dataclass
class GraphConfig:
    # the road-graph build checks the layout and lanes
    grid: tuple[int, int, float] | None = (5, 5, 250.0)   # rows cols spacing
    vertices: list[tuple[str, float, float]] = field(default_factory=list)
    edges: list[tuple[str, str, int]] = field(default_factory=list)
    lanes: int = 2
    phase_length: float = bounded(10.0, ge=1)    # s; a signal phase lasts seconds


@dataclass
class MobilityConfig:
    model: str = bounded("idm-im", one_of=MOBILITY_MODELS)
    a_max: float = bounded(0.6, ge=0.1, le=10)   # maximal acceleration, m/s^2; 10 is about 1 g
    b: float = bounded(0.9, ge=0.1, le=10)       # comfortable deceleration, m/s^2
    s0: float = bounded(1.0, gt=0, le=100)       # jam distance, m
    headway: float = bounded(0.5, gt=0, le=60)   # safe time headway, s
    vehicle_length: float = bounded(5.0, gt=0)
    visibility: float = bounded(200.0, gt=0)
    recalc_step: float = bounded(1.0, gt=0)      # lane-change / reporting grid, s
    integration_dt: float = bounded(0.1, gt=0, le=1)   # s; so IDM's (v / v0) ** 4 stays < 37 ** 4
    v_min_kmh: float = bounded(10.0, ge=1, le=500)     # km/h; 500 is past any road vehicle
    v_max_kmh: float = bounded(80.0, ge=1, le=500)
    politeness: float = bounded(0.5, ge=0, le=1)
    accel_threshold: float = bounded(0.5, ge=0)
    safe_decel_limit: float | None = None    # defaults to b
    min_stay: float = bounded(2.0, ge=0)
    max_stay: float = 6.0


@dataclass
class PhyConfig:
    m0: float = bounded(1.5, ge=0.5)     # Nakagami shape: defined for m >= 1/2
    m1: float = bounded(0.75, ge=0.5)
    m2: float = bounded(0.75, ge=0.5)
    d0_m: float = 80.0
    d1_m: float = 200.0
    gamma0: float = bounded(1.9, gt=0, le=10)    # path-loss exponents: measured ones are 1.5 to 6
    gamma1: float = bounded(3.8, gt=0, le=10)
    gamma2: float = bounded(3.8, gt=0, le=10)
    d0_g: float = bounded(200.0, gt=0)
    d1_g: float = 500.0
    ref_distance: float = bounded(1.0, ge=1e-3, le=1e3)    # m; 1 m for a 5.9 GHz antenna
    frequency: float = bounded(5.9e9, ge=1e6, le=1e12)     # Hz; the radio spectrum, 1 MHz-1 THz
    rx_threshold: float = bounded(-82.0, ge=-200, le=200)   # dBm; 200 dBm is 1e17 W
    carrier_sense_threshold: float = bounded(-92.0, ge=-200, le=200)
    target_range: float = bounded(250.0, gt=0, le=1e4)     # m; 10 times a DSRC radio's reach
    capture_margin: float = bounded(10.0, ge=-300, le=300)  # dB; 200 makes any overlap collide
    loss_model: str = bounded("nakagami", one_of=("nakagami", "ideal"))
    collisions: bool = True


@dataclass
class MacConfig:
    bitrate: float = bounded(6e6, gt=0)
    slot: float = bounded(13e-6, gt=0)   # at 0, difs = sifs: a backoff ends as an ACK starts
    sifs: float = bounded(32e-6, ge=0)
    cw_min: int = bounded(15, mask=True)
    cw_max: int = bounded(1023, mask=True)
    retry_limit: int = bounded(7, ge=0)
    queue_capacity: int = bounded(50, gt=0)
    phy_overhead: float = bounded(40e-6, ge=0)
    mac_overhead: int = bounded(34, ge=0, le=2304)   # header and FCS: at most a frame

    @property
    def difs(self) -> float:
        return self.sifs + 2 * self.slot

    def airtime(self, payload_size: int) -> float:
        """Seconds on air of a frame: preamble, then payload plus MAC overhead."""
        return self.phy_overhead + 8.0 * (payload_size + self.mac_overhead) / self.bitrate


@dataclass
class RoutingConfig:
    protocol: str = bounded("aodv", one_of=PROTOCOLS)
    ttl: int = bounded(64, ge=1, le=255)         # an IP TTL is one byte
    buffer_packets: int = bounded(64, gt=0)      # reactive send buffer, per destination
    buffer_timeout: float = bounded(30.0, ge=0)  # timeouts and delays: a time is >= 0
    aodv_route_timeout: float = bounded(3.0, ge=0)
    aodv_rreq_retries: int = bounded(2, ge=0)
    aodv_ring_ttls: tuple[int, ...] = bounded((1, 3, 7), ge=0, le=255)
    aodv_node_traversal: float = bounded(0.04, ge=0)
    aomdv_max_paths: int = bounded(3, gt=0)     # at 0 no route is ever kept
    dsdv_full_dump_interval: float = bounded(15.0, gt=0)
    dsdv_settling_time: float = bounded(6.0, ge=0)
    dsdv_trigger_min_gap: float = bounded(1.0, ge=0)
    olsr_hello_interval: float = bounded(2.0, gt=0)
    olsr_tc_interval: float = bounded(5.0, gt=0)
    hold_multiplier: float = bounded(3.0, ge=1)  # an entry outlives the interval that refreshes it


@dataclass
class TrafficConfig:
    cbr_connections: int = bounded(40, ge=0)
    packet_size: int = bounded(512, gt=0, le=2304)   # bytes; the 802.11 MSDU maximum
    rate: float = bounded(4.0, ge=1e-6)          # pkt/s; 1e-6 is one packet in 11.6 days
    cbr_start: float = bounded(0.0, ge=0)
    cbr_stop: float | None = None        # defaults to run duration
    beacon_interval: float = bounded(0.1, gt=0)
    beacon_size: int = bounded(200, gt=0, le=2304)
    emergency_decel: float = bounded(2.7, ge=0)  # m/s^2 deceleration magnitude triggering a beacon
    emergency_rate_limit: float = bounded(1.0, ge=0)  # min seconds between emergency beacons


@dataclass
class RunConfig:
    duration: float = bounded(100.0, gt=0)
    seed: int = bounded(1, ge=0)
    vehicles: int = bounded(100, ge=0)
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
                edges.append(Edge(edge_id(src, dst), src, dst, lanes, length))
            return RoadGraph(verts, edges).validate()
        rows, cols, spacing = g.grid
        return generate_grid(rows, cols, spacing, g.lanes, g.phase_length)

    def validate(self) -> RoadGraph:
        """Check every field against its bounds, build the road graph, then check
        the rules across fields and the caps on the run's link-budget memory and
        periodic firings; returns the graph, so a run needs no second build."""
        for sec in fields(self):
            obj = getattr(self, sec.name)
            for f in fields(obj):
                name, value = f"{sec.name}.{f.name}", getattr(obj, f.name)
                if f.type in (float, float | None) and value is not None \
                        and not math.isfinite(value):
                    raise SchemaError(f"{name} must be finite, not {value}")
                _check_bounds(name, value, f.metadata)
        g, (lo, hi) = self.graph, ROAD_LENGTH_M
        # the layout fields, which the loop above does not see
        if g.vertices or g.edges:
            key, intersections = "graph.vertices", len(g.vertices)
        else:
            rows, cols, spacing = g.grid
            key, intersections = "graph.grid", rows * cols
            if not lo <= spacing <= hi:
                raise SchemaError(f"graph.grid spacing must be finite and within "
                                  f"[{lo:g}, {hi:g}] m, not {spacing}")
        if intersections > MAX_INTERSECTIONS:
            raise SchemaError(f"{key} makes {intersections:,} intersections, above "
                              f"the cap of {MAX_INTERSECTIONS:,}")
        for vid, x, y in g.vertices:
            if not (abs(x) <= MAX_VERTEX_COORDINATE_M and abs(y) <= MAX_VERTEX_COORDINATE_M):
                raise SchemaError(f"graph.vertices: vertex '{vid}' must have finite "
                                  f"coordinates within {MAX_VERTEX_COORDINATE_M:g} m "
                                  f"of the origin, not ({x}, {y})")
        try:
            graph = self.build_graph()
        except GraphError as exc:
            raise SchemaError(f"graph: {exc}") from exc
        for e in graph.edges.values():
            if not lo <= e.length <= hi:
                raise SchemaError(f"graph.edges: edge '{e.id}' must be within [{lo:g}, "
                                  f"{hi:g}] m long, not {e.length}")
        m, p, t, n = self.mobility, self.phy, self.traffic, self.run.vehicles
        steps = m.recalc_step / m.integration_dt
        end_of_sifs = self.run.duration + self.mac.sifs
        for broken, message in (
                (p.d0_m >= p.d1_m or p.d0_g >= p.d1_g,
                 "phy band thresholds must be strictly increasing"),
                (p.carrier_sense_threshold > p.rx_threshold,
                 "phy.carrier_sense_threshold must be <= rx_threshold"),
                (self.mac.cw_min >= self.mac.cw_max, "mac.cw_min must be < cw_max"),
                (end_of_sifs + 2 * self.mac.slot <= end_of_sifs,
                 f"mac.slot={self.mac.slot} is below the clock's resolution at "
                 f"run.duration: difs would equal sifs"),
                (not math.isfinite(steps) or abs(steps - round(steps)) > 1e-9
                 or round(steps) < 1,
                 "mobility.recalc_step must be a multiple of integration_dt"),
                (m.v_min_kmh > m.v_max_kmh, "mobility.v_min_kmh must be <= v_max_kmh"),
                (m.min_stay > m.max_stay, "mobility.min_stay must be <= max_stay"),
                (t.cbr_connections > n * (n - 1),
                 f"traffic.cbr_connections={t.cbr_connections} exceeds "
                 f"available ordered pairs for {n} vehicles")):
            if broken:
                raise SchemaError(message)
        need = epoch_bytes(n)
        if need > MAX_EPOCH_BYTES:
            raise SchemaError(f"run.vehicles={n} needs {need:,} bytes to build "
                              f"one link-budget epoch, above the cap of "
                              f"{MAX_EPOCH_BYTES:,}")
        terms = periodic_firings(self)
        total = sum(terms.values())
        if total > MAX_PERIODIC_FIRINGS:
            key = max(terms, key=terms.get)
            raise SchemaError(f"the run schedules {total:.3g} periodic firings, above the "
                              f"cap of {MAX_PERIODIC_FIRINGS:.3g}; {key} sets the most "
                              f"({terms[key]:.3g})")
        return graph


def periodic_firings(cfg: ScenarioConfig) -> dict[str, float]:
    """The periodic firings a run of `cfg` schedules, by the key that sets their
    period: cbr emissions, beacons, mobility steps and the routing protocol's
    timers (OLSR HELLO and TC, DSDV full dumps)."""
    r, t, n = cfg.run, cfg.traffic, cfg.run.vehicles
    cbr_stop = min(t.cbr_stop if t.cbr_stop is not None else r.duration, r.duration)
    terms = {"traffic.rate": t.cbr_connections * max(0.0, cbr_stop - t.cbr_start) * t.rate,
             "traffic.beacon_interval": n * r.duration / t.beacon_interval,
             "mobility.integration_dt": r.duration / cfg.mobility.integration_dt if n else 0.0}
    timers = {"olsr": ("olsr_hello_interval", "olsr_tc_interval"),
              "dsdv": ("dsdv_full_dump_interval",)}
    for key in timers.get(cfg.routing.protocol, ()):
        terms[f"routing.{key}"] = n * r.duration / getattr(cfg.routing, key)
    return terms


# validate() refuses a run that schedules more periodic firings than 100
# reference frames (the defaults: 117,000 firings). That admits 1,000 vehicles
# for 100 s, about 9 frames under OLSR, and refuses a beacon or routing timer
# whose period is below the clock's resolution: it counts over 1e15 firings,
# and a routing timer would fire again and again at one instant.
MAX_PERIODIC_FIRINGS = 100 * sum(periodic_firings(ScenarioConfig()).values())


# The channel builds a link-budget epoch in blocks of sender rows, and a
# block's temporaries fit in this many bytes: a quarter of a 2 MiB L2 cache.
EPOCH_BLOCK_BYTES = 2 ** 19


def epoch_bytes(vehicles: int) -> int:
    """The bytes the channel holds at once while it builds one geometry epoch's
    link budgets (`mac.Channel._budget_matrices`): 10 bytes per (sender,
    receiver) pair (float64 mean power, uint8 shape band, bool carrier sense)
    and one block of sender rows' temporaries. A block holds one row or more,
    so this holds up to 30,840 vehicles, about three times the cap below."""
    return 10 * vehicles * vehicles + EPOCH_BLOCK_BYTES


# validate() refuses a run whose epoch build needs more than 1 GiB: 102 times
# the 10.5 MB of a 1,000-vehicle run, the scale spatial culling aims at, so up
# to 10,359 vehicles; 20,000 vehicles would need 4 GB. Set-up checks a spawning
# vehicle against its own lane only; at the cap, on a 51 x 51 grid, spawning
# takes about 45 s, nearly all of it one shortest-path search per trip.
MAX_EPOCH_BYTES = 2 ** 30


# ---------------------------------------------------------------------------
# parsing

def _parse_bool(s: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[s.strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {s!r}") from None


def _parse_grid(s: str):
    parts = s.split()
    if len(parts) != 3:
        raise ValueError("grid expects 'rows cols spacing'")
    return (int(parts[0]), int(parts[1]), float(parts[2]))


def _entries(s: str, counts, error: str):
    """Each `;`-separated entry of `s`, as its tokens; an entry with a token
    count not in `counts` raises `error`, formatted with the entry."""
    for item in filter(None, (p.strip() for p in s.split(";"))):
        tokens = item.split()
        if len(tokens) not in counts:
            raise ValueError(error.format(item))
        yield tokens


def _parse_vertices(s: str):
    return [(vid, float(x), float(y))
            for vid, x, y in _entries(s, (3,), "vertex entry '{}' expects 'id x y'")]


def _parse_edges(s: str):
    return [(src, dst, int(lanes[0]) if lanes else -1) for src, dst, *lanes in
            _entries(s, (2, 3), "edge entry '{}' expects 'src dst [lanes]'")]


def _parse_int_tuple(s: str):
    return tuple(int(x) for x in s.replace(",", " ").split())


# field type -> parser; each [graph] layout key has a type, and a text format, of its own
_PARSERS = {int: int, float: float, float | None: float, str: str,
            bool: _parse_bool, tuple[int, ...]: _parse_int_tuple,
            tuple[int, int, float] | None: _parse_grid,
            list[tuple[str, float, float]]: _parse_vertices,
            list[tuple[str, str, int]]: _parse_edges}

# (section, key) -> parser, for every field of every config section
_SCHEMA = {(sec.name, f.name): _PARSERS[f.type]
           for sec in fields(ScenarioConfig) for f in fields(sec.type)}


def _key_line(text: str, section: str, key: str) -> int:
    """The line of `key` in `section` of parsed `text`, found by configparser's
    rules for comments, headers, options and the lines that continue a value."""
    current, option, indent, parser = None, False, 0, configparser.ConfigParser
    for lineno, line in enumerate(text.split("\n"), start=1):
        value, level = line.strip(), len(line) - len(line.lstrip())
        if not value or value[0] in "#;" or (option and level > indent):
            continue
        header, indent = parser.SECTCRE.match(value), level
        option = header is None
        if header:
            current = header["header"].lower()
        elif current == section and parser.OPTCRE.match(value)["option"].rstrip().lower() == key:
            return lineno


def parse_scenario_text(text: str) -> ScenarioConfig:
    """Parse scenario text over the defaults, then `settle` it."""
    cfg = ScenarioConfig()
    # no header names "", so [DEFAULT] is an ordinary section, whose keys are unknown
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise SchemaError(f"scenario parse error: {exc}") from exc
    for section in parser.sections():
        sec = section.lower()
        for key, raw in parser.items(section):
            set_value(cfg, sec, key, raw, f"line {_key_line(text, sec, key)}")
    return settle(cfg)


def set_value(cfg: ScenarioConfig, section: str, key: str, raw: str, where: str):
    """Parse `raw` as the value of [section] key into `cfg`; an error names
    the key and `where`, the place in the input the text came from."""
    parse = _SCHEMA.get((section, key.lower()))
    if parse is None:
        raise SchemaError(f"unknown key '{key}' in section [{section}] ({where})")
    try:
        value = parse(raw)
    except ValueError as exc:
        raise SchemaError(f"bad value for [{section}] {key} ({where}): {exc}") from exc
    setattr(getattr(cfg, section), key.lower(), value)


def settle(cfg: ScenarioConfig) -> ScenarioConfig:
    """Validate `cfg` once every key is set. An inline graph (`vertices` and
    `edges`) replaces the grid: the config gets `grid = None`, and edges
    without a lane count get `lanes`."""
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
