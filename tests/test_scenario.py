"""Scenario file parsing, schema validation, defaults and the effective echo."""

import configparser
import re
import tracemalloc
from dataclasses import fields

import pytest

from vanetbench.scenario import (MAX_EPOCH_BYTES, MAX_PERIODIC_FIRINGS, PROTOCOLS,
                                 ScenarioConfig, SchemaError, effective_ini, epoch_bytes,
                                 load_scenario, parse_scenario_text, periodic_firings,
                                 set_value)


def test_minimal_inline_file(tmp_path):
    path = tmp_path / "mini.ini"
    path.write_text("""
[graph]
vertices = a 0 0; b 250 0
edges = a b; b a

[run]
vehicles = 2

[traffic]
cbr_connections = 1
""")
    cfg = load_scenario(path)
    graph = cfg.build_graph()
    assert len(graph.edges) == 2
    assert graph.edges["a>b"].length == 250.0
    # defaults fill everything absent
    assert cfg.mac.queue_capacity == 50
    assert cfg.traffic.packet_size == 512
    assert cfg.traffic.rate == 4.0
    assert cfg.run.duration == 100.0
    assert cfg.mobility.a_max == 0.6


def test_defaults_reproduce_reference_frame():
    cfg = ScenarioConfig()
    assert cfg.run.vehicles == 100
    assert cfg.run.duration == 100.0
    assert cfg.traffic.cbr_connections == 40
    assert cfg.mac.bitrate == 6e6
    assert cfg.phy.target_range == 250.0
    g = cfg.build_graph()
    xs = [v.x for v in g.vertices.values()]
    ys = [v.y for v in g.vertices.values()]
    assert max(xs) - min(xs) == 1000.0
    assert max(ys) - min(ys) == 1000.0
    assert all(e.lane_count == 2 for e in g.edges.values())


def test_lane_count_zero_is_schema_error(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("""
[graph]
vertices = a 0 0; b 250 0
edges = a b 0; b a 0
""")
    with pytest.raises(SchemaError):
        load_scenario(path)


def test_unknown_key_names_key_and_line():
    text = "[mac]\nbitrate = 6e6\nbogus_knob = 3\n"
    with pytest.raises(SchemaError) as err:
        parse_scenario_text(text)
    assert "bogus_knob" in str(err.value)
    assert "line 3" in str(err.value)


def test_bad_value_reports_line():
    text = "[run]\nduration = fast\n"
    with pytest.raises(SchemaError) as err:
        parse_scenario_text(text)
    assert "duration" in str(err.value)
    assert "line 2" in str(err.value)


def test_unknown_protocol_rejected():
    with pytest.raises(SchemaError, match="protocol"):
        parse_scenario_text("[routing]\nprotocol = ospf\n")


def test_cw_shape_validated():
    with pytest.raises(SchemaError, match="cw_min"):
        parse_scenario_text("[mac]\ncw_min = 14\n")


def test_recalc_must_be_multiple_of_dt():
    with pytest.raises(SchemaError, match="recalc_step"):
        parse_scenario_text("[mobility]\nrecalc_step = 0.25\nintegration_dt = 0.1\n")


def test_flows_bounded_by_ordered_pairs():
    with pytest.raises(SchemaError, match="cbr_connections"):
        parse_scenario_text("[run]\nvehicles = 2\n[traffic]\ncbr_connections = 3\n")


# each value crashed or hung a 10-vehicle run when validate() let it through
@pytest.mark.parametrize("section,key,value", [
    ("graph", "lanes", "0"), ("graph", "grid", "1 5 250"),
    ("graph", "phase_length", "0"), ("mac", "bitrate", "0"), ("mac", "phy_overhead", "-1"),
    ("mac", "slot", "-1"), ("mac", "sifs", "-1"), ("mac", "mac_overhead", "-100"),
    ("traffic", "cbr_start", "-1"), ("phy", "target_range", "0"),
    ("phy", "ref_distance", "0"), ("phy", "frequency", "0"),
    ("routing", "aodv_ring_ttls", ""), ("routing", "aodv_ring_ttls", "-2"),
    ("routing", "buffer_packets", "0"), ("routing", "olsr_hello_interval", "0"),
    ("routing", "olsr_tc_interval", "0"), ("routing", "dsdv_full_dump_interval", "0"),
    ("phy", "d0_g", "0"), ("routing", "aodv_node_traversal", "-1"),
    ("phy", "capture_margin", "1e9"),       # its linear ratio overflows a float
    ("run", "seed", "-1"),                  # the run's random streams refuse it
    ("mac", "slot", "0"),                   # difs = sifs: a backoff ends as an ACK starts
    # each overflowed a float: in validate() itself, at set-up or at t = 0.1
    ("mobility", "integration_dt", "1e-310"), ("mobility", "recalc_step", "1e308"),
    ("traffic", "rate", "1e-310"), ("graph", "phase_length", "1e-310"),
    pytest.param("mobility", "v_min_kmh", "1e-100\nv_max_kmh = 1e-100",
                 id="mobility-v_min_kmh-v_max_kmh-1e-100"),
    # each crashed a 10- or 20-vehicle run, or validate() itself for v_min_kmh
    ("mobility", "headway", "1e300"), ("mobility", "v_min_kmh", "5e-324"),
    ("mobility", "b", "5e-324"), ("mobility", "s0", "1e300"), ("phy", "frequency", "5e-324"),
    *(pytest.param(section, key, "1" + "0" * 400, id=f"{section}-{key}-10**400")
      for section, key in (("traffic", "packet_size"), ("mac", "mac_overhead"),
                           ("traffic", "beacon_size"), ("routing", "aodv_ring_ttls"))),
    # each finished with numbers that mean nothing: PDR 100 % or, under OLSR, 0
    ("phy", "rx_threshold", "1e300"), ("phy", "target_range", "1e300"),
    ("routing", "hold_multiplier", "-1"),
    ("graph", "grid", "5 250"),             # refused as it is parsed
])
def test_value_that_breaks_a_run_is_schema_error(section, key, value):
    with pytest.raises(SchemaError, match=key if section != "graph" else "graph"):
        parse_scenario_text(f"[{section}]\n{key} = {value}\n")


# a slot below the clock's resolution passed and crashed a run: at the end of
# the run difs = sifs, so a backoff could end as an ACK started; 1e-15 s is
# still told apart on a 0.5 s run's clock
@pytest.mark.parametrize("slot, duration, refused", [
    ("1e-22", "0.5", True), ("1e-15", "100", True), ("1e-15", "0.5", False)])
def test_slot_below_the_clock_resolution_is_schema_error(slot, duration, refused):
    text = f"[mac]\nslot = {slot}\n[run]\nduration = {duration}\n"
    if refused:
        with pytest.raises(SchemaError, match="mac.slot"):
            parse_scenario_text(text)
    else:
        parse_scenario_text(text)


def ten_vehicle_frame(protocol):
    cfg = ScenarioConfig()
    cfg.run.duration, cfg.run.vehicles = 0.5, 10
    cfg.graph.grid = (3, 3, 100.0)
    cfg.traffic.cbr_connections = 4
    cfg.routing.protocol = protocol
    return cfg


# each passed validate() and still ran after 8 s on this 10-vehicle frame: a
# period below the clock's resolution never lets the run's time advance
@pytest.mark.parametrize("key, value, protocol", [
    ("traffic.rate", 1e300, "aodv"), ("traffic.beacon_interval", 1e-300, "aodv"),
    ("routing.olsr_hello_interval", 1e-300, "olsr"),
    ("routing.dsdv_full_dump_interval", 1e-300, "dsdv")])
def test_too_many_periodic_firings_is_schema_error_naming_the_largest_term(key, value,
                                                                            protocol):
    cfg = ten_vehicle_frame(protocol)
    section, name = key.split(".")
    setattr(getattr(cfg, section), name, value)
    with pytest.raises(SchemaError, match=re.escape(f"; {key} sets the most")):
        cfg.validate()


def test_a_run_without_vehicles_schedules_no_beacons_and_no_mobility_steps():
    cfg = ScenarioConfig()
    cfg.run.vehicles = 0
    cfg.traffic.cbr_connections = 0
    assert periodic_firings(cfg) == {"traffic.rate": 0.0, "traffic.beacon_interval": 0.0,
                                     "mobility.integration_dt": 0.0}


def test_the_reference_frame_is_within_the_firing_cap():
    cfg = ScenarioConfig()
    cfg.validate()
    assert periodic_firings(cfg) == {"traffic.rate": 16_000.0,
                                     "traffic.beacon_interval": 100_000.0,
                                     "mobility.integration_dt": 1_000.0}
    assert MAX_PERIODIC_FIRINGS == 100 * 117_000


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_thousand_vehicles_for_100_s_are_within_the_firing_cap(protocol):
    cfg = ScenarioConfig()
    cfg.run.vehicles = 1000
    cfg.routing.protocol = protocol
    cfg.validate()
    assert periodic_firings(cfg)["traffic.beacon_interval"] == 1e6


def test_a_vehicle_count_beyond_a_float_is_schema_error():
    with pytest.raises(SchemaError, match="run.vehicles"):
        parse_scenario_text(f"[run]\nvehicles = 1{'0' * 400}\n")


# 20,000 vehicles for 5 s schedule 1 M beacons, within the firing cap, yet one
# link-budget epoch of theirs needs 4 GB; validate() only counts, so checking
# either frame allocates no matrix
@pytest.mark.parametrize("vehicles, duration, refused", [(1000, 100.0, False),
                                                         (20000, 5.0, True)])
def test_the_epoch_memory_cap_admits_1000_vehicles_and_refuses_20000(vehicles, duration,
                                                                      refused):
    cfg = ScenarioConfig()
    cfg.run.vehicles, cfg.run.duration = vehicles, duration
    assert sum(periodic_firings(cfg).values()) <= MAX_PERIODIC_FIRINGS
    assert (epoch_bytes(vehicles) > MAX_EPOCH_BYTES) == refused
    tracemalloc.start()
    try:
        if refused:
            with pytest.raises(SchemaError, match=r"^run\.vehicles=20000 "):
                cfg.validate()
        else:
            cfg.validate()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**7


FLOAT_FIELDS = [(sec.name, f.name) for sec in fields(ScenarioConfig)
                for f in fields(sec.type) if f.type in (float, float | None)]


# at a 10-vehicle run, traffic.rate = inf and run.duration = inf hung,
# traffic.beacon_interval = nan and mobility.integration_dt = nan crashed, and
# phy.capture_margin, mac.slot and phy.rx_threshold = nan gave meaningless numbers
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section,key", FLOAT_FIELDS)
def test_non_finite_float_is_schema_error(section, key, value):
    with pytest.raises(SchemaError, match=f"{section}.{key} must be finite"):
        parse_scenario_text(f"[{section}]\n{key} = {value}\n")


# the layout fields' floats: a 10-vehicle run failed in trip planning (exit 1)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_grid_spacing_is_schema_error(value):
    with pytest.raises(SchemaError, match="graph.grid spacing must be finite"):
        parse_scenario_text(f"[graph]\ngrid = 5 5 {value}\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("vertices", ["a 0 0; b {} 0", "a 0 {}; b 250 0"])
def test_non_finite_vertex_coordinate_is_schema_error(vertices, value):
    text = f"[graph]\nvertices = {vertices.format(value)}\nedges = a b; b a\n"
    with pytest.raises(SchemaError, match="graph.vertices: vertex '[ab]' must have finite"):
        parse_scenario_text(text)


# layouts that passed validate() but meant nothing: 1e-300 put every vehicle at
# one point (PDR 100 %), 1e300 made every distance inf (PDR 0), and 2000 x 2000
# never left validate()'s graph build
@pytest.mark.parametrize("text", ["grid = 3 3 1e-300", "grid = 3 3 5e-324",
                                  "grid = 3 3 9.99", "grid = 3 3 100001",
                                  "grid = 3 3 1e300", "grid = 2000 2000 250",
                                  "grid = 101 100 250"])
def test_a_grid_outside_its_bounds_is_schema_error(text):
    with pytest.raises(SchemaError, match=r"^graph\.grid "):
        parse_scenario_text(f"[graph]\n{text}\n")


@pytest.mark.parametrize("text", ["grid = 3 3 10", "grid = 2 2 100000",
                                  "grid = 100 100 250"])
def test_a_grid_at_its_bounds_is_accepted(text):
    parse_scenario_text(f"[graph]\n{text}\n")


@pytest.mark.parametrize("vertices", ["a 0 0; b 1000001 0", "a 0 -1e300; b 250 0"])
def test_a_vertex_beyond_a_thousand_km_is_schema_error(vertices):
    text = f"[graph]\nvertices = {vertices}\nedges = a b; b a\n"
    with pytest.raises(SchemaError, match="^graph.vertices: vertex '[ab]' must have"):
        parse_scenario_text(text)


@pytest.mark.parametrize("b", ["1e-300 0", "9.99 0", "100001 0"])
def test_an_inline_edge_outside_the_road_lengths_is_schema_error(b):
    text = f"[graph]\nvertices = a 0 0; b {b}\nedges = a b; b a\n"
    with pytest.raises(SchemaError, match="^graph.edges: edge 'a>b' must be within"):
        parse_scenario_text(text)


def test_an_inline_graph_of_more_intersections_than_the_cap_is_schema_error():
    ring = [f"v{i}" for i in range(10_001)]
    vertices = "; ".join(f"{v} {i * 10} 0" for i, v in enumerate(ring))
    edges = "; ".join(f"{a} {b}" for a, b in zip(ring, ring[1:] + ring[:1]))
    with pytest.raises(SchemaError, match=r"^graph\.vertices makes 10,001 intersections"):
        parse_scenario_text(f"[graph]\nvertices = {vertices}\nedges = {edges}\n")


def test_inline_graph_with_one_vertex_is_schema_error():
    # strongly connected through its self-loop, but the loop is 0 m long, below
    # the shortest road (ROAD_LENGTH_M)
    with pytest.raises(SchemaError, match="graph"):
        parse_scenario_text("[graph]\nvertices = a 0 0\nedges = a a\n")


# a valid non-default value for every field of every section
NON_DEFAULT = {
    "graph": {"grid": None, "vertices": [("a", 0.0, 0.0), ("b", 250.0, 0.5)],
              "edges": [("a", "b", 1), ("b", "a", 3)], "lanes": 3, "phase_length": 12.5},
    "mobility": {"model": "idm-lc", "a_max": 0.8, "b": 1.1, "s0": 1.5, "headway": 0.8,
                 "vehicle_length": 4.5, "visibility": 150.0, "recalc_step": 0.5,
                 "integration_dt": 0.05, "v_min_kmh": 20.0, "v_max_kmh": 70.0,
                 "politeness": 0.25, "accel_threshold": 0.1, "safe_decel_limit": 4.0,
                 "min_stay": 1.0, "max_stay": 5.0},
    "phy": {"m0": 2.0, "m1": 1.0, "m2": 0.5, "d0_m": 60.0, "d1_m": 180.0, "gamma0": 2.0,
            "gamma1": 3.5, "gamma2": 4.0, "d0_g": 150.0, "d1_g": 400.0,
            "ref_distance": 2.0, "frequency": 5.89e9, "rx_threshold": -79.5,
            "carrier_sense_threshold": -95.0, "target_range": 300.0,
            "capture_margin": 6.0, "loss_model": "ideal", "collisions": False},
    "mac": {"bitrate": 1.2e7, "slot": 9e-6, "sifs": 16e-6, "cw_min": 31, "cw_max": 511,
            "retry_limit": 4, "queue_capacity": 20, "phy_overhead": 2e-5,
            "mac_overhead": 28},
    "routing": {"protocol": "olsr", "ttl": 32, "buffer_packets": 16,
                "buffer_timeout": 10.0, "aodv_route_timeout": 5.0,
                "aodv_rreq_retries": 3, "aodv_ring_ttls": (2, 4, 8, 16),
                "aodv_node_traversal": 0.03, "aomdv_max_paths": 2,
                "dsdv_full_dump_interval": 10.0, "dsdv_settling_time": 3.0,
                "dsdv_trigger_min_gap": 0.5, "olsr_hello_interval": 1.0,
                "olsr_tc_interval": 4.0, "hold_multiplier": 2.5},
    "traffic": {"cbr_connections": 5, "packet_size": 256, "rate": 2.0, "cbr_start": 1.0,
                "cbr_stop": 50.0, "beacon_interval": 0.2, "beacon_size": 100,
                "emergency_decel": 3.0, "emergency_rate_limit": 0.5},
    "run": {"duration": 60.0, "seed": 9, "vehicles": 20, "mobility_trace": True},
}


def test_effective_ini_round_trips():
    cfg = ScenarioConfig()
    assert set(NON_DEFAULT) == {f.name for f in fields(cfg)}
    for section, values in NON_DEFAULT.items():
        obj = getattr(cfg, section)
        assert set(values) == {f.name for f in fields(obj)}, section
        for name, value in values.items():
            assert getattr(obj, name) != value, (section, name)
            setattr(obj, name, value)
    text = effective_ini(cfg)
    again = parse_scenario_text(text)
    assert again == cfg
    assert effective_ini(again) == text


def test_grid_spec_parsing():
    cfg = parse_scenario_text("[graph]\ngrid = 3 4 125.5\n")
    assert cfg.graph.grid == (3, 4, 125.5)
    g = cfg.build_graph()
    assert len(g.vertices) == 12


def _mixed_case(word):
    return "".join(c.upper() if i % 2 else c for i, c in enumerate(word))


@pytest.mark.parametrize("word, value", configparser.ConfigParser.BOOLEAN_STATES.items())
def test_every_boolean_word_parses_in_any_case_and_spacing(word, value):
    cfg = ScenarioConfig()
    set_value(cfg, "run", "mobility_trace", f"  {_mixed_case(word)} ", "test")
    assert cfg.run.mobility_trace is value


def test_a_word_that_is_not_a_boolean_is_schema_error():
    with pytest.raises(SchemaError, match=r"\[run\] mobility_trace .*not a boolean"):
        parse_scenario_text("[run]\nmobility_trace = maybe\n")


@pytest.mark.parametrize("vertices, edges, error", [
    ("a 0 0; b 250", "a b; b a", "vertex entry 'b 250' expects 'id x y'"),
    ("a 0 0; b 250 0", "a b; b a 1 2", "edge entry 'b a 1 2' expects 'src dst [lanes]'"),
    # and a graph that misses its edges, or has one to no vertex
    ("a 0 0; b 250 0", "", "inline graphs need both 'vertices' and 'edges' keys"),
    ("a 0 0; b 250 0", "a b; b c", "edge references unknown vertex 'c'")])
def test_a_graph_entry_of_the_wrong_length_is_schema_error(vertices, edges, error):
    with pytest.raises(SchemaError, match=re.escape(error)):
        parse_scenario_text(f"[graph]\nvertices = {vertices}\nedges = {edges}\n")


def test_an_edge_without_lanes_takes_the_section_lanes():
    cfg = parse_scenario_text("[graph]\nvertices = a 0 0; b 250 0\nedges = a b; b a 1\n"
                              "lanes = 3\n")
    assert cfg.graph.edges == [("a", "b", 3), ("b", "a", 1)]


# configparser refuses a line before any section and a key without a value.
# Each other text was refused at line 0: a [DEFAULT] section, whose keys
# configparser copied into [run]; a header with text after its ']' or spaces
# inside it; a key that grows when lowered; and a key after a value's
# continuation line that looks like a header. A section named again in
# another case was merged into the first, and text after a header's ']'
# other than a comment was ignored
@pytest.mark.parametrize("text, error", [
    ("duration = 1\n[run]\n", "(?s)^scenario parse error: .*line: 1"),
    ("[run]\nduration\n", r"(?s)^scenario parse error: .*\[line  2\]"),
    ("[run]\nduration = 1\n[DEFAULT]\nrate = 4\n",
     r"^unknown key 'rate' in section \[default\] \(line 4\)"),
    ("[DEFAULT]\nduration = x\n[run]\n",
     r"^unknown key 'duration' in section \[default\] \(line 2\)"),
    ("[run] ; note\nbogus = 1\n", r"in section \[run\] \(line 2\)"),
    ("[ run ]\nbogus = 1\n", r"in section \[ run \] \(line 2\)"),
    ("[run]\n\u0130x=1\n", r"in section \[run\] \(line 2\)"),
    ("[routing]\nprotocol = aodv\n  [run]\n\n# bogus = 0\nbogus = 1\n",
     r"in section \[routing\] \(line 6\)"),
    ("[run]\nseed = 1\n[RUN]\nseed = 2\n",
     r"^scenario parse error: line 3: bad section header '\[RUN\]'"),
    ("[run] trailing words\nseed = 1\n",
     r"^scenario parse error: line 1: bad section header '\[run\] trailing words'")],
    ids=["line-before-any-section", "key-without-value", "default-after-run",
         "default-first", "header-comment", "header-spaces", "key-lowered-longer",
         "header-in-a-value", "section-repeated-in-another-case", "header-trailing-text"])
def test_malformed_text_is_schema_error_at_its_line(text, error):
    with pytest.raises(SchemaError, match=error):
        parse_scenario_text(text)


def test_a_scenario_naming_the_removed_speed_limit_is_refused_with_its_line():
    with pytest.raises(SchemaError, match=re.escape(
            "unknown key 'speed_limit' in section [graph] (line 3)")):
        parse_scenario_text("[graph]\nlanes = 2\nspeed_limit = 20\n")
