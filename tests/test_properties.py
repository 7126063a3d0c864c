"""Properties of every scenario that passes validate(): the run completes,
cbr packets are conserved, events are dispatched in time order, the written
trace re-aggregates to the run's live aggregator, and the same seed replays
the same run. And of the schema: drawn from each field's bounds, a value
outside them is a SchemaError naming the key, and a config within them runs.
And of the trace file: a beacon block writes the text of its records. And of
the MAC: on a static network, it writes the records and dispatches the events
of the eager design of `mac_reference`, frame injection for frame injection."""

import io
import itertools
import math
import os
import re
import sys
import tempfile
from dataclasses import fields

import pytest
from hypothesis import example, given, reject, strategies as st

import mac_reference
from vanetbench import phy
from vanetbench.metrics import (EV_SENT, LAYER_APP, PBC_DEFAULT, PBC_OUTCOMES,
                                TraceFileWriter, conservation_check, read_trace)
from vanetbench.packets import BROADCAST, KIND_CBR, KIND_PBC, Packet
from vanetbench.scenario import MOBILITY_MODELS, PROTOCOLS, ScenarioConfig, SchemaError
from vanetbench.simulation import Simulation

from conftest import StaticNetwork, record_dispatch_log


@st.composite
def scenarios(draw):
    """Small configs over every protocol, mobility model and channel mode."""
    cfg = ScenarioConfig()
    n = draw(st.integers(2, 30))
    cfg.run.vehicles = n
    cfg.run.seed = draw(st.integers(0, 2**32 - 1))
    cfg.run.duration = draw(st.floats(0.5, 2.0))
    cfg.routing.protocol = draw(st.sampled_from(PROTOCOLS))
    cfg.mobility.model = draw(st.sampled_from(MOBILITY_MODELS))
    cfg.traffic.cbr_connections = draw(st.integers(0, min(8, n * (n - 1))))
    cfg.phy.collisions = draw(st.booleans())
    cfg.phy.loss_model = draw(st.sampled_from(("nakagami", "ideal")))
    cfg.mac.queue_capacity = draw(st.integers(1, 50))
    cfg.graph.grid = (draw(st.integers(2, 4)), draw(st.integers(2, 4)),
                      draw(st.floats(100.0, 600.0)))
    cfg.validate()
    return cfg


def run(cfg, trace_file=None):
    """One run with its dispatch log recorded."""
    net = Simulation(cfg, trace_file)
    log = record_dispatch_log(net.sim)
    return net.run(), log


@given(scenarios())
def test_valid_scenario_runs_conserves_and_replays(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.txt")
        with open(path, "w", encoding="utf-8") as fh:
            result, log = run(cfg, fh)
        written = read_trace(path)
    agg = result.aggregator
    assert list(written.counts.items()) == list(agg.counts.items())
    assert written.recv_events == agg.recv_events
    assert (written.control_tx, written.control_tx_bytes) == (agg.control_tx,
                                                              agg.control_tx_bytes)
    conservation_check(agg)
    times = [t for t, _, _ in log]
    assert all(a <= b for a, b in zip(times, times[1:]))
    replay, _ = run(cfg)
    assert replay.aggregator.counts == agg.counts
    assert replay.aggregator.recv_events == agg.recv_events


# -- the schema's bounds, read from each field's metadata ------------------------

BOUND_KEYS = {"gt", "ge", "le", "one_of", "mask"}


def within(value, bounds) -> bool:
    """Whether `value` keeps a field's `bounds`, read here apart from validate():
    gt, ge and le hold for a number or each item of a tuple, which needs one
    or more; one_of lists the choices; mask is the form 2^k - 1."""
    items = value if isinstance(value, tuple) else (value,)
    return bool(items) and value in bounds.get("one_of", (value,)) and all(
        ("gt" not in bounds or v > bounds["gt"]) and ("ge" not in bounds or v >= bounds["ge"])
        and ("le" not in bounds or v <= bounds["le"])
        and (not bounds.get("mask") or (v >= 0 and v & (v + 1) == 0)) for v in items)


def small_config():
    """The defaults at a 0.5 s, 10-vehicle scale, on a grid small enough that
    routes form and data frames reach the MAC within the run."""
    cfg = ScenarioConfig()
    cfg.run.duration, cfg.run.vehicles, cfg.traffic.cbr_connections = 0.5, 10, 4
    cfg.graph.grid = (3, 3, 100.0)
    return cfg


# magnitudes far outside any plausible value, where arithmetic overflows or
# underflows: ints beyond a float, the largest and smallest finite floats
MAGNITUDES = {int: {10**400, -10**400},
              float: {1e300, -1e300, 1e-300, -1e-300, sys.float_info.max,
                      -sys.float_info.max, sys.float_info.min, 5e-324}}


def probes(f, base):
    """Values to draw for field `f`, whose small-config value is `base`: the
    choices, each bound and the value just outside it, and for a number also
    0, -1, minus the base, half and twice the base and the `MAGNITUDES` (for
    a tuple, each of these as a one-item tuple). Each must be refused or run:
    a bound or the cap on periodic firings refuses an integration_dt or
    beacon_interval near 0, which would run for a very long time."""
    bounds = f.metadata
    if f.type is bool:
        return [False, True]
    if f.type is str:
        return [*bounds.get("one_of", (base,)), "bogus"]
    kind = int if f.type in (int, tuple[int, ...]) else float
    values = {kind(0), kind(-1), *MAGNITUDES[kind]}
    for key, outward in (("gt", -1), ("ge", -1), ("le", 1)):
        if key in bounds:
            edge = bounds[key]
            values |= {edge, edge + outward if kind is int
                       else math.nextafter(edge, outward * math.inf)}
    if "gt" in bounds and kind is int:
        values.add(bounds["gt"] + 1)            # the least accepted int
    if f.type == tuple[int, ...]:
        return [(), base, *((v,) for v in sorted(values))]
    if base is not None:
        values |= {base, -base, base // 2 if kind is int else base / 2, base * 2}
    return sorted(values) + ([None] if f.type == float | None else [])


def _schema_draws():
    """(section, key, value) for each probe of each field, split by whether
    the field's bounds accept it. Of the [graph] keys only those with bounds
    are drawn: the road graph build checks the others."""
    base = small_config()
    draws = {True: [], False: []}
    for sec in fields(ScenarioConfig):
        for f in fields(sec.type):
            if sec.name == "graph" and not f.metadata:
                continue
            for value in probes(f, getattr(getattr(base, sec.name), f.name)):
                draws[within(value, f.metadata)].append((sec.name, f.name, value))
    return draws[True], draws[False]


ACCEPTED, REJECTED = _schema_draws()


# up to four fields set to accepted values
accepted_changes = st.lists(st.sampled_from(ACCEPTED), max_size=4)


def config_with(changes):
    """The small config with each (section, key, value) of `changes` set."""
    cfg = small_config()
    for sec, key, value in changes:
        setattr(getattr(cfg, sec), key, value)
    return cfg


# the protocols that read a [routing] key, by the key's first word; every
# protocol reads a key whose first word is not here
READERS = {"aodv": ("aodv", "aomdv"), "aomdv": ("aomdv",), "dsdv": ("dsdv",),
           "olsr": ("olsr",), "hold": ("olsr",)}


def alone(probe):
    """The change lists that try `probe` by itself: a [routing] key under
    each protocol that reads it."""
    if probe[0] != "routing":
        return [[probe]]
    readers = READERS.get(probe[1].split("_")[0], PROTOCOLS)
    return [[("routing", "protocol", protocol), probe] for protocol in readers]


def with_examples(kwargs_list):
    """Add one explicit example per dict of arguments; every profile runs them."""
    def apply(test):
        for kwargs in kwargs_list:
            test = example(**kwargs)(test)
        return test
    return apply


def run_within(cfg, budget=100_000):
    """Run `cfg`, raising once `budget` events are scheduled, so that a run
    which never ends fails the property instead of hanging it."""
    net = Simulation(cfg)
    schedule, count = net.sim.schedule, itertools.count(1)

    def counted(at, action, target=""):
        if next(count) > budget:
            raise RuntimeError(f"more than {budget} events scheduled")
        return schedule(at, action, target)

    net.sim.schedule = counted
    return net.run()


def test_every_field_bound_is_one_the_schema_reads():
    for sec in fields(ScenarioConfig):
        for f in fields(sec.type):
            assert set(f.metadata) <= BOUND_KEYS, (sec.name, f.name)


# each probe alone, then drawn combinations
@with_examples({"changes": [], "bad": probe} for probe in REJECTED)
@given(accepted_changes, st.sampled_from(REJECTED))
def test_a_value_outside_its_bounds_is_schema_error(changes, bad):
    cfg = config_with([*changes, bad])
    with pytest.raises(SchemaError, match=re.escape(f"{bad[0]}.{bad[1]}")):
        cfg.validate()


@with_examples({"changes": changes} for probe in ACCEPTED for changes in alone(probe))
@given(accepted_changes)
def test_a_config_within_bounds_runs_and_conserves(changes):
    cfg = config_with(changes)
    try:
        cfg.validate()
    except SchemaError:
        reject()            # a rule across fields, which the draws do not model
    conservation_check(run_within(cfg).aggregator)


# -- beacon outcome blocks in the trace file --------------------------------------

OUTCOME_PATTERNS = ("random", "none decided", "all decided", "first decided",
                    "last decided")


@st.composite
def pbc_blocks(draw):
    """(time, packet id, size, [(node, outcome)]) of one beacon broadcast, an
    outcome for each of its ascending hearers. Its time is one ulp above a
    drawn float, so that its repr takes up to 17 digits."""
    hearers = sorted(draw(st.sets(st.integers(0, 999), max_size=60)))
    pattern = draw(st.sampled_from(OUTCOME_PATTERNS))
    decided = st.sampled_from([o for o in PBC_OUTCOMES if o != PBC_DEFAULT])
    if pattern == "random":
        outcomes = [draw(st.sampled_from(tuple(PBC_OUTCOMES))) for _ in hearers]
    elif pattern == "all decided":
        outcomes = [draw(decided) for _ in hearers]
    else:
        outcomes = [PBC_DEFAULT] * len(hearers)
        if hearers and pattern != "none decided":
            outcomes[0 if pattern == "first decided" else -1] = draw(decided)
    time = math.nextafter(draw(st.floats(0.0, 100.0)), math.inf)
    return (time, draw(st.integers(0, 10**6)), draw(st.sampled_from((200, 512))),
            list(zip(hearers, outcomes)))


@example(blocks=[(0.1 + 0.2, 7, 200, [(3, "fading"), (8, "received"), (120, "collision")])])
@given(st.lists(pbc_blocks(), min_size=1, max_size=4))
def test_a_pbc_block_writes_the_text_of_one_add_per_record(blocks):
    by_block, by_record = io.StringIO(), io.StringIO()
    block_writer, record_writer = TraceFileWriter(by_block), TraceFileWriter(by_record)
    for time, pid, size, outcomes in blocks:
        block_writer.add_pbc_block(time, pid, size, [node for node, _ in outcomes],
                                   [(node, o) for node, o in outcomes if o != PBC_DEFAULT])
        for node, outcome in outcomes:
            record_writer.add(time, *PBC_OUTCOMES[outcome], KIND_PBC, pid, None, node, size)
    assert by_block.getvalue() == by_record.getvalue()


# -- the MAC against its eager reference ------------------------------------------

def sense_range(phy_cfg) -> float:
    """The distance at which a frame's mean power falls to the carrier-sense
    threshold, by bisection: the mean power decreases with distance."""
    tx_power = phy.calibrate_range(phy_cfg)
    near, far = phy_cfg.ref_distance, 1e5
    for _ in range(60):
        mid = (near + far) / 2
        if phy.mean_rx_power(mid, phy_cfg, tx_power) >= phy_cfg.carrier_sense_threshold:
            near = mid
        else:
            far = mid
    return near


SENSE_RANGE = sense_range(ScenarioConfig().phy)
INJECT_GRID = 1e-3           # s; a frame is injected at a multiple of this


@st.composite
def mac_workloads(draw):
    """(config, positions, injections) of a static network: 2-30 nodes in a box
    up to twice the carrier-sense range, and frames injected on a grid coarse
    enough that equal instants and backoffs ending in one slot are common. An
    injection is (grid step, sender, receiver or BROADCAST)."""
    cfg = ScenarioConfig()
    cfg.run.seed = draw(st.integers(0, 2**32 - 1))
    cfg.phy.loss_model = draw(st.sampled_from(("nakagami", "ideal")))
    cfg.phy.collisions = draw(st.booleans())
    cfg.mac.cw_min = 2 ** draw(st.integers(0, 9)) - 1         # the mask form, below cw_max
    cfg.mac.retry_limit = draw(st.integers(0, 10))
    n = draw(st.integers(2, 30))
    side = draw(st.floats(1.0, 2.0 * SENSE_RANGE))
    coord = st.floats(0.0, side)
    positions = {i: (draw(coord), draw(coord)) for i in range(n)}
    node = st.integers(0, n - 1)
    injections = draw(st.lists(st.tuples(st.integers(0, 10), node,
                                         st.one_of(st.just(BROADCAST), node)),
                               min_size=1, max_size=40))
    cfg.validate()
    return cfg, positions, [(step, src, dst) for step, src, dst in injections if src != dst]


def run_mac_workload(cfg, positions, injections):
    """Trace records and dispatch log of the injections on a static network
    whose protocols never start: a broadcast is a beacon, a unicast frame a cbr
    packet with its app sent record."""
    net = StaticNetwork(positions, cfg)
    log = record_dispatch_log(net.sim)

    def inject(src, dst):
        node = net.nodes[src]
        kind = KIND_PBC if dst == BROADCAST else KIND_CBR
        pkt = Packet(kind, dst, 200 if dst == BROADCAST else 512, node.new_packet_id())
        if kind == KIND_CBR:
            node.record(EV_SENT, "none", LAYER_APP, pkt)
        node.mac.enqueue_packet(pkt, dst)

    for step, src, dst in injections:
        net.sim.schedule(step * INJECT_GRID, lambda s=src, d=dst: inject(s, d), "inject")
    net.run_for(1.0)
    return net.trace.records, log


@given(mac_workloads())
def test_the_mac_writes_the_records_and_dispatch_log_of_its_eager_reference(workload):
    records, log = run_mac_workload(*workload)
    with pytest.MonkeyPatch.context() as patch:
        mac_reference.install(patch)
        eager_records, eager_log = run_mac_workload(*workload)
    assert records == eager_records
    assert log == eager_log
