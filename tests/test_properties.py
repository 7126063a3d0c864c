"""Properties of every scenario that passes validate(): the run completes,
cbr packets are conserved, events are dispatched in time order, the written
trace re-aggregates to the run's live aggregator, and the same seed replays
the same run."""

import os
import tempfile

from hypothesis import given, strategies as st

from vanetbench.metrics import aggregate, conservation_check, read_trace
from vanetbench.scenario import MOBILITY_MODELS, PROTOCOLS, ScenarioConfig
from vanetbench.simulation import Simulation


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
    net.sim.record_log = True
    return net.run(), net.sim.dispatch_log


@given(scenarios())
def test_valid_scenario_runs_conserves_and_replays(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.txt")
        with open(path, "w", encoding="utf-8") as fh:
            result, log = run(cfg, fh)
        written = aggregate(read_trace(path))
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
