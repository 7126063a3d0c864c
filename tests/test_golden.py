"""Golden pins: byte-identical traces and mobility rows for short pinned runs.

The hashes define "same behaviour" for refactors: a change that moves any of
them alters what the simulator does and must say why and re-pin them. The
full runs use `accel_threshold = 0` so idm-lc makes lane changes within 3 s
(at the default threshold idm-lc repeats idm-im byte for byte), and a
mobility trace, because lane changes move the mobility rows but not the packet
trace. The static pins exercise each protocol over the fixed-position network.
Every pin also holds under the eager MAC of `mac_reference`.
"""

import hashlib
import io
from functools import partial

import pytest

import mac_reference
from conftest import line_positions, make_net
from vanetbench.scenario import MOBILITY_MODELS, PROTOCOLS, ScenarioConfig
from vanetbench.simulation import Simulation

# (protocol, mobility model) -> (sha256 of the trace text, sha256 of repr(mobility_rows))
RUN_PINS = {
    ("aodv", "idm-im"): (
        "29c6fc3ca6b7153ae3e4bab624b99ffa8da940a28319e053a5ec32cf48ad4f46",
        "e1a1ea5add43abf056c4e12d2f2c66775bd4e7c62fe5384d416902607cd90c68"),
    ("aodv", "idm-lc"): (
        "29c6fc3ca6b7153ae3e4bab624b99ffa8da940a28319e053a5ec32cf48ad4f46",
        "0096646e54a6c1300ce515413cc1a509aa0438df218efc374bb0f071eaa13cea"),
    ("aomdv", "idm-im"): (
        "3497772214a83d5c79af243479c4a9c8a68bfefbf261d1ed8ce374953c7490ce",
        "e1a1ea5add43abf056c4e12d2f2c66775bd4e7c62fe5384d416902607cd90c68"),
    ("aomdv", "idm-lc"): (
        "3497772214a83d5c79af243479c4a9c8a68bfefbf261d1ed8ce374953c7490ce",
        "0096646e54a6c1300ce515413cc1a509aa0438df218efc374bb0f071eaa13cea"),
    ("dsdv", "idm-im"): (
        "9a7a66bc4f7e2c7a5f104476c53f31a0568104dfb4ff7744293237ebd5e39edb",
        "e1a1ea5add43abf056c4e12d2f2c66775bd4e7c62fe5384d416902607cd90c68"),
    ("dsdv", "idm-lc"): (
        "9a7a66bc4f7e2c7a5f104476c53f31a0568104dfb4ff7744293237ebd5e39edb",
        "0096646e54a6c1300ce515413cc1a509aa0438df218efc374bb0f071eaa13cea"),
    ("olsr", "idm-im"): (
        "84544c67b2d2a3cfbaeaa23d198dffa539adf5de9c1d7f37124216cfb2f13f13",
        "e1a1ea5add43abf056c4e12d2f2c66775bd4e7c62fe5384d416902607cd90c68"),
    ("olsr", "idm-lc"): (
        "84544c67b2d2a3cfbaeaa23d198dffa539adf5de9c1d7f37124216cfb2f13f13",
        "0096646e54a6c1300ce515413cc1a509aa0438df218efc374bb0f071eaa13cea"),
}

# sha256 of the trace text of the aodv idm-im run with `phy.collisions = false`:
# Nakagami loss where only a receiver's own transmission (half duplex) makes a
# collision, the branch of the reception decision that the full runs never take
COLLISIONS_OFF_PIN = "0295f7245d4e98d8b3e7747175abc57c27c5437e531bfb70b97530d72fa6f237"

# protocol -> sha256 of repr(net.trace.records) of the static-network pin
STATIC_PINS = {
    "aodv": "ada2d311bdc727c17756ae58410de30dec67c616b59637b914f0b9886524c0d9",
    "aomdv": "269bd37e31c6fe8a9fa09b60bea22cebaec3644d82f77c2c92087b90247eaf5b",
    "dsdv": "08eb719713bfb68693eb647cb000b7edeeace0a3e7c4f4377bb7f193ddf406d6",
    "olsr": "43613fa61e56e0b4efac3dbf3b01a33ffdea0d093b2a2bcf661b99d95a92b46b",
}

# sha256 of the trace text of an 8 s olsr idm-im run with HELLO every 0.5 s and
# TC every 1 s: links, MPR selectors and topology entries outlive their hold
# times and expire, which the 3 s runs above never reach
OLSR_EXPIRY_PIN = "001ad7b01b16486142948ef10474b9dd4eca7d762483014974a9f0f81d6a6988"

# sha256 of the trace text of a 1.5 s aodv idm-im run of 60 vehicles on a 3 x 3
# x 150 m grid: every node hears most others, so backoffs that end in one slot
# (386 of 1,942 fired, against 103 of 3,328 in the 40-vehicle runs above) and
# freezes of one contender under another's frame are frequent
CROWDED_PIN = "0001544616eb1eb3ad3092cb07785c3e71510409e3054be3416beb1e3d7030b7"

# sha256 of the trace text of a 1 s aodv run on the default frame at seed 7,
# where backoffs fire at the same instant as a frame's end, an ACK or an ACK
# timeout: the order of such events, which a re-armed backoff's reserved
# sequence number sets, moves it while every pin above holds
SAME_INSTANT_PIN = "fc4edf57016b71a73a74a9fc2283cfc0b7d5912c7613a2c99df7b5011e74d61e"

# (sha256 of the trace text, sha256 of repr(mobility_rows)) of the aodv idm-im
# run with 1 s signal phases: its traffic lights switch phase at 1 s and 2 s,
# which the default 10 s phase never does within the pins above, so the
# mobility rows see when the lights read the clock
PHASE_SWITCH_PIN = (
    "29c6fc3ca6b7153ae3e4bab624b99ffa8da940a28319e053a5ec32cf48ad4f46",
    "724bd31062d371729308ba83332230027292a00b2891940003b1f25cb0684359")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def golden_config(protocol: str, model: str) -> ScenarioConfig:
    cfg = ScenarioConfig()
    cfg.run.seed = 1
    cfg.run.vehicles = 40
    cfg.run.duration = 3.0
    cfg.run.mobility_trace = True
    cfg.traffic.cbr_connections = 10
    cfg.mobility.accel_threshold = 0.0
    cfg.mobility.model = model
    cfg.routing.protocol = protocol
    return cfg


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("model", MOBILITY_MODELS)
def test_run_matches_golden_hashes(protocol, model):
    buf = io.StringIO()
    sim = Simulation(golden_config(protocol, model), trace_file=buf)
    result = sim.run()
    if model == "idm-lc":
        assert result.warnings["lane_changes"] > 0
    got = (_sha256(buf.getvalue()), _sha256(repr(sim.mobility_rows)))
    assert got == RUN_PINS[(protocol, model)]


def test_half_duplex_only_run_matches_golden_hash():
    cfg = golden_config("aodv", "idm-im")
    cfg.phy.collisions = False
    buf = io.StringIO()
    Simulation(cfg, trace_file=buf).run()
    text = buf.getvalue()
    assert " dropped collision " in text      # the half-duplex rule is exercised
    assert _sha256(text) == COLLISIONS_OFF_PIN


def test_olsr_run_past_its_hold_times_matches_golden_hash():
    cfg = golden_config("olsr", "idm-im")
    cfg.run.duration = 8.0
    cfg.routing.olsr_hello_interval = 0.5
    cfg.routing.olsr_tc_interval = 1.0
    buf = io.StringIO()
    Simulation(cfg, trace_file=buf).run()
    assert _sha256(buf.getvalue()) == OLSR_EXPIRY_PIN


def test_crowded_aodv_run_matches_golden_hash():
    cfg = golden_config("aodv", "idm-im")
    cfg.run.vehicles = 60
    cfg.run.duration = 1.5
    cfg.graph.grid = (3, 3, 150.0)
    buf = io.StringIO()
    Simulation(cfg, trace_file=buf).run()
    assert _sha256(buf.getvalue()) == CROWDED_PIN


def test_same_instant_aodv_run_matches_golden_hash():
    cfg = ScenarioConfig()
    cfg.run.seed = 7
    cfg.run.duration = 1.0
    buf = io.StringIO()
    Simulation(cfg, trace_file=buf).run()
    assert _sha256(buf.getvalue()) == SAME_INSTANT_PIN


def test_run_across_signal_phase_switches_matches_golden_hashes():
    cfg = golden_config("aodv", "idm-im")
    cfg.graph.phase_length = 1.0
    buf = io.StringIO()
    sim = Simulation(cfg, trace_file=buf)
    sim.run()
    assert (_sha256(buf.getvalue()), _sha256(repr(sim.mobility_rows))) == PHASE_SWITCH_PIN


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_static_network_matches_golden_hash(protocol):
    net = make_net(line_positions(5, 240.0), protocol)
    net.run_for(3.0)
    net.send_data(0, 4, flow_id=0)
    net.run_for(0.5)
    net.send_data(4, 1, flow_id=1)
    net.run_for(2.0)
    net.close()
    assert _sha256(repr(net.trace.records)) == STATIC_PINS[protocol]


# every pin above, as a call of its test
PINS = [*(pytest.param(partial(test_run_matches_golden_hashes, protocol, model),
                       id=f"run-{protocol}-{model}")
          for protocol in PROTOCOLS for model in MOBILITY_MODELS),
        pytest.param(test_half_duplex_only_run_matches_golden_hash, id="half-duplex"),
        pytest.param(test_olsr_run_past_its_hold_times_matches_golden_hash, id="olsr-expiry"),
        pytest.param(test_crowded_aodv_run_matches_golden_hash, id="crowded"),
        pytest.param(test_same_instant_aodv_run_matches_golden_hash, id="same-instant"),
        pytest.param(test_run_across_signal_phase_switches_matches_golden_hashes,
                     id="phase-switch"),
        *(pytest.param(partial(test_static_network_matches_golden_hash, protocol),
                       id=f"static-{protocol}") for protocol in PROTOCOLS)]


@pytest.mark.parametrize("pin", PINS)
def test_pin_holds_under_the_eager_mac_reference(pin, monkeypatch):
    mac_reference.install(monkeypatch)
    pin()
