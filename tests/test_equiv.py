"""Self-tests of the equivalence gate, tests/equiv.py: its t quantiles, its
two one-sided tests and its exact mode's verdicts."""

import io
import random

import pytest
import scipy.stats

import equiv
from vanetbench.scenario import ScenarioConfig, set_value, settle
from vanetbench.simulation import Simulation

FRAME = ["run.duration=1", "run.vehicles=10", "run.seed=7"]
RAISED = ["phy.rx_threshold=-81"]       # 1 dB above the default, which moves this frame


def test_t_quantiles_match_scipy():
    for df in range(1, 201):
        assert equiv.t_quantile(df) == pytest.approx(scipy.stats.t.ppf(0.975, df), abs=1e-9)


def paired_pdr(shift: float) -> dict:
    """The gate's PDR verdict on two cells x ten seeds whose change adds `shift`
    plus unit noise to each base run."""
    rng = random.Random(3)
    base, change = {}, {}
    for key in ((cell, "idm-im", seed) for seed in range(1, 11) for cell in ("aodv", "olsr")):
        base[key] = {"pdr": rng.uniform(10.0, 40.0)}
        change[key] = {"pdr": base[key]["pdr"] + rng.gauss(shift, 1.0)}
    return equiv.paired_verdicts(base, change)["pdr"]


def test_tost_passes_a_sample_inside_its_margin_and_fails_a_shifted_one():
    margin = equiv.METRICS["pdr"][0]
    inside = paired_pdr(0.0)
    assert inside["n"] == 10                        # one mean difference per seed
    assert inside["passes"] and -margin < inside["low"] < inside["high"] < margin
    assert not paired_pdr(margin)["passes"]
    assert not equiv.tost([0.0], margin)["passes"]


@pytest.mark.parametrize("change, verdict", [
    (["0.1 a\n", "0.2 b\n"], "identical"),
    (["0.1 a\n", "0.20000000000000004 b\n"], "equal-up-to-time"),
    (["0.1 a\n", "0.2000001 b\n"], "diverged"),
    (["0.1 a\n", "0.2 c\n"], "diverged"),
    (["0.1 a\n"], "diverged"),
])
def test_exact_mode_tells_moved_times_from_moved_records(change, verdict):
    got = equiv.compare_streams(["0.1 a\n", "0.2 b\n"], change, 1e-12, 5)
    assert got["verdict"] == verdict
    if verdict == "diverged":
        assert got["index"] == 1 and got["before"] == ["0.1 a\n"]
        assert got["change"] == (change[1] if len(change) > 1 else None)


def trace_lines(items) -> list[str]:
    cfg = ScenarioConfig()
    for item in items:
        key, value = item.split("=", 1)
        set_value(cfg, *key.split("."), value, item)
    buf = io.StringIO()
    Simulation(settle(cfg), trace_file=buf).run()
    return buf.getvalue().splitlines(keepends=True)


def test_exact_mode_finds_the_tree_identical_to_itself():
    [result] = equiv.exact(equiv.REPO, equiv.REPO, [FRAME], mobility=True)
    assert result["verdict"] == "identical"
    assert result["records"] > len(trace_lines(FRAME))     # the mobility rows too


def test_exact_mode_names_the_first_record_a_full_comparison_finds():
    [result] = equiv.exact(equiv.REPO, equiv.REPO, [FRAME], change_set=RAISED)
    base, change = trace_lines(FRAME), trace_lines(FRAME + RAISED)
    first = next(i for i, (a, b) in enumerate(zip(base, change)) if a != b)
    assert result["verdict"] == "diverged"
    assert (result["index"], result["base"], result["change"]) == (
        first, base[first], change[first])
    assert result["before"] == base[max(0, first - 5):first]
