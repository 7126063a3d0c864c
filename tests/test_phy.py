"""Path loss, Nakagami sampling moments, calibration and frame outcomes."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import special, stats

from vanetbench import phy
from vanetbench.core import RngStreams
from vanetbench.scenario import PhyConfig

PHY = PhyConfig()
TX_POWER = 20.0


def draw(rng, d, n, p=PHY, tx_power=TX_POWER):
    """n fading samples at distance d, from the link budget the channel builds."""
    dist = np.full(n, d)
    mean_mw = phy.dbm_to_mw(phy.mean_rx_power(dist, p, tx_power))
    return phy.sample_rx_power(rng, mean_mw, phy.shape_m(dist, p))


def test_reference_point():
    got = phy.mean_rx_power(PHY.ref_distance, PHY, TX_POWER)
    ref = phy.reference_loss_db(PHY.frequency, PHY.ref_distance)
    assert got == pytest.approx(TX_POWER - ref)


def test_continuity_at_band_edges():
    for edge in (PHY.d0_g, PHY.d1_g):
        below = phy.mean_rx_power(edge - 1e-9, PHY, TX_POWER)
        above = phy.mean_rx_power(edge + 1e-9, PHY, TX_POWER)
        assert abs(below - above) < 1e-6


def test_doubling_inside_first_band():
    # gamma0 = 1.9 -> 19 dB per decade -> 10*1.9*log10(2) per doubling
    d1, d2 = 40.0, 80.0
    drop = phy.mean_rx_power(d1, PHY, TX_POWER) - phy.mean_rx_power(d2, PHY, TX_POWER)
    assert drop == pytest.approx(1.9 * 10 * math.log10(2), abs=1e-9)
    assert drop == pytest.approx(5.719, abs=1e-3)


def test_strictly_decreasing():
    d = np.linspace(1.0, 1000.0, 500)
    p = phy.mean_rx_power(d, PHY, TX_POWER)
    assert np.all(np.diff(p) < 0)


def test_zero_distance_rejected():
    with pytest.raises(ValueError):
        phy.mean_rx_power(0.0, PHY, TX_POWER)


def test_link_budget_arrays_equal_the_banded_formulas_bit_for_bit():
    """The in-place builds give the bits of the plain nested-where formulas."""
    p = PhyConfig(gamma2=4.2, m2=0.5)            # three distinct bands of each
    edges = [p.d0_g, p.d1_g, p.d0_m, p.d1_m]
    d = np.concatenate([np.random.default_rng(5).uniform(1.0, 2000.0, 500),
                        edges, np.nextafter(edges, 0.0), [p.ref_distance]])
    base = phy.reference_loss_db(p.frequency, p.ref_distance)
    c0 = base - 10.0 * p.gamma0 * math.log10(p.ref_distance)
    c1 = c0 + 10.0 * (p.gamma0 - p.gamma1) * math.log10(p.d0_g)
    c2 = c1 + 10.0 * (p.gamma1 - p.gamma2) * math.log10(p.d1_g)
    gamma = np.where(d < p.d0_g, p.gamma0, np.where(d < p.d1_g, p.gamma1, p.gamma2))
    intercept = np.where(d < p.d0_g, c0, np.where(d < p.d1_g, c1, c2))
    mean_dbm = TX_POWER - (intercept + 10.0 * gamma * np.log10(d))
    assert phy.mean_rx_power(d, p, TX_POWER).tobytes() == mean_dbm.tobytes()
    assert phy.dbm_to_mw(mean_dbm).tobytes() == np.power(10.0, mean_dbm / 10.0).tobytes()
    m = np.where(d < p.d0_m, p.m0, np.where(d < p.d1_m, p.m1, p.m2))
    assert phy.shape_m(d, p).tobytes() == m.tobytes()


def test_shape_bands():
    assert phy.shape_m(50.0, PHY) == 1.5
    assert phy.shape_m(100.0, PHY) == 0.75
    assert phy.shape_m(400.0, PHY) == 0.75


def test_sample_rx_power_is_numpy_gamma_bit_for_bit():
    dist = np.random.default_rng(5).uniform(1.0, 2000.0, size=1000)
    mean_mw = phy.dbm_to_mw(phy.mean_rx_power(dist, PHY, TX_POWER))
    shape = phy.shape_m(dist, PHY)
    for seed in (0, 1, 77):
        got = phy.sample_rx_power(np.random.default_rng(seed), mean_mw, shape)
        want = np.random.default_rng(seed).gamma(shape, mean_mw / shape)
        assert got.tobytes() == want.tobytes()


def test_sample_moments_at_100m():
    rng = RngStreams(3).stream("channel")
    d = 100.0
    samples = draw(rng, d, 100_000)
    mean_mw = float(phy.dbm_to_mw(phy.mean_rx_power(d, PHY, TX_POWER)))
    m = phy.shape_m(d, PHY)
    assert np.mean(samples) == pytest.approx(mean_mw, rel=0.02)
    assert np.var(samples) / mean_mw ** 2 == pytest.approx(1.0 / m, rel=0.05)


def test_large_shape_kills_fading():
    no_fading = PhyConfig(m0=1e6, m1=1e6, m2=1e6)
    rng = RngStreams(4).stream("channel")
    d = 100.0
    mean_mw = float(phy.dbm_to_mw(phy.mean_rx_power(d, no_fading, TX_POWER)))
    samples = draw(rng, d, 2000, no_fading)
    assert np.all(np.abs(samples - mean_mw) < 0.005 * mean_mw)


@pytest.mark.parametrize("seed", (0, 1, 77))
@pytest.mark.parametrize("d", (50.0, 150.0, 300.0))   # one distance per shape band
def test_fading_draw_is_the_nakagami_power_distribution(d, seed):
    samples = draw(np.random.default_rng(seed), d, 5000)
    mean_mw = float(phy.dbm_to_mw(phy.mean_rx_power(d, PHY, TX_POWER)))
    m = phy.shape_m(d, PHY)
    assert stats.kstest(samples, stats.gamma(a=m, scale=mean_mw / m).cdf).pvalue > 0.01
    # power: the same samples reject a shape 20 % too large
    wrong = 1.2 * m
    assert stats.kstest(samples, stats.gamma(a=wrong, scale=mean_mw / wrong).cdf).pvalue < 1e-3


def test_calibration_exact():
    tx_power = phy.calibrate_range(PhyConfig(rx_threshold=-82.0, target_range=250.0))
    assert phy.mean_rx_power(250.0, PHY, tx_power) == pytest.approx(-82.0, abs=1e-9)
    assert phy.mean_rx_power(100.0, PHY, tx_power) > -82.0


def test_reception_probability_at_calibrated_range_matches_gamma_oracle():
    tx_power = phy.calibrate_range(PhyConfig(rx_threshold=-82.0, target_range=250.0))
    rng = RngStreams(9).stream("channel")
    n = 100_000
    samples = draw(rng, 250.0, n, tx_power=tx_power)
    threshold = float(phy.dbm_to_mw(-82.0))
    p_hat = float(np.mean(samples >= threshold))
    # at the calibrated range the mean equals the threshold, so the reception
    # probability is Q(m, m) for the local shape factor m = 0.75
    m = phy.shape_m(250.0, PHY)
    p_oracle = float(special.gammaincc(m, m))
    assert p_oracle == pytest.approx(0.3484, abs=5e-4)
    assert p_hat == pytest.approx(p_oracle, abs=0.02)


def test_reception_probability_monotone_in_distance():
    tx_power = phy.calibrate_range(PhyConfig(rx_threshold=-82.0, target_range=250.0))
    rng = RngStreams(12).stream("channel")
    threshold = float(phy.dbm_to_mw(-82.0))
    probs = []
    for d in (50.0, 100.0, 150.0, 200.0, 250.0, 300.0):
        samples = draw(rng, d, 10_000, tx_power=tx_power)
        probs.append(float(np.mean(samples >= threshold)))
    assert all(a >= b - 0.01 for a, b in zip(probs, probs[1:]))
    assert probs[0] > 0.9
    assert probs[-1] < 0.35


def test_per_receiver_independence():
    rng = RngStreams(21).stream("channel")
    a = draw(rng, 120.0, 10_000)
    b = draw(rng, 120.0, 10_000)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.05


def test_same_stream_same_losses():
    def pattern():
        rng = RngStreams(33).stream("channel")
        s = draw(rng, 250.0, 500)
        return (s >= phy.dbm_to_mw(PHY.rx_threshold - 50)).tolist()
    assert pattern() == pattern()


THRESHOLD_MW = float(phy.dbm_to_mw(-82.0))
CAPTURE_RATIO = 10.0 ** (10.0 / 10.0)    # 10 dB capture margin
RX = 0                                     # the receiver in the outcome tests


def tx_at_rx(power_mw, sender=1):
    """An overlapping transmission as the channel keeps it: its sampled power at
    every node, infinite at its own sender."""
    sample_mw = [0.0] * 3
    sample_mw[RX] = power_mw
    sample_mw[sender] = math.inf
    return SimpleNamespace(sender=sender, sample_mw=sample_mw)


def outcome(power_mw, overlapping, collisions=True):
    return phy.frame_outcome_mw(power_mw, RX, overlapping, THRESHOLD_MW,
                                CAPTURE_RATIO, collisions)


def test_frame_outcome_single_frame():
    ok = float(phy.dbm_to_mw(-70.0))
    assert outcome(ok, []) == phy.OUTCOME_RECEIVED
    weak = float(phy.dbm_to_mw(-90.0))
    assert outcome(weak, []) == phy.OUTCOME_FADING


def test_frame_outcome_equal_power_overlap_kills_both():
    p = float(phy.dbm_to_mw(-60.0))
    assert outcome(p, [tx_at_rx(p)]) == phy.OUTCOME_COLLISION


def test_frame_outcome_capture_15db():
    strong = float(phy.dbm_to_mw(-60.0))
    weak = float(phy.dbm_to_mw(-75.0))
    assert outcome(strong, [tx_at_rx(weak)]) == phy.OUTCOME_RECEIVED
    assert outcome(weak, [tx_at_rx(strong)]) == phy.OUTCOME_COLLISION


def test_frame_outcome_receiver_sending_is_half_duplex_loss():
    strong = float(phy.dbm_to_mw(-40.0))
    own = tx_at_rx(0.0, sender=RX)
    assert outcome(strong, [own]) == phy.OUTCOME_COLLISION
    assert outcome(strong, [own], collisions=False) == phy.OUTCOME_COLLISION


def test_frame_outcome_without_collisions_counts_only_own_frames():
    p = float(phy.dbm_to_mw(-60.0))
    assert outcome(p, [tx_at_rx(p), tx_at_rx(10 * p, sender=2)],
                   collisions=False) == phy.OUTCOME_RECEIVED
    weak = float(phy.dbm_to_mw(-90.0))
    assert outcome(weak, [], collisions=False) == phy.OUTCOME_FADING
