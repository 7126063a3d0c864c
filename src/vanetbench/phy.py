"""Nakagami-fading radio channel: dual-slope path loss, Gamma-distributed power,
and the one frame-reception decision (`frame_outcome_mw`) the channel applies,
with its threshold test made for all hearers of a broadcast at once
(`broadcast_outcomes_mw`)."""

import math

import numpy as np

from .scenario import PhyConfig

C_LIGHT = 299792458.0

# a lost frame's outcome is also its drop reason in the trace
OUTCOME_RECEIVED = "received"
OUTCOME_FADING = "fading"
OUTCOME_COLLISION = "collision"


def reference_loss_db(frequency: float, ref_distance: float = 1.0) -> float:
    """Free-space loss at the reference distance."""
    return 20.0 * math.log10(4.0 * math.pi * ref_distance * frequency / C_LIGHT)


def path_loss_db(d, p: PhyConfig):
    """Dual-slope log-distance loss, continuous across band edges. Accepts arrays.

    Within band b the loss is C_b + 10*gamma_b*log10(d); the intercepts C_b are
    chosen so the curve is continuous at the band edges.
    """
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise ValueError("path loss undefined at d <= 0")
    base = reference_loss_db(p.frequency, p.ref_distance)
    r = p.ref_distance
    lg10 = math.log10
    c0 = base - 10.0 * p.gamma0 * lg10(r)
    c1 = c0 + 10.0 * (p.gamma0 - p.gamma1) * lg10(p.d0_g)
    c2 = c1 + 10.0 * (p.gamma1 - p.gamma2) * lg10(p.d1_g)
    # intercept + 10 * gamma * log10(d), built in one array; IEEE + and * are
    # commutative, so the operand order does not change a bit
    loss = _by_band(d, p.d0_g, p.d1_g, p.gamma0, p.gamma1, p.gamma2)
    loss *= 10.0
    loss *= np.log10(d)
    loss += _by_band(d, p.d0_g, p.d1_g, c0, c1, c2)
    return loss if loss.ndim else float(loss)


def _by_band(d, edge0, edge1, v0, v1, v2, dtype=float):
    """v0 where d < edge0, else v1 where d < edge1, else v2 (a new array)."""
    out = np.full(d.shape, v2, dtype=dtype)
    np.copyto(out, v1, where=d < edge1)
    np.copyto(out, v0, where=d < edge0)
    return out


def mean_rx_power(d, p: PhyConfig, tx_power: float):
    """Deterministic mean received power in dBm; strictly decreasing in d."""
    loss = path_loss_db(d, p)
    if np.ndim(loss):
        return np.subtract(tx_power, loss, out=loss)   # path_loss_db made this array
    return tx_power - loss


def shape_band(d, p: PhyConfig):
    """The Nakagami shape band of each distance: 0 below d0_m, 1 below d1_m,
    else 2 (uint8 array)."""
    return _by_band(np.asarray(d, dtype=float), p.d0_m, p.d1_m, 0, 1, 2, np.uint8)


def shape_table(p: PhyConfig):
    """The Nakagami shape of each band, indexed by `shape_band`."""
    return np.array([p.m0, p.m1, p.m2])


def shape_m(d, p: PhyConfig):
    """Nakagami shape factor by distance band. Accepts arrays."""
    m = shape_table(p).take(shape_band(d, p))
    return m if np.ndim(m) else float(m)


def dbm_to_mw(dbm, out=None):
    """Power in mW of `dbm`; an array result may be written into `out`."""
    mw = np.divide(np.asarray(dbm, dtype=float), 10.0, out=out)
    return np.power(10.0, mw, out=mw if np.ndim(mw) else None)


def sample_rx_power(rng, mean_mw, shape):
    """Gamma-distributed received power sample(s) in mW around a link budget.

    shape = m, scale = mean_mw / m, so E[X] = mean_mw and Var[X] = mean_mw^2 / m.
    Samples are i.i.d. per call. Bit for bit this equals `rng.gamma(shape, scale)`:
    numpy draws a gamma as scale times a standard gamma, and this form skips
    gamma's check of the scale argument.
    """
    return rng.standard_gamma(shape) * (mean_mw / shape)


def calibrate_range(p: PhyConfig) -> float:
    """tx_power (dBm) such that mean received power at target_range equals rx_threshold."""
    return p.rx_threshold + path_loss_db(p.target_range, p)


def frame_outcome_mw(power_mw: float, node: int, overlapping, threshold_mw: float,
                     capture_ratio: float, collisions: bool) -> str:
    """Reception decision for one frame at receiver `node`, in linear units.

    Fading below the reception threshold; collision when a time-overlapping
    transmission's sampled power at `node` is within the capture ratio of this
    frame's power; received otherwise. A transmission
    sent by `node` itself holds an infinite power there, so a receiver that
    was sending always loses the frame (half-duplex). With `collisions` off
    only those own transmissions count.
    """
    if power_mw < threshold_mw:
        return OUTCOME_FADING
    for other in overlapping:
        if other.sample_mw[node] * capture_ratio >= power_mw and (
                collisions or other.sender == node):
            return OUTCOME_COLLISION
    return OUTCOME_RECEIVED


def broadcast_outcomes_mw(sample_mw, hearers, overlapping, threshold_mw: float,
                          capture_ratio: float, collisions: bool) -> list:
    """`frame_outcome_mw` at every hearer of one broadcast, threshold first.

    `sample_mw` is the frame's power at each node and `hearers` the ascending
    ids that hear it (arrays). The threshold test of `frame_outcome_mw` is made
    for all hearers in one array step: a hearer below it loses the frame to
    fading. Only the hearers at or above it are decided by `frame_outcome_mw`;
    their (node, outcome) pairs are returned in hearer order, and every hearer
    not among them has outcome fading.
    """
    above = hearers[sample_mw[hearers] >= threshold_mw]
    return [(node, frame_outcome_mw(power, node, overlapping, threshold_mw,
                                    capture_ratio, collisions))
            for node, power in zip(above.tolist(), sample_mw[above].tolist())]
