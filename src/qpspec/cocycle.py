"""The Schrodinger transfer cocycle: its matrices and a hyperbolicity test.

The transfer cocycle of the potential V at energy E is the pair (alpha,
A) with A(theta) = [[E - V(theta), -1], [1, 0]]; its n-th iterate is the
ordered product A(theta + (n-1) alpha) ... A(theta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mat2
from .qpcore import FourierSeries, Frequency, phase_samples
from .rotnum import orbit_product

__all__ = [
    "HyperbolicityVerdict",
    "transfer_matrices",
    "uniform_hyperbolicity_test",
]


def transfer_matrices(energy: float, v) -> np.ndarray:
    """Transfer matrices [[E - v, -1], [1, 0]], shape v.shape + (2, 2)."""
    mats = np.zeros(np.shape(v) + (2, 2))
    mats[..., 0, 0] = energy - v
    mats[..., 0, 1] = -1.0
    mats[..., 1, 0] = 1.0
    return mats


def _product(mats):
    """Product mats[n-1] ... mats[0] of an (n, [lanes,] 2, 2) stack.

    Returns (P, e, log_norm): the product P * 2**e and its log spectral
    norm.  For det 1 a step's sum of |entries| bounds the row sums of the
    step and of its inverse, the adjugate, so it is orbit_product's grow.
    """
    grow = float(np.abs(mats).sum(axis=(-2, -1)).max())
    P, e = orbit_product(lambda k, P: mats[k] @ P,
                         np.broadcast_to(np.eye(2), mats.shape[1:]),
                         mats.shape[0], grow)
    return P, e, np.log(mat2.norm2(P)) + e * math.log(2.0)


# ---------------------------------------------------------------------------
# finite-orbit hyperbolicity verdict

_CONE_SLOPE = 2.0
_CONE_MARGIN = 0.05


@dataclass(frozen=True)
class HyperbolicityVerdict:
    certified: bool  # cone_margin >= _CONE_MARGIN
    orbit_length: int
    growth_exponent: float
    cone_margin: float


def _cone_image_margin(prod):
    """Margin of M(cone) inside the cone, or -inf when the image wraps.

    The cone is |slope| <= 2 for directions (1, slope).  M acts on slopes by
    the Moebius map s -> (c + d s)/(a + b s); the image of the slope interval
    is an interval unless the pole -a/b lies inside, in which case the image
    passes through the vertical direction and the test fails.
    """
    a, b = prod[0, 0], prod[0, 1]
    c, d = prod[1, 0], prod[1, 1]
    lo = a - _CONE_SLOPE * b
    hi = a + _CONE_SLOPE * b
    if lo == 0.0 or hi == 0.0 or (lo > 0) != (hi > 0):
        return -math.inf
    s_lo = (c - _CONE_SLOPE * d) / lo
    s_hi = (c + _CONE_SLOPE * d) / hi
    return _CONE_SLOPE - max(abs(s_lo), abs(s_hi))


def uniform_hyperbolicity_test(V: FourierSeries, energy: float,
                               freq: Frequency, *, phases: int,
                               orbit: int) -> HyperbolicityVerdict:
    """Cone-field certificate of uniform hyperbolicity of the transfer
    cocycle of the scalar potential V at energy.

    The fixed cone |slope| <= 2 must map strictly inside itself, with the
    margin 0.05, under the orbit-length product from every sampled phase;
    one orbit_product pass gives the products, the cone margin and the
    growth exponent, the least log-norm per step over the phases.  The
    certificate is sufficient only: it cannot see hyperbolicity inside
    gaps whose invariant directions wind around projective space, and
    energies just past a spectral edge certify only once the expanding
    and contracting directions separate beyond the cone.
    """
    if V.is_matrix:
        raise ValueError("potential must be scalar-valued")
    if V.dim != freq.dim:
        raise ValueError("potential and frequency dimension mismatch")
    if V.period != 1:
        raise ValueError("potential must be a full-period series")
    if phases < 1:
        raise ValueError("phases >= 1 required")
    if orbit < 10:
        raise ValueError("orbit >= 10 required")
    theta = phase_samples(freq.dim, phases)
    v = V.evaluate(freq.orbit(theta, np.arange(orbit)))
    prod, _, log_norm = _product(transfer_matrices(energy, v.T))
    growth = float(np.min(log_norm) / orbit)
    cone_margin = min(_cone_image_margin(prod[p]) for p in range(phases))
    return HyperbolicityVerdict(cone_margin >= _CONE_MARGIN, orbit, growth,
                                cone_margin)
