"""Quasi-periodic SL(2,R) cocycles: construction and hyperbolicity.

A cocycle is a pair (alpha, A) with alpha a torus translation vector and
A a matrix-valued function on the torus.  The n-th iterate is the ordered
product A(theta + (n-1) alpha) ... A(theta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mat2
from .qpcore import FourierSeries, Frequency, phase_samples
from .rotnum import orbit_product

__all__ = [
    "Cocycle",
    "HyperbolicityVerdict",
    "schrodinger_cocycle",
    "uniform_hyperbolicity_test",
]

_DET_TOL = 1e-9


@dataclass(frozen=True)
class Cocycle:
    """Immutable pair of a frequency and an SL(2,R)-valued series."""

    freq: Frequency
    map_series: FourierSeries
    is_schrodinger: bool = False

    def __post_init__(self):
        if not self.map_series.is_matrix:
            raise ValueError("cocycle map must be matrix-valued")
        if self.map_series.dim != self.freq.dim:
            raise ValueError("frequency and map dimension mismatch")
        vals = self.map_series.on_mesh()
        defect = np.abs(mat2.det2(vals) - 1.0).max()
        if defect > _DET_TOL:
            raise ValueError(f"det deviates from 1 by {defect:.3e} on grid")

    def orbit_matrices(self, theta0, n):
        """Map values along theta0, theta0+alpha, ..., theta0+(n-1)alpha.

        One phase gives shape (n, 2, 2); a stack of phases, shape
        (..., dim), gives (..., n, 2, 2).
        """
        return self.map_series.evaluate(self.freq.orbit(theta0, np.arange(n)))


def schrodinger_cocycle(V: FourierSeries, E: float, freq: Frequency) -> Cocycle:
    """Transfer-matrix cocycle [[E - V(theta), -1], [1, 0]]."""
    if V.is_matrix:
        raise ValueError("potential must be scalar-valued")
    if V.dim != freq.dim:
        raise ValueError("potential and frequency dimension mismatch")
    if V.period != 1:
        raise ValueError("potential must be a full-period series")
    modes = V.modes
    # E and the constant entries sit on the zero mode, stored or added
    if modes.any(axis=1).all():
        modes = np.concatenate([modes, np.zeros((1, V.dim), dtype=int)])
    values = np.zeros((len(modes), 2, 2), dtype=complex)
    values[:len(V.values), 0, 0] = -V.values
    zero = ~modes.any(axis=1)
    values[zero, 0, 0] += E
    values[zero, 0, 1] = -1.0
    values[zero, 1, 0] = 1.0
    series = FourierSeries.from_arrays(V.dim, V.radius, modes, values)
    return Cocycle(freq, series, is_schrodinger=True)


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


def uniform_hyperbolicity_test(c: Cocycle, phases: int,
                               orbit: int) -> HyperbolicityVerdict:
    """Cone-field certificate of uniform hyperbolicity.

    The fixed cone |slope| <= 2 must map strictly inside itself, with the
    margin 0.05, under the orbit-length product from every sampled phase;
    one orbit_product pass gives the products, the cone margin and the
    growth exponent, the least log-norm per step over the phases.  The
    certificate is sufficient only: it cannot see hyperbolicity inside
    gaps whose invariant directions wind around projective space, and
    energies just past a spectral edge certify only once the expanding
    and contracting directions separate beyond the cone.
    """
    if phases < 1:
        raise ValueError("phases >= 1 required")
    if orbit < 10:
        raise ValueError("orbit >= 10 required")
    theta = phase_samples(c.freq.dim, phases)
    mats = np.moveaxis(c.orbit_matrices(theta, orbit), 1, 0)
    prod, _, log_norm = _product(mats)
    growth = float(np.min(log_norm) / orbit)
    cone_margin = min(_cone_image_margin(prod[p]) for p in range(phases))
    return HyperbolicityVerdict(cone_margin >= _CONE_MARGIN, orbit, growth,
                                cone_margin)
