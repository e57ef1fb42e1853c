"""Quasi-periodic SL(2,R) cocycles: construction, iteration, hyperbolicity.

A cocycle is a pair (alpha, A) with alpha a torus translation vector and
A a matrix-valued function on the torus.  The n-th iterate is the ordered
product A(theta + (n-1) alpha) ... A(theta); negative iterates multiply
the inverted single steps A(theta - k alpha)^{-1}, k = 1, ..., |n|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mat2
from .qpcore import FourierSeries, Frequency, phase_samples
from .rotnum import matrix_step, projective_walk

__all__ = [
    "Cocycle",
    "HyperbolicityVerdict",
    "constant_cocycle",
    "rotation_cocycle",
    "schrodinger_cocycle",
    "iterate",
    "uniform_hyperbolicity_test",
]

_DET_TOL = 1e-9
_RENORM_EVERY = 64
_LOG_MAX = math.log(np.finfo(float).max)


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
        vals = self.map_series.evaluate(self.map_series.grid_points())
        defect = np.abs(mat2.det2(vals) - 1.0).max()
        if defect > _DET_TOL:
            raise ValueError(f"det deviates from 1 by {defect:.3e} on grid")

    def matrix(self, theta):
        """Evaluate the map at one phase or an array of phases."""
        return self.map_series.evaluate(theta)

    def orbit_matrices(self, theta0, n):
        """Map values along theta0, theta0+alpha, ..., theta0+(n-1)alpha.

        One phase gives shape (n, 2, 2); a stack of phases, shape
        (..., dim), gives (..., n, 2, 2).
        """
        return self.map_series.evaluate(self.freq.orbit(theta0, np.arange(n)))


def constant_cocycle(freq: Frequency, a) -> Cocycle:
    a = np.asarray(a, dtype=float)
    zero = tuple([0] * freq.dim)
    return Cocycle(freq, FourierSeries(freq.dim, 0, {zero: a.astype(complex)}))


def rotation_cocycle(freq: Frequency, phi: float) -> Cocycle:
    return constant_cocycle(freq, mat2.rotation(phi))


def schrodinger_cocycle(V: FourierSeries, E: float, freq: Frequency) -> Cocycle:
    """Transfer-matrix cocycle [[E - V(theta), -1], [1, 0]]."""
    if V.is_matrix:
        raise ValueError("potential must be scalar-valued")
    if V.dim != freq.dim:
        raise ValueError("potential and frequency dimension mismatch")
    if V.period != 1:
        raise ValueError("potential must be a full-period series")
    coeffs = {}
    for n, c in V.coeffs.items():
        m = np.zeros((2, 2), dtype=complex)
        m[0, 0] = -c
        coeffs[n] = m
    zero = tuple([0] * V.dim)
    base = coeffs.setdefault(zero, np.zeros((2, 2), dtype=complex))
    base[0, 0] += E
    base[0, 1] = -1.0
    base[1, 0] = 1.0
    series = FourierSeries(V.dim, max(V.radius, 0), coeffs)
    return Cocycle(freq, series, is_schrodinger=True)


def _ordered_product(mats):
    """Product mats[n-1] ... mats[0] of an (n, [lanes,] 2, 2) stack.

    Returns (P, log_scale) with the product P * exp(log_scale): P is
    renormalized to unit norm every _RENORM_EVERY steps and at the end.
    """
    n = mats.shape[0]
    prod = np.broadcast_to(np.eye(2), mats.shape[1:]).copy()
    log_scale = np.zeros(mats.shape[1:-2])
    for k in range(n):
        prod = mats[k] @ prod
        if (k + 1) % _RENORM_EVERY == 0 or k == n - 1:
            scale = mat2.norm2(prod)
            prod = prod / scale[..., None, None]
            log_scale += np.log(scale)
    return prod, log_scale


def iterate(c: Cocycle, theta, n: int):
    """n-th cocycle iterate at theta; identity at n = 0, inverse chain for n < 0.

    theta is one point, of shape () or (dim,).  Raises OverflowError when
    the iterate's norm exceeds the float range.
    """
    if np.shape(theta) not in ((), (c.freq.dim,)):
        raise ValueError(f"iterate needs one phase of shape () or "
                         f"({c.freq.dim},), got shape {np.shape(theta)}")
    n = int(n)
    if n == 0:
        return np.eye(2)
    if n > 0:
        mats = c.orbit_matrices(theta, n)
    else:  # step k applies A(theta - (k + 1) alpha)^-1
        mats = mat2.inv2(c.orbit_matrices(c.freq.orbit(theta, n), -n)[::-1])
    prod, log_scale = _ordered_product(mats)
    if not log_scale <= _LOG_MAX:
        raise OverflowError(f"iterate n={n}: log-norm {float(log_scale):.4g} "
                            "exceeds the float range")
    return prod * math.exp(log_scale)


# ---------------------------------------------------------------------------
# finite-orbit hyperbolicity verdict

_CONE_SLOPE = 2.0
_CONE_MARGIN = 0.05
_WINDING_THRESHOLD = 4.0 * math.pi


@dataclass(frozen=True)
class HyperbolicityVerdict:
    verdict: str  # uniformly_hyperbolic | not_uniform | inconclusive
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
    """Cone-field certificate with a projective-winding fallback.

    The fixed cone |slope| <= 2 must map strictly inside itself, with the
    margin 0.05, under the orbit-length product from every sampled phase.
    Sustained projective rotation instead yields not_uniform.  Everything
    else is reported as inconclusive; in particular the certificate cannot
    see hyperbolicity inside gaps whose invariant directions wind around
    projective space, and energies just past a spectral edge resolve only
    once the expanding/contracting directions separate beyond the cone.
    """
    if phases < 1:
        raise ValueError("phases >= 1 required")
    if orbit < 10:
        raise ValueError("orbit >= 10 required")
    theta = phase_samples(c.freq.dim, phases)
    mats = np.moveaxis(c.orbit_matrices(theta, orbit), 1, 0)
    winding = projective_walk(matrix_step(mats), np.ones(phases),
                              np.zeros(phases), orbit, None)[0]
    prod, log_scale = _ordered_product(mats)
    growth = float(np.min(log_scale) / orbit)
    cone_margin = min(_cone_image_margin(prod[p]) for p in range(phases))

    if cone_margin >= _CONE_MARGIN:
        verdict = "uniformly_hyperbolic"
    elif np.abs(winding).max() >= _WINDING_THRESHOLD:
        verdict = "not_uniform"
    else:
        verdict = "inconclusive"
    return HyperbolicityVerdict(verdict, orbit, growth, cone_margin)
