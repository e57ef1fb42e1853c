"""Test-side references: objects of the paper that only tests construct.

The library keeps what a command reaches.  These helpers build the
paper's other objects from library parts, for the tests to check the
library against: general cocycles with their orbit matrices, the
Schrodinger cocycle as a matrix-valued series, the cocycle iterate A_n
with its stack product, constant cocycles, the single-orbit rotation
number, the single-phase truncated operator with its dense matrix, and
the Moser-Poschel determinant surrogate at a gap edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qpspec import mat2
from qpspec.kam import MoserPoschelData
from qpspec.qpcore import FourierSeries, Frequency, dist_to_int
from qpspec.rotnum import orbit_product
from qpspec.spectrum import TruncatedOperator

_LOG_MAX = math.log(np.finfo(float).max)
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


def schrodinger_series(V: FourierSeries, E: float) -> FourierSeries:
    """The matrix series [[E - V(theta), -1], [1, 0]] of V's modes."""
    if V.is_matrix:
        raise ValueError("potential must be scalar-valued")
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
    return FourierSeries.from_arrays(V.dim, V.radius, modes, values)


def schrodinger_cocycle(V: FourierSeries, E: float, freq: Frequency) -> Cocycle:
    """Transfer-matrix cocycle [[E - V(theta), -1], [1, 0]]."""
    return Cocycle(freq, schrodinger_series(V, E), is_schrodinger=True)


def constant_cocycle(freq: Frequency, a) -> Cocycle:
    """The cocycle (alpha, A) with A constant on the torus."""
    a = np.asarray(a, dtype=float)
    zero = tuple([0] * freq.dim)
    return Cocycle(freq, FourierSeries(freq.dim, 0, {zero: a.astype(complex)}))


def stack_product(mats):
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


def iterate(c: Cocycle, theta, n: int):
    """n-th iterate at theta; identity at n = 0, inverse chain for n < 0.

    A_n(theta) = A(theta + (n-1) alpha) ... A(theta); for n < 0 the steps
    are A(theta - k alpha)^{-1}, k = 1, ..., |n|.  theta is one point, of
    shape () or (dim,).  Raises OverflowError when the iterate's norm
    exceeds the float range.
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
    prod, e, log_norm = stack_product(mats)
    if not log_norm <= _LOG_MAX:
        raise OverflowError(f"iterate n={n}: log-norm {float(log_norm):.4g} "
                            "exceeds the float range")
    return np.ldexp(prod, e)


@dataclass(frozen=True)
class RotationEstimate:
    rho: float
    iterations: int
    error: float


def rotation_from_orbit(mats, schrodinger: bool = False) -> RotationEstimate:
    """Rotation estimate from orbit matrices of shape (n, 2, 2), n >= 2.

    Walks v = e1 along the orbit on Python floats and sums the advance of
    its angle, the principal atan2 of (v x w, v . w) for its image w, with
    a subtotal after n // 2 steps for the error estimate.  Schrodinger
    orbits lift each advance into the window (-pi/2, 3 pi/2], which
    transfer matrices never leave, and fold rho into [0, 1/2]; general
    cocycles unwrap it against a running mean advance, as their steps
    drift by a constant angle, and report rho in [0, 1).
    """
    a, b, c, d = np.moveaxis(np.reshape(mats, (-1, 4)), -1, 0).tolist()
    v0, v1 = 1.0, 0.0
    n = len(a)
    total = half_total = mean = 0.0
    for k in range(n):
        w0, w1 = a[k] * v0 + b[k] * v1, c[k] * v0 + d[k] * v1
        delta = math.atan2(v0 * w1 - v1 * w0, v0 * w0 + v1 * w1)
        if schrodinger:
            delta += 2.0 * math.pi * (delta <= -0.5 * math.pi)
        elif k < min(64, n):
            mean += (delta - mean) / (k + 1)
        else:
            delta += 2.0 * math.pi * round((mean - delta) / (2.0 * math.pi))
            mean += 0.02 * (delta - mean)
        total = total + delta
        norm = math.hypot(w0, w1)
        v0, v1 = w0 / norm, w1 / norm
        if k + 1 == n // 2:
            half_total = total
    rho = (total / (2.0 * math.pi * n)) % 1.0
    rho_half = (half_total / (2.0 * math.pi * (n // 2))) % 1.0
    err = dist_to_int(rho - rho_half)
    if schrodinger:
        rho = np.minimum(rho, 1.0 - rho)
    return RotationEstimate(float(rho), n, float(err))


def rotation_number(c: Cocycle, theta0, n_iters: int) -> RotationEstimate:
    """Average projective-angle advance of a Cocycle along one orbit, mod Z.

    Schrodinger cocycles are folded into [0, 1/2]; general cocycles report
    the representative in [0, 1).
    """
    if n_iters < 1000:
        raise ValueError("n_iters >= 1000 required")
    mats = c.orbit_matrices(theta0, n_iters)
    return rotation_from_orbit(mats, schrodinger=c.is_schrodinger)


def truncated_operator(V: FourierSeries, freq: Frequency, theta,
                       L: int) -> TruncatedOperator:
    """The truncation to [-L, L] at the single phase theta."""
    pts = freq.orbit(theta, np.arange(-L, L + 1))
    return TruncatedOperator(L, np.asarray(V.evaluate(pts), dtype=float))


def dense(h: TruncatedOperator) -> np.ndarray:
    """The symmetric tridiagonal matrix of a single-phase truncation."""
    if h.diag.ndim != 1:
        raise ValueError("dense() needs a single-phase operator")
    m = np.diag(h.diag)
    off = np.ones(h.size - 1)
    m += np.diag(off, 1) + np.diag(off, -1)
    return m


def d_of_delta(mp: MoserPoschelData, delta: float) -> float:
    """The determinant surrogate d_lin * delta + d_quad * delta^2."""
    return mp.d_lin * delta + mp.d_quad * delta * delta


def det_identity_defect(mp: MoserPoschelData, delta: float) -> float:
    """Two-sided evaluation gap of the determinant identity
    det(b0 - delta b1) + (delta zeta [X11^2])^2 / 4 = d_of_delta(delta)."""
    direct = float(np.linalg.det(mp.b0 - delta * mp.b1)) \
        + 0.25 * delta * delta * mp.zeta ** 2 * mp.x11_sq ** 2
    return abs(direct - d_of_delta(mp, delta))
