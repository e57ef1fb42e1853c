"""Test-side references: objects of the paper that only tests construct.

The library keeps what a command reaches.  These helpers build the
paper's other objects from library parts, for the tests to check the
library against: the cocycle iterate A_n, constant cocycles, the
single-phase truncated operator with its dense matrix, and the
Moser-Poschel determinant surrogate at a gap edge.
"""

from __future__ import annotations

import math

import numpy as np

from qpspec import mat2
from qpspec.cocycle import Cocycle, _product
from qpspec.kam import MoserPoschelData
from qpspec.qpcore import FourierSeries, Frequency
from qpspec.spectrum import TruncatedOperator

_LOG_MAX = math.log(np.finfo(float).max)


def constant_cocycle(freq: Frequency, a) -> Cocycle:
    """The cocycle (alpha, A) with A constant on the torus."""
    a = np.asarray(a, dtype=float)
    zero = tuple([0] * freq.dim)
    return Cocycle(freq, FourierSeries(freq.dim, 0, {zero: a.astype(complex)}))


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
    prod, e, log_norm = _product(mats)
    if not log_norm <= _LOG_MAX:
        raise OverflowError(f"iterate n={n}: log-norm {float(log_norm):.4g} "
                            "exceeds the float range")
    return np.ldexp(prod, e)


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
