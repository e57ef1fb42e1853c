"""Fibered rotation numbers, conjugacy degrees, and the conjugation shift rule.

The rotation number of a cocycle homotopic to the identity is the average
angular advance of the projective action along a single orbit; unique
ergodicity of the torus translation makes the orbit average independent of
the starting phase.  Conjugacies on the doubled torus shift the rotation
number by half the frequency pairing with their winding degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mat2
from .errors import DegreeError
from .qpcore import FourierSeries, Frequency, dist_to_int

__all__ = [
    "RotationEstimate",
    "rotation_number",
    "rotation_from_orbit",
    "projective_walk",
    "matrix_step",
    "schrodinger_rotation_grid",
    "rotation_series",
    "degree",
    "conjugated_rotation",
    "rotation_perturbation_bound_check",
]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class RotationEstimate:
    rho: float
    iterations: int
    error: float


def projective_walk(step, v0, v1, n: int, lift):
    """Lifted projective angle swept by v = (v0, v1) along n orbit steps.

    step(k, v0, v1) returns the image of v under the k-th orbit matrix; v0
    and v1 are floats for one orbit or arrays for lanes.  Returns (total,
    half_total, half_at): the summed advance and its subtotal after the
    first half_at = n // 2 steps.  Branch of each advance, by lift:
    "transfer" takes the window (-pi/2, 3pi/2), which transfer matrices
    never leave (forward rotation in the elliptic zone, a near-pi flip
    below the spectrum); "mean" unwraps against a running mean advance,
    for general cocycles whose steps drift by a constant angle; None keeps
    the principal branch.
    """
    if np.ndim(v0):  # lanes: emitted grid rotation numbers pin np.arctan2
        atan2, hypot, rint = np.arctan2, np.hypot, np.rint
    else:  # one orbit: Python-float math beats numpy scalar ufuncs
        atan2, hypot, rint = math.atan2, math.hypot, round
    total = half_total = mean = 0.0
    half_at = n // 2
    warmup = min(64, n)
    for k in range(n):
        w0, w1 = step(k, v0, v1)
        delta = atan2(v0 * w1 - v1 * w0, v0 * w0 + v1 * w1)
        if lift == "transfer":
            delta += _TWO_PI * (delta <= -0.5 * math.pi)
        elif lift == "mean":
            if k < warmup:
                mean += (delta - mean) / (k + 1)
            else:
                delta += _TWO_PI * rint((mean - delta) / _TWO_PI)
                mean += 0.02 * (delta - mean)
        total = total + delta  # a new object, so half_total stays a snapshot
        norm = hypot(w0, w1)
        v0, v1 = w0 / norm, w1 / norm
        if k + 1 == half_at:
            half_total = total
    return total, half_total, half_at


def matrix_step(mats):
    """projective_walk step for orbit matrices (n, 2, 2) or (n, lanes, 2, 2)."""
    mats = np.asarray(mats, dtype=float)
    entries = np.moveaxis(mats.reshape(mats.shape[:-2] + (4,)), -1, 0)
    # one orbit walks on Python floats, read from flat per-entry lists
    a, b, c, d = entries.tolist() if mats.ndim == 3 else entries
    return lambda k, v0, v1: (a[k] * v0 + b[k] * v1, c[k] * v0 + d[k] * v1)


def _estimate(total, half_total, half_at, n, fold):
    """(rho mod 1, half-orbit error) of a walk; fold maps rho into [0, 1/2]."""
    rho = (total / (_TWO_PI * n)) % 1.0
    rho_half = (half_total / (_TWO_PI * half_at)) % 1.0
    err = dist_to_int(rho - rho_half)
    if fold:
        rho = np.minimum(rho, 1.0 - rho)
    return rho, err


def rotation_from_orbit(mats, schrodinger: bool = False) -> RotationEstimate:
    """Rotation estimate from precomputed orbit matrices of shape (n, 2, 2)."""
    n = mats.shape[0]
    walk = projective_walk(matrix_step(mats), 1.0, 0.0, n,
                           "transfer" if schrodinger else "mean")
    rho, err = _estimate(*walk, n, schrodinger)
    return RotationEstimate(float(rho), n, float(err))


def rotation_number(c, theta0, n_iters: int) -> RotationEstimate:
    """Average projective-angle advance of a Cocycle along one orbit, mod Z.

    Schrodinger cocycles are folded into [0, 1/2]; general cocycles report
    the representative in [0, 1).
    """
    if n_iters < 1000:
        raise ValueError("n_iters >= 1000 required")
    mats = c.orbit_matrices(theta0, n_iters)
    return rotation_from_orbit(mats, schrodinger=c.is_schrodinger)


def schrodinger_rotation_grid(V: FourierSeries, freq: Frequency, energies,
                              theta0=0.0, n_iters: int = 20000):
    """Folded rotation numbers for a grid of energies via lane tracking.

    The potential is sampled once along the orbit; the transfer-matrix
    action on each lane reduces to scalar arithmetic, so the cost is one
    pass of length n_iters regardless of the number of energies.
    """
    energies = np.asarray(energies, dtype=float)
    v_orbit = V.evaluate(freq.orbit(theta0, np.arange(n_iters))).tolist()
    lanes = energies.shape[0]
    walk = projective_walk(
        lambda k, v0, v1: ((energies - v_orbit[k]) * v0 - v1, v0),
        np.ones(lanes), np.zeros(lanes), n_iters, "transfer")
    return _estimate(*walk, n_iters, True)


def rotation_series(n_vec) -> FourierSeries:
    """Matrix series of theta -> R_{<n, theta>/2} on the doubled torus."""
    n_vec = tuple(int(x) for x in np.atleast_1d(n_vec))
    dim = len(n_vec)
    plus = 0.5 * np.array([[1.0, 1j], [-1j, 1.0]])
    if all(x == 0 for x in n_vec):
        return FourierSeries(dim, 0, {n_vec: np.eye(2, dtype=complex)},
                             period=2)
    minus_vec = tuple(-x for x in n_vec)
    coeffs = {n_vec: plus, minus_vec: np.conj(plus)}
    return FourierSeries(dim, max(abs(x) for x in n_vec), coeffs, period=2)


def degree(B: FourierSeries, freq: Frequency):
    """Winding degree of a conjugacy on the doubled torus.

    Returns the integer vector n such that B is homotopic to
    R_{<n, theta>/2}: the first column of B winds n_i half-turns as
    theta_i crosses one period of the doubled cover.
    """
    if not B.is_matrix:
        raise ValueError("degree needs a matrix-valued series")
    dim = B.dim
    span = float(B.period)
    grid_n = max(256, 8 * B.radius + 1)
    degs = []
    for axis in range(dim):
        pts = np.zeros((grid_n + 1, dim))
        pts[:, axis] = np.linspace(0.0, span, grid_n + 1)
        vals = B.evaluate(pts)
        col = vals[:, :, 0]
        norms = np.hypot(col[:, 0], col[:, 1])
        if norms.min() < 1e-8:
            raise DegreeError("first column of the conjugacy degenerates "
                              f"along axis {axis}")
        ang = np.arctan2(col[:, 1], col[:, 0])
        dps = np.diff(ang)
        dps = (dps + math.pi) % (2.0 * math.pi) - math.pi
        total = dps.sum() * (2.0 / span)
        deg = round(total / _TWO_PI)
        if abs(total / _TWO_PI - deg) > 0.25:
            raise DegreeError(f"winding {total / _TWO_PI:.3f} along axis "
                              f"{axis} is not close to an integer")
        degs.append(int(deg))
    return tuple(degs)


def conjugated_rotation(rho_in: float, B_degree, freq: Frequency) -> float:
    """Rotation number after conjugating by a degree-n map: shift by <n,a>/2."""
    shift = 0.5 * float(np.dot(np.atleast_1d(B_degree),
                               np.asarray(freq.vec)))
    return (rho_in - shift) % 1.0


def rotation_perturbation_bound_check(A: FourierSeries, phi: float,
                                      freq: Frequency, n_iters: int = 100000,
                                      theta0=0.0) -> dict:
    """Measure |rho(A) - phi| against the sup distance of A from R_phi.

    A need not have exactly unit determinant (perturbations of a rotation
    are accepted), but the projective action must preserve orientation.
    """
    mats = A.evaluate(freq.orbit(theta0, np.arange(n_iters)))
    dets = mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]
    if dets.min() <= 0:
        raise ValueError("orientation-reversing map has no rotation number")
    est = rotation_from_orbit(mats, schrodinger=False)

    grid = A.grid_points()
    diff = A.evaluate(grid) - mat2.rotation(phi)
    sup = float(mat2.norm2(diff).max())
    lhs = float(dist_to_int(est.rho - phi))
    return {
        "rho": est.rho,
        "phi": phi,
        "lhs": lhs,
        "rhs": sup,
        "slack": sup - lhs,
        "holds": bool(lhs <= sup + 1e-9),
        "iterations": n_iters,
        "rho_error": est.error,
    }
