"""Fibered rotation numbers, conjugacy degrees, and the conjugation shift rule.

The rotation number of a cocycle homotopic to the identity is the average
angular advance of the projective action along a single orbit; unique
ergodicity of the torus translation makes the orbit average independent of
the starting phase.  Conjugacies on the doubled torus shift the rotation
number by half the frequency pairing with their winding degree.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegreeError
from .qpcore import FourierSeries, Frequency, array_elements, dist_to_int

__all__ = [
    "orbit_product",
    "schrodinger_rotation_grid",
    "rotation_series",
    "degree",
    "conjugated_rotation",
]

_TWO_PI = 2.0 * math.pi
# a transfer step advances a vector's angle by a value in the window
# (_LIFT_LO, _LIFT_LO + 2 pi]: forward rotation in the elliptic zone, a
# near-pi flip below the spectrum
_LIFT_LO = -0.5 * math.pi
# orbit segments of the energy-grid walk, and the shortest one worth cutting
_SEGMENTS = 50
_MIN_SEGMENT = 64


def _estimate(total, half_total, half_at, n):
    """(rho folded into [0, 1/2], half-orbit error) of a walk."""
    rho = (total / (_TWO_PI * n)) % 1.0
    rho_half = (half_total / (_TWO_PI * half_at)) % 1.0
    err = dist_to_int(rho - rho_half)
    return np.minimum(rho, 1.0 - rho), err


def _segment_cuts(n: int) -> list:
    """Boundaries of the grid's orbit segments; n // 2 is always one.

    Each half of the orbit gets up to _SEGMENTS // 2 segments of at least
    _MIN_SEGMENT steps (one segment when the half is shorter).
    """
    half = n // 2
    cuts = [0]
    for lo, hi in ((0, half), (half, n)):
        count = max(1, min(_SEGMENTS // 2, (hi - lo) // _MIN_SEGMENT))
        cuts += [lo + (hi - lo) * i // count for i in range(1, count + 1)]
    return cuts


def orbit_product(step, P0, n: int, grow: float, axes=(-2, -1)):
    """Ordered product of n orbit steps as (P, e): the product is P * 2**e.

    P0 is a stack of matrices whose matrix axes are axes; step(k, P)
    returns the product after step k, as an array or as the sequence of
    its first-axis slices.  e holds one integer per lane.  A step moves a
    lane's largest entry by a factor within [1/grow, grow], grow > 1, so
    every max(1, int(600 ln 2 / ln grow)) steps each lane is scaled by the
    power of two that brings that entry into [1/2, 1): exact, so when it
    runs never changes a bit; entries stay within 2**-601 .. 2**600.
    """
    interval = max(1, int(600.0 * math.log(2.0) / math.log(grow)))
    P, e = P0, np.zeros(np.delete(np.shape(P0), axes), dtype=int)
    for k in range(n):
        P = step(k, P)
        if (k + 1) % interval == 0:
            shift = np.frexp(np.abs(P).max(axis=axes))[1]
            P = np.ldexp(P, -np.expand_dims(shift, axes))
            e = e + shift
    return np.asarray(P), e


def _lift(last, x, y):
    """(principal angle of (x, y), lift): lift marks the lanes where that
    angle minus last needs one turn up to enter the transfer window.

    The grid's one arctan2, run after its pass: it gives the principal
    angle of each product's column e1 (last unused) and, in _winding_from,
    the turn of arg(P u) - angle, a difference c or c - 2 pi with c in
    [0, pi] that never passes the window's top.  The pass itself counts
    e1's turns from sign bits (schrodinger_rotation_grid).
    """
    new = np.arctan2(y, x)
    return new, new - last <= _LIFT_LO


def _winding_from(P, angle, turns, u0, u1):
    """(P u, winding of u under P) per lane, in closed form.

    P = (a, b, c, d) is a product of transfer steps whose column e1 wound
    angle + 2 pi turns, angle being the principal angle of (a, c).  The
    lift F of P is increasing with F(t + pi) = F(t) + pi, so with u
    flipped into the upper half-plane (a sign bit, so arg u is in [0, pi])
    F(arg u) - F(0) lies in [0, pi]: it is arg(P u) - angle up to the one
    turn that _lift finds.
    """
    a, b, c, d = P
    flip = np.signbit(u1)
    u0, u1 = np.where(flip, -u0, u0), np.where(flip, -u1, u1)
    w0, w1 = a * u0 + b * u1, c * u0 + d * u1
    arg_w, lift = _lift(angle, w0, w1)
    return w0, w1, arg_w + _TWO_PI * (turns + lift) - _lift(0.0, u0, u1)[0]


def schrodinger_rotation_grid(V: FourierSeries, freq: Frequency, energies,
                              n_iters: int = 20000):
    """Folded rotation numbers for a grid of energies via lane tracking.

    The potential is sampled once along the orbit of phase 0, cut into up
    to _SEGMENTS contiguous segments (n_iters // 2 is a cut); every
    (segment, energy) pair is one lane, so the one pass takes about
    n_iters / _SEGMENTS steps.  The pass carries both columns of each
    segment's transfer product P_s and counts the turns of column e1;
    after it, e1's winding is its principal angle (one arctan2 per lane)
    plus 2 pi per turn.  A serial stitch over the segments then finds each
    segment's start u_s on the one orbit as P_{s-1} u_{s-1} and corrects
    e1's winding to the winding from u_s in closed form (_winding_from),
    with no second walk.  The windings are summed in segment order.

    The turns.  A step maps e1 = (a, c) to ((E - v) a - c, a) and advances
    its angle within the window (-pi/2, 3 pi/2], so it needs one turn up
    exactly when its principal difference is at most -pi/2.  arctan2 puts
    (x, y) in [0, pi] or [-pi, 0] by the sign bit of y, and the image's y
    is a, so by the sign bits of a and c (the column is never 0):
    - a's clear: arg e1 in [-pi/2, pi/2] goes to [0, pi], and the edge
      pair (pi/2, 0) is out, as (+0.0, c > 0) goes to (-c, +0.0) at pi;
    - a's and c's set: [-pi, -pi/2] goes to [-pi, 0], and (-0.0, c < 0)
      goes to (-c, -0.0) at -0.0, not to -pi;
    - a's set and c's clear, the closed second quadrant with (-0.0, c > 0)
      in it: [pi/2, pi] goes to [-pi, 0), always one turn.
    So a turn is u_k, the solution in a, changing sign from + to -, the
    Sturm oscillation behind N = 1 - 2 rho.  Rounding moves an arctan2
    difference onto the edge only for |E - v| beyond about 1e16, where
    the sign bits stay exact.  Exact power-of-two rescales keep every sign
    bit and the final angle.  Segments shorter than the longest take
    identity steps at the tail, which stand still and never turn, so the
    count is masked there.
    """
    if n_iters < 2:
        raise ValueError("n_iters >= 2 required")
    energies = np.asarray(energies, dtype=float)
    cuts = np.array(_segment_cuts(n_iters))
    array_elements(f"{energies.size} energies on {len(cuts) - 1} segments",
                   energies.size * (len(cuts) - 1))
    v_orbit = V.evaluate(freq.orbit(0.0, np.arange(n_iters)))
    starts, lengths = cuts[:-1, None], np.diff(cuts)[:, None]
    n_steps = int(lengths.max())
    steps = np.arange(n_steps)
    # v_table[k] holds v at step k of every segment; a segment shorter
    # than k + 1 steps is inactive and takes the identity, whose advance is
    # exactly 0
    v_table = v_orbit[np.minimum(starts + steps, n_iters - 1)].T[..., None]
    active = (steps < lengths).T[..., None]
    full = int(lengths.min())
    shape = (len(lengths), len(energies))
    ev, prod = np.empty(shape), np.empty((2,) + shape)

    # the new row (a, b) goes over the old row (c, d), which the step
    # shifts out, so a full step allocates nothing
    def step(k, v0, v1):
        np.multiply(np.subtract(energies, v_table[k], out=ev), v0, out=prod)
        if k < full:
            return np.subtract(prod, v1, out=v1), v0
        w0 = prod - v1
        return np.where(active[k], w0, v0), np.where(active[k], v0, v1)

    # the one pass: every segment's product, matrix axes first: the column
    # step advances both columns at once, the rows (a, b) and (c, d) as
    # (v0, v1); column e1 = (a, c) turns once in each step that it starts
    # in the closed second quadrant, sign bit of a set and of c clear, and
    # never in the identity steps of the uneven tail
    turns = np.zeros(shape, dtype=int)

    def wind(k, P):
        up = np.signbit(P[0][0]) > np.signbit(P[1][0])
        np.add(turns, up if k < full else up & active[k], out=turns)
        return step(k, *P)

    grow = float(np.abs(energies).max(initial=0.0) + np.abs(v_orbit).max()
                 + 2.0)
    eye = np.eye(2)[:, :, None, None] * np.ones(shape)
    (a, b), (c, d) = orbit_product(wind, eye, n_steps, grow, axes=(0, 1))[0]
    angle = _lift(0.0, a, c)[0]
    # the stitch: each segment starts where the orbit left the last one
    total = half_total = 0.0
    w0, w1 = np.ones(len(energies)), np.zeros(len(energies))
    for s in range(shape[0]):
        w0, w1, wound = _winding_from((a[s], b[s], c[s], d[s]), angle[s],
                                      turns[s], w0, w1)
        total = total + wound
        if cuts[s + 1] == n_iters // 2:
            half_total = total
        # any positive scale keeps the direction; a sixth of np.hypot's cost
        norm = np.maximum(abs(w0), abs(w1))
        w0, w1 = w0 / norm, w1 / norm
    return _estimate(total, half_total, n_iters // 2, n_iters)


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
        # principal branch, in [-pi, pi), of each step of the column's
        # angle; exact while every true step turns by less than pi
        steps = np.diff(np.arctan2(col[:, 1], col[:, 0]))
        total = ((steps + math.pi) % _TWO_PI - math.pi).sum() * (2.0 / span)
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
