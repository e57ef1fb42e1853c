"""Closed-form 2x2 real matrix algebra for SL(2,R) and its Lie algebra.

All functions broadcast over leading axes, so a field of matrices sampled on
a torus grid is handled by the same code path as a single matrix.  A
traceless x satisfies x^2 = -det(x) * I, which collapses exp and log to two
scalar coefficient functions of q = det(x):

    exp(x) = C(q) I + S(q) x,   C(q) = cos(sqrt(q)),  S(q) = sin(sqrt(q))/sqrt(q)

with the analytic continuation cosh / sinh for q < 0.  The logarithm inverts
this on the principal branch (rotation angle in (-pi, pi)); matrices with
trace <= -2 have no real traceless logarithm and are rejected.
"""

from __future__ import annotations

import numpy as np

from .errors import BranchError

_EYE = np.eye(2)


def det2(a: np.ndarray) -> np.ndarray:
    """Determinant of (..., 2, 2) arrays."""
    return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]


def trace2(a: np.ndarray) -> np.ndarray:
    return a[..., 0, 0] + a[..., 1, 1]


def inv2(a: np.ndarray) -> np.ndarray:
    """Inverse via the adjugate; callers guarantee det away from zero."""
    d = det2(a)
    out = np.empty_like(a)
    out[..., 0, 0] = a[..., 1, 1]
    out[..., 0, 1] = -a[..., 0, 1]
    out[..., 1, 0] = -a[..., 1, 0]
    out[..., 1, 1] = a[..., 0, 0]
    return out / d[..., None, None]


def norm2(a: np.ndarray) -> np.ndarray:
    """Spectral norm of (..., 2, 2) real or complex arrays, closed form.

    For a 2x2 matrix the singular values satisfy
    s1^2 + s2^2 = ||a||_F^2 and s1 s2 = |det a|.  The formula is quartic in
    the entries, so each matrix is first scaled by a power of two that
    brings its largest |entry| into [1/2, 1); that scaling is exact, and
    undoing it keeps in-range results bit for bit.
    """
    _, e = np.frexp(np.max(np.abs(a), axis=(-2, -1)))
    e = np.clip(e, -1021, 1021)
    a = a * np.ldexp(1.0, -e)[..., None, None]
    fro2 = np.sum(np.abs(a) ** 2, axis=(-2, -1))
    d = np.abs(det2(a))
    gap = np.sqrt(np.maximum(fro2 * fro2 - 4.0 * d * d, 0.0))
    return np.ldexp(np.sqrt((fro2 + gap) / 2.0), e)


def rotation(phi) -> np.ndarray:
    """Rotation by the fraction-of-turn angle phi: R_phi, angle 2*pi*phi."""
    phi = np.asarray(phi, dtype=float)
    c = np.cos(2.0 * np.pi * phi)
    s = np.sin(2.0 * np.pi * phi)
    out = np.empty(phi.shape + (2, 2))
    out[..., 0, 0] = c
    out[..., 0, 1] = -s
    out[..., 1, 0] = s
    out[..., 1, 1] = c
    return out


def project_traceless(x: np.ndarray) -> np.ndarray:
    """Remove the trace component (harmless for trace ~ 1e-16 drift)."""
    t = trace2(x) / 2.0
    out = x.copy()
    out[..., 0, 0] -= t
    out[..., 1, 1] -= t
    return out


def commutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x @ y - y @ x


def _cs_coefficients(q: np.ndarray):
    """C(q), S(q) with the analytic continuation across q = 0.

    Both are entire functions of q; near zero the power series avoids the
    0/0 in sin(w)/w.
    """
    q = np.asarray(q, dtype=float)
    small = np.abs(q) < 1e-8
    qp = np.sqrt(np.maximum(q, 0.0))
    qm = np.sqrt(np.maximum(-q, 0.0))
    with np.errstate(invalid="ignore", divide="ignore"):
        c = np.where(q >= 0.0, np.cos(qp), np.cosh(qm))
        s = np.where(q >= 0.0,
                     np.divide(np.sin(qp), np.where(qp == 0.0, 1.0, qp)),
                     np.divide(np.sinh(qm), np.where(qm == 0.0, 1.0, qm)))
    c_series = 1.0 - q / 2.0 + q * q / 24.0
    s_series = 1.0 - q / 6.0 + q * q / 120.0
    return np.where(small, c_series, c), np.where(small, s_series, s)


def exp_sl2(x: np.ndarray) -> np.ndarray:
    """Matrix exponential of traceless (..., 2, 2) arrays, closed form."""
    x = np.asarray(x, dtype=float)
    q = det2(x)
    c, s = _cs_coefficients(q)
    return c[..., None, None] * _EYE + s[..., None, None] * x


def log_sl2(a: np.ndarray) -> np.ndarray:
    """Principal traceless logarithm of (..., 2, 2) SL(2,R) arrays.

    Branches on u = trace/2:
      |u| < 1   elliptic,  x = (a - u I) * w/sin(w),  w = arccos(u) in (0, pi)
      u ~ 1     parabolic, analytic series in (1 - u)
      u > 1     hyperbolic, x = (a - u I) * w/sinh(w), w = arccosh(u)
      u <= -1   rejected: no real traceless logarithm (trace <= -2).

    exp_sl2(log_sl2(a)) == a up to roundoff on the whole domain.
    """
    a = np.asarray(a, dtype=float)
    u = trace2(a) / 2.0
    if np.any(u <= -1.0 + 1e-14):
        worst = float(np.min(u))
        raise BranchError(
            f"matrix trace {2.0 * worst:.6e} <= -2: outside the principal branch"
        )
    v = 1.0 - u
    near_par = np.abs(v) < 1e-6
    ell = (u < 1.0) & ~near_par
    hyp = (u > 1.0) & ~near_par

    factor = np.ones_like(u)
    # parabolic neighborhood: w/sin(w) composed with w = arccos(u), as a
    # series in v = 1 - u (valid on both sides of u = 1)
    factor = np.where(near_par, 1.0 + v / 3.0 + 2.0 * v * v / 15.0, factor)
    with np.errstate(invalid="ignore", divide="ignore"):
        ue = np.clip(u, -1.0, 1.0)
        w_ell = np.arccos(ue)
        f_ell = np.where(ell, w_ell / np.where(np.sin(w_ell) == 0.0, 1.0,
                                               np.sin(w_ell)), 1.0)
        uh = np.maximum(u, 1.0)
        w_hyp = np.arccosh(uh)
        f_hyp = np.where(hyp, w_hyp / np.where(np.sinh(w_hyp) == 0.0, 1.0,
                                               np.sinh(w_hyp)), 1.0)
    factor = np.where(ell, f_ell, factor)
    factor = np.where(hyp, f_hyp, factor)
    x = (a - u[..., None, None] * _EYE) * factor[..., None, None]
    return project_traceless(x)
