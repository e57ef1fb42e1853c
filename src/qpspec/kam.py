"""Quantitative reducibility engine for quasi-periodic SL(2,R) cocycles.

A cocycle close to a constant, written as theta -> A e^{f(theta)}, is
driven toward a constant by alternating two moves: a non-resonant step
solves the linearized conjugation equation mode by mode and contracts
the perturbation quadratically; a resonant step strips the single
near-resonant harmonic with a half-angle rotation twist, shifting the
fibered rotation number by <n*, alpha>/2 and recording the site.
Iterating on a doubling band schedule yields almost reducibility; at a
gap edge the limit constant is parabolic and the strictly upper
triangular form of its logarithm carries the single number zeta that
controls the local gap geometry through the Moser-Poschel step.

All conjugations are performed pointwise on FFT grids and re-expanded
as band-limited series, so every state carries an exactly checkable
residual: the defining conjugation identity is verified on a fixed
grid after every step and nothing is silently discarded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .cocycle import Cocycle, uniform_hyperbolicity_test
from .errors import (BranchError, DivergenceError, DivisorError,
                     ReductionError, ResonanceError)
from .mat2 import (commutator, det2, exp_sl2, inv2, log_sl2, norm2,
                   project_traceless, rotation, trace2)
from .qpcore import FourierSeries, Frequency, ck_norm, dist_to_int
from .rotnum import rotation_number, rotation_series

__all__ = [
    "KamState",
    "MoserPoschelData",
    "eigen_rho",
    "detect_resonance",
    "initial_state",
    "nonresonant_step",
    "resonant_step",
    "almost_reducibility_run",
    "reduce_to_parabolic",
    "moser_poschel_step",
    "mp_brackets",
    "gap_edge_bound",
    "gap_edge_step",
    "bch_log_product",
    "seeded_sl2_series",
]

_TWO_PI = 2.0 * math.pi
_DIVISOR_FLOOR = 1e-12
_START_NORM = 1e-2
_STEP_NORM = 0.1
_SIGMA = 0.1
_THRESHOLD_CAP = 5e-3
_PARABOLIC_TOL = 1e-10
_STOP_TOL = 1e-12
_RESIDUAL_TOL = 1e-7
# gap-edge reduction: schedule length and the rotation-number precheck
_EDGE_MAX_STEPS = 14
_EDGE_RHO_TOL = 5e-3
_EDGE_RHO_ITERATIONS = 20000
# largest resonance-scan ball per dimension that stays cheap to enumerate
_WINDOW_CAP = {1: 100000, 2: 1200, 3: 60}
_RESIDUAL_POINTS = {1: 256, 2: 16, 3: 7}
# quadratic-tail constant: exponent-2 instance of 8 * sum_m (2 pi m)^-p
_D_TAU = 8.0 * (math.pi ** 2 / 6.0) / (4.0 * math.pi ** 2)


# ---------------------------------------------------------------------------
# grid pipeline


def _pow2_at_least(n: int, minimum: int = 32) -> int:
    g = minimum
    while g < n:
        g *= 2
    return g


def _mesh_points(dim: int, g: int, period: int) -> np.ndarray:
    axis = np.arange(g) * (period / g)
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, dim)


def _sample(series: FourierSeries, g: int) -> np.ndarray:
    # scatter modes into a periodic buffer and synthesize by inverse FFT;
    # accumulation reproduces the aliased sum that pointwise evaluation
    # yields on this mesh, so the result is exact for any support
    shape = (g,) * series.dim
    tail = (2, 2) if series.is_matrix else ()
    buf = np.zeros(shape + tail, dtype=complex)
    for k, c in series.coeffs.items():
        buf[tuple(np.mod(k, g))] += c
    axes = tuple(range(series.dim))
    return np.fft.ifftn(buf, axes=axes) * float(g ** series.dim)


def _real_grid(vals: np.ndarray) -> np.ndarray:
    scale = 1.0 + float(np.max(np.abs(vals))) if vals.size else 1.0
    worst = float(np.max(np.abs(vals.imag))) if vals.size else 0.0
    if worst > 1e-8 * scale:
        raise ValueError(f"grid values carry imaginary residue {worst:.3e}")
    return vals.real


def _zero_sl2_series(dim: int, period: int = 1) -> FourierSeries:
    """Zero matrix series (an explicit 2x2 zero mode keeps it matrix-kind)."""
    return FourierSeries(dim, 0, {(0,) * dim: np.zeros((2, 2), complex)},
                         period)


def _extract_series(vals: np.ndarray, dim: int, radius: int,
                    period: int, noise: float = 0.0) -> FourierSeries:
    """Band-limited series from equispaced samples (one FFT, then gather).

    noise is the absolute rounding floor of the upstream computation;
    the sampled values can be far smaller than the matrices that made
    them, so a purely relative cutoff would keep a flat sea of junk
    keys and inflate the support without bound.
    """
    g = vals.shape[0]
    radius = min(radius, g // 2 - 1)
    spec = np.fft.fftn(vals, axes=tuple(range(dim))) / float(g ** dim)
    ref = float(np.max(np.abs(spec))) if spec.size else 0.0
    keep = max(1e-13 * max(ref, 1e-300), noise)
    coeffs = {}
    for n in product(range(-radius, radius + 1), repeat=dim):
        c = spec[tuple(np.mod(n, g))]
        if np.max(np.abs(c)) >= keep:
            coeffs[n] = c
    if not coeffs and vals.ndim == dim + 2:
        return _zero_sl2_series(dim, period)
    return FourierSeries(dim, radius, coeffs, period).symmetrized()


def _series_product(a: FourierSeries, b: FourierSeries) -> FourierSeries:
    if (a.dim, a.period) != (b.dim, b.period):
        raise ValueError("series product needs matching dim and period")
    ra, rb = a.support_radius(), b.support_radius()
    g = _pow2_at_least(2 * (ra + rb) + 2)
    vals = _sample(a, g) @ _sample(b, g)
    noise = 1e-14 * (1.0 + float(np.max(np.abs(vals))))
    return _extract_series(vals, a.dim, ra + rb, a.period, noise=noise)


def _lift_double(series: FourierSeries) -> FourierSeries:
    """Reindex a plain-torus series as a series on the double cover."""
    if series.period == 2:
        return series
    coeffs = {tuple(2 * v for v in k): c for k, c in series.coeffs.items()}
    return FourierSeries(series.dim, 2 * series.radius, coeffs, period=2)


def _constant_series(mat: np.ndarray, dim: int, period: int) -> FourierSeries:
    return FourierSeries(dim, 0, {(0,) * dim: np.asarray(mat, dtype=complex)},
                         period=period)


def _zero_mode(f: FourierSeries) -> np.ndarray:
    c = f.coeffs.get((0,) * f.dim)
    if c is None:
        return np.zeros((2, 2))
    return project_traceless(np.asarray(c).real)


def _perturbation_norm(f: FourierSeries) -> float:
    """Coefficient-sum bound for the sup norm; the engine's step metric."""
    return ck_norm(f, 0).upper


class _EntryGateError(DivergenceError, ValueError):
    """Start-norm gate failure; also a ValueError for direct engine callers."""


def _check_entry_gate(f: FourierSeries, what: str) -> None:
    norm0 = _perturbation_norm(f)
    if norm0 > _START_NORM:
        raise _EntryGateError(
            f"{what} norm {norm0:.3e} exceeds the reducibility entry gate "
            f"{_START_NORM:.0e}")


def _require_sl2_series(f: FourierSeries, what: str) -> None:
    if not f.is_matrix:
        raise ValueError(f"{what} must be matrix-valued")
    if f.coeffs and f.traceless_defect() > 1e-9:
        raise ValueError(f"{what} must be traceless")
    if f.reality_defect() > 1e-9:
        raise ValueError(f"{what} must satisfy the reality pairing")


def seeded_sl2_series(scale: float, radius: int, seed: int,
                      dim: int = 1) -> FourierSeries:
    """Reproducible random traceless perturbation with the given band."""
    rng = np.random.default_rng(seed)
    coeffs = {}
    for n in product(range(-radius, radius + 1), repeat=dim):
        m = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) * scale
        m = m - 0.5 * np.trace(m) * np.eye(2)
        coeffs[n] = m
    return FourierSeries(dim, radius, coeffs, 1).symmetrized()


# ---------------------------------------------------------------------------
# constants: spectral kind and resonances


def eigen_rho(A: np.ndarray) -> dict:
    """Spectral kind of an SL(2,R) constant, with rotation or growth rate.

    Elliptic: eigenvalues e^{+-2 pi i rho}, rho in (0, 1/2).  Parabolic
    (trace +-2 within 1e-10): rho = 0 or 1/2 by the sign of the trace.
    Hyperbolic: rho reports the growth rate arccosh(|trace|/2) / 2 pi.
    """
    A = np.asarray(A, dtype=float)
    t = float(trace2(A))
    if abs(abs(t) - 2.0) <= _PARABOLIC_TOL:
        return {"kind": "parabolic", "rho": 0.0 if t > 0 else 0.5}
    if abs(t) < 2.0:
        return {"kind": "elliptic", "rho": math.acos(t / 2.0) / _TWO_PI}
    return {"kind": "hyperbolic", "rho": math.acosh(abs(t) / 2.0) / _TWO_PI}


def _integer_ball(dim: int, N: int) -> np.ndarray:
    axes = [np.arange(-N, N + 1)] * dim
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack(mesh, axis=-1).reshape(-1, dim)
    return pts[np.any(pts != 0, axis=1)]


def detect_resonance(rho: float, freq: Frequency, N: int, threshold: float):
    """The unique site n*, 0 < |n| <= N, with 2 rho ~ <n, alpha> mod Z.

    Returns the minimizing n* when its defect is below the threshold,
    None otherwise.  Two sites below the threshold mean the window is
    too large for the Diophantine constants and raise.
    """
    if threshold <= 0.0:
        raise ValueError("threshold must be positive")
    if N < 1:
        raise ValueError("window must be >= 1")
    cands = _integer_ball(freq.dim, min(N, _WINDOW_CAP[freq.dim]))
    defects = dist_to_int(2.0 * rho - cands @ freq.vec)
    order = np.argsort(defects)
    best = order[0]
    if defects[best] >= threshold:
        return None
    if defects[order[1]] < threshold:
        raise ResonanceError(
            f"two resonant sites {tuple(cands[best])} and "
            f"{tuple(cands[order[1]])} below threshold {threshold:.2e}; "
            "window too large for the Diophantine constants")
    return tuple(int(v) for v in cands[best])


# ---------------------------------------------------------------------------
# state


@dataclass(frozen=True)
class KamState:
    """One rung of the reduction: constant part, perturbation, conjugacy.

    The accumulated conjugacy lives on the double cover and satisfies
    B(theta+alpha)^{-1} A0 e^{f0(theta)} B(theta) = A e^{f(theta)} up
    to the stored residual tolerance; A0, f0 are the original data of
    the run, kept so the identity stays checkable end to end.
    """

    A: np.ndarray
    f: FourierSeries
    B_accum: FourierSeries
    deg_accum: tuple
    resonant_sites: tuple
    ledger: tuple
    freq: Frequency
    A0: np.ndarray
    f0: FourierSeries
    residual_tol: float

    def rho(self) -> dict:
        return eigen_rho(self.A)

    def norm(self) -> float:
        return _perturbation_norm(self.f)

    def conjugacy_norm(self) -> float:
        return self.B_accum.sup_norm()

    def residual(self) -> float:
        """Max defect of the defining conjugation identity on the grid."""
        per = _RESIDUAL_POINTS[self.freq.dim]
        pts = _mesh_points(self.freq.dim, per, 2)
        alpha = self.freq.vec
        b_here = _real_grid(self.B_accum.evaluate_complex(pts))
        b_next = _real_grid(
            self.B_accum.shifted(alpha).evaluate_complex(pts))
        f0_vals = _real_grid(self.f0.evaluate_complex(pts))
        f_vals = _real_grid(self.f.evaluate_complex(pts))
        lhs = inv2(b_next) @ (self.A0 @ exp_sl2(f0_vals)) @ b_here
        rhs = self.A @ exp_sl2(f_vals)
        return float(np.max(norm2(lhs - rhs)))

    def check_residual(self) -> None:
        bound = self.residual_tol * (1.0 + self.conjugacy_norm() ** 2)
        defect = self.residual()
        if defect > bound:
            raise ReductionError(
                f"conjugation residual {defect:.3e} exceeds {bound:.3e}")


def initial_state(A: np.ndarray, f: FourierSeries, freq: Frequency,
                  residual_tol: float = _RESIDUAL_TOL) -> KamState:
    A = np.asarray(A, dtype=float)
    if A.shape != (2, 2) or abs(float(det2(A)) - 1.0) > 1e-9:
        raise ValueError("constant part must be a real 2x2 unimodular matrix")
    _require_sl2_series(f, "perturbation")
    if f.period != 1:
        raise ValueError("perturbation lives on the plain torus")
    if f.dim != freq.dim:
        raise ValueError("perturbation dimension does not match frequency")
    ident = _constant_series(np.eye(2), freq.dim, period=2)
    return KamState(A=A, f=f, B_accum=ident, deg_accum=(0,) * freq.dim,
                    resonant_sites=(), ledger=(), freq=freq, A0=A.copy(),
                    f0=f, residual_tol=float(residual_tol))


# ---------------------------------------------------------------------------
# pointwise conjugation helpers


def _conjugate_pointwise(A_target: np.ndarray, A_source: np.ndarray,
                         f: FourierSeries, Y: FourierSeries,
                         freq: Frequency, out_radius: int) -> FourierSeries:
    """log(A_tgt^{-1} e^{-Y(theta+alpha)} A_src e^{f} e^{Y}) as a series."""
    band = max(Y.support_radius(), f.support_radius(), 1)
    g = _pow2_at_least(2 * (3 * band + 2) + 2)
    y_here = _real_grid(_sample(Y, g))
    y_next = _real_grid(_sample(Y.shifted(freq.vec), g))
    f_vals = _real_grid(_sample(f, g))
    prod = exp_sl2(-y_next) @ A_source @ exp_sl2(f_vals) @ exp_sl2(y_here)
    logs = log_sl2(inv2(np.asarray(A_target, dtype=float)) @ prod)
    noise = 1e-14 * (1.0 + float(np.max(np.abs(prod))))
    return _extract_series(logs, f.dim, out_radius, period=1, noise=noise)


def _exp_series(Y: FourierSeries) -> FourierSeries:
    band = max(Y.support_radius(), 1)
    g = _pow2_at_least(2 * (3 * band + 2) + 2)
    vals = exp_sl2(_real_grid(_sample(Y, g)))
    noise = 1e-14 * (1.0 + float(np.max(np.abs(vals))))
    return _extract_series(vals, Y.dim, 3 * band + 2, Y.period, noise=noise)


def _absorb_average(A: np.ndarray, f: FourierSeries) -> tuple:
    """Fold the perturbation average into the constant, exactly.

    A e^{f} = (A e^{favg}) e^{f+} with f+ := log(e^{-favg} e^{f(theta)})
    pointwise, so no higher-order term is dropped.
    """
    avg = _zero_mode(f)
    if float(norm2(avg)) == 0.0:
        return A, f
    A_new = A @ exp_sl2(avg)
    band = max(f.support_radius(), 1)
    g = _pow2_at_least(2 * (2 * band + 2) + 2)
    vals = exp_sl2(-avg) @ exp_sl2(_real_grid(_sample(f, g)))
    noise = 1e-14 * (1.0 + float(np.max(np.abs(vals))))
    f_new = _extract_series(log_sl2(vals), f.dim, 2 * band, period=1,
                            noise=noise)
    return A_new, f_new


# ---------------------------------------------------------------------------
# the modewise solve and its divisor floor


def _check_divisors(modes: list, smallest, what: str) -> None:
    """The one divisor floor: raise DivisorError at the argmin mode."""
    worst = int(np.argmin(smallest))
    if smallest[worst] < _DIVISOR_FLOOR:
        raise DivisorError(modes[worst], float(smallest[worst]), what)


def _modewise_solve(modes: list, rhs: list, mats: np.ndarray, radius: int,
                    what: str) -> FourierSeries:
    """Solve mats[i] vec(y_n) = rhs[i] for every mode n = modes[i].

    The smallest singular value of each 4x4 system is its divisor; the
    floor check runs before one batched solve, and the solution is
    projected onto the real subspace.
    """
    _check_divisors(modes, np.linalg.svd(mats, compute_uv=False)[:, -1],
                    what)
    sol = np.linalg.solve(mats, np.array(rhs)[..., None])[..., 0]
    coeffs = {k: sol[i].reshape(2, 2) for i, k in enumerate(modes)}
    return FourierSeries(len(modes[0]), radius, coeffs,
                         period=1).symmetrized()


# ---------------------------------------------------------------------------
# non-resonant step


def _solve_homological(A: np.ndarray, f: FourierSeries, band: int,
                       freq: Frequency) -> FourierSeries:
    """Modewise solve of A^{-1} Y(theta+alpha) A - Y(theta) = f_osc(theta).

    Covers modes 0 < |n| <= band; anything beyond stays in the
    remainder for a later, wider solve.  Row-major vec convention:
    Y -> A^{-1} Y A has the 4x4 matrix kron(A^{-1}, A^T).
    """
    kron = np.kron(inv2(np.asarray(A, dtype=float)), np.asarray(A).T)
    modes = []
    rhs = []
    for k, c in f.coeffs.items():
        size = max(abs(v) for v in k) if any(k) else 0
        if size == 0 or size > band:
            continue
        modes.append(k)
        rhs.append(np.asarray(c).reshape(4))
    if not modes:
        return _zero_sl2_series(f.dim)
    phases = np.exp(1j * _TWO_PI * (np.array(modes, dtype=float) @ freq.vec))
    mats = phases[:, None, None] * kron[None] - np.eye(4)[None]
    return _modewise_solve(modes, rhs, mats, band,
                           "homological divisor under the safety floor; "
                           "a resonance was missed upstream")


def nonresonant_step(state: KamState, window: int, threshold: float,
                     band: int = None) -> KamState:
    """One quadratic contraction of the perturbation, no resonance allowed.

    The resonance scan covers |n| <= window; the homological solve
    covers |n| <= band (defaulting to the full stored support).  An
    inner refinement repeats the solve until the new norm beats the
    square of the old one or stalls, so the quadratic contract holds
    at practical sizes, not only asymptotically.
    """
    before = state.norm()
    if before > _STEP_NORM:
        raise ValueError(
            f"perturbation norm {before:.3e} exceeds the step guard "
            f"{_STEP_NORM:.0e}")
    info = eigen_rho(state.A)
    if info["kind"] != "hyperbolic":
        site = detect_resonance(info["rho"], state.freq, window, threshold)
        if site is not None:
            raise ResonanceError(
                f"site {site} is resonant at threshold {threshold:.2e}; "
                "use resonant_step")
    if before == 0.0:
        return state
    if band is None:
        band = max(state.f.support_radius(), 1)

    A_cur, f_cur = state.A, state.f
    conj = None
    target = before * before
    passes = 0
    prev = before
    for _ in range(6):
        passes += 1
        A_cur, f_cur = _absorb_average(A_cur, f_cur)
        Y = _solve_homological(A_cur, f_cur, band, state.freq)
        out_radius = 2 * max(f_cur.support_radius(), Y.support_radius(), 1)
        f_cur = _conjugate_pointwise(A_cur, A_cur, f_cur, Y, state.freq,
                                     out_radius)
        step = _exp_series(Y)
        conj = step if conj is None else _series_product(conj, step)
        cur = _perturbation_norm(f_cur)
        if cur <= max(target, 1e-15) or cur > 0.5 * prev:
            break
        prev = cur
    A_cur, f_cur = _absorb_average(A_cur, f_cur)

    after = _perturbation_norm(f_cur)
    B_new = state.B_accum if conj is None else _series_product(
        state.B_accum, _lift_double(conj))
    row = {"kind": "nonresonant", "norm_before": before, "norm_after": after,
           "rho": info["rho"], "window": int(window),
           "threshold": float(threshold), "band": int(band), "n_star": None,
           "inner_passes": passes}
    out = replace(state, A=A_cur, f=f_cur, B_accum=B_new,
                  ledger=state.ledger + (row,))
    out.check_residual()
    row["residual"] = out.residual()
    return out


# ---------------------------------------------------------------------------
# resonant step


def _elliptic_conjugator(A: np.ndarray, rho: float) -> np.ndarray:
    """Real Q with det 1 and Q^{-1} A Q = R_rho, guarded by the norm bound."""
    evals, evecs = np.linalg.eig(np.asarray(A, dtype=float))
    pick = int(np.argmax(evals.imag))
    if evals.imag[pick] <= 0.0:
        raise ReductionError("constant part is not elliptic")
    u = evecs[:, pick]
    Q = np.column_stack([u.real, -u.imag])
    d = float(det2(Q))
    if d <= 0.0:
        raise ReductionError("degenerate eigenbasis for the elliptic constant")
    Q = Q / math.sqrt(d)
    bound = 2.0 * math.sqrt(2.0 * float(norm2(A)) / max(rho, 1e-15))
    if float(norm2(Q)) > bound:
        raise ReductionError(
            f"conjugator norm {float(norm2(Q)):.3e} exceeds the elliptic "
            f"bound {bound:.3e}")
    defect = float(norm2(inv2(Q) @ A @ Q - rotation(rho)))
    if defect > 1e-8 * (1.0 + float(norm2(A))):
        raise ReductionError(f"elliptic normal form defect {defect:.3e}")
    return Q


def _sl2_components(c: np.ndarray) -> tuple:
    """(j, w_plus, w_minus): J coefficient and the two twist eigenlines."""
    c = np.asarray(c)
    j = (c[1, 0] - c[0, 1]) / 2.0
    kk = (c[0, 0] - c[1, 1]) / 2.0
    s = (c[0, 1] + c[1, 0]) / 2.0
    return j, kk + 1j * s, kk - 1j * s


_J = np.array([[0.0, -1.0], [1.0, 0.0]])
_N_PLUS = 0.5 * np.array([[1.0, -1j], [-1j, -1.0]])
_N_MINUS = 0.5 * np.array([[1.0, 1j], [1j, -1.0]])


def _solve_resonant_modes(f: FourierSeries, rho: float, n_star: tuple,
                          freq: Frequency) -> FourierSeries:
    """Homological solve in rotation form, skipping the resonant lines.

    Components split along the adjoint eigenlines of R_rho: the J line
    has divisor e^{i omega_n} - 1 (skipped wholesale at n = 0), the two
    rotating lines have divisors e^{i(omega_n -+ 2 omega)} - 1 (skipped
    at n = +-n*, where the divisor is resonantly small by assumption).
    """
    omega = _TWO_PI * rho
    minus_star = tuple(-v for v in n_star)
    modes = []
    lines = []
    for k, c in f.coeffs.items():
        if not any(k):
            continue
        omega_n = _TWO_PI * float(np.dot(k, freq.vec))
        j, wp, wm = _sl2_components(c)
        parts = (
            (j, _J, np.exp(1j * omega_n) - 1.0, True),
            (wp, _N_PLUS, np.exp(1j * (omega_n - 2.0 * omega)) - 1.0,
             k != n_star),
            (wm, _N_MINUS, np.exp(1j * (omega_n + 2.0 * omega)) - 1.0,
             k != minus_star),
        )
        modes.append(k)
        lines.append([(coef, basis, div)
                      for coef, basis, div, solve in parts if solve])
    if not modes:
        return _zero_sl2_series(f.dim)
    _check_divisors(modes, [min(abs(div) for _, _, div in solved)
                            for solved in lines],
                    "non-resonant line hits the divisor floor")
    coeffs = {}
    for k, solved in zip(modes, lines):
        y = np.zeros((2, 2), dtype=complex)
        for coef, basis, div in solved:
            y = y + (coef / div) * basis
        coeffs[k] = y
    return FourierSeries(f.dim, max(f.support_radius(), 1), coeffs,
                         period=1).symmetrized()


def resonant_step(state: KamState, n_star: tuple) -> KamState:
    """Strip the resonant harmonic n* with a half-angle rotation twist.

    Normalizes the elliptic constant to a true rotation, removes every
    non-resonant line, conjugates by R_{<n*, theta>/2} so the resonant
    line lands at frequency zero, and absorbs the surviving average
    into the constant.  The accumulated degree grows by n*.
    """
    n_star = tuple(int(v) for v in n_star)
    if len(n_star) != state.freq.dim or not any(n_star):
        raise ValueError("resonant site must be a nonzero integer vector")
    info = eigen_rho(state.A)
    if info["kind"] != "elliptic":
        raise ReductionError(
            f"resonant step needs an elliptic constant, got {info['kind']}")
    rho = info["rho"]
    before = state.norm()

    Q = _elliptic_conjugator(state.A, rho)
    Q_inv = inv2(Q)
    f_rot = FourierSeries(
        state.f.dim, max(state.f.radius, 1),
        {k: Q_inv @ np.asarray(c) @ Q for k, c in state.f.coeffs.items()},
        period=1)

    Y = _solve_resonant_modes(f_rot, rho, n_star, state.freq)
    R = rotation(rho)
    star_size = max(abs(v) for v in n_star)
    out_radius = max(2 * max(f_rot.support_radius(), Y.support_radius(), 1),
                     star_size + 1)
    f_kept = _conjugate_pointwise(R, R, f_rot, Y, state.freq, out_radius)

    # half-angle twist: moves the resonant line to frequency zero and
    # shifts the constant rotation by <n*, alpha>/2
    twist = rotation_series(n_star)
    shift = 0.5 * float(np.dot(n_star, state.freq.vec))
    A_mid = rotation(rho - shift)
    band = f_kept.support_radius() + star_size
    g = _pow2_at_least(2 * (2 * band + 2) + 2)
    pts = _mesh_points(state.freq.dim, g, 1)
    z_here = _real_grid(twist.evaluate_complex(pts))
    z_next = _real_grid(twist.shifted(state.freq.vec).evaluate_complex(pts))
    f_vals = _real_grid(f_kept.evaluate_complex(pts))
    prod = inv2(z_next) @ (R @ exp_sl2(f_vals)) @ z_here
    logs = log_sl2(inv2(A_mid) @ prod)
    shape = (g,) * state.freq.dim + (2, 2)
    noise = 1e-14 * (1.0 + float(np.max(np.abs(prod))))
    f_mid = _extract_series(logs.reshape(shape), state.freq.dim, band,
                            period=1, noise=noise)
    A_new, f_new = _absorb_average(A_mid, f_mid)

    step = _series_product(_lift_double(_series_product(
        _constant_series(Q, state.freq.dim, 1), _exp_series(Y))), twist)
    B_new = _series_product(state.B_accum, step)

    after = _perturbation_norm(f_new)
    row = {"kind": "resonant", "norm_before": before, "norm_after": after,
           "rho": rho, "rho_after": eigen_rho(A_new)["rho"],
           "window": None, "threshold": None, "band": None,
           "n_star": list(n_star), "inner_passes": 1,
           "bch_defect": _bch_diagnostic(A_mid, _zero_mode(f_mid), A_new)}
    out = replace(
        state, A=A_new, f=f_new, B_accum=B_new,
        deg_accum=tuple(d + v for d, v in zip(state.deg_accum, n_star)),
        resonant_sites=state.resonant_sites + (n_star,),
        ledger=state.ledger + (row,))
    out.check_residual()
    row["residual"] = out.residual()
    return out


def _bch_diagnostic(A_mid: np.ndarray, avg: np.ndarray,
                    A_new: np.ndarray) -> float:
    """Distance of the exact constant recombination from truncated BCH."""
    try:
        S = log_sl2(A_mid)
    except BranchError:
        return float("nan")
    if float(norm2(S)) + float(norm2(avg)) > 0.5:
        return float("nan")
    approx = exp_sl2(bch_log_product(S, avg, order=3))
    return float(norm2(approx - A_new))


# ---------------------------------------------------------------------------
# the almost-reducibility schedule


def _window_size(eps: float, band: int) -> int:
    gap = 1.0 / band - 1.0 / float(band) ** 2
    if gap <= 0.0:
        return 1
    return max(int(math.ceil(2.0 * abs(math.log(eps)) / gap)), 1)


def almost_reducibility_run(A: np.ndarray, f: FourierSeries,
                            freq: Frequency, *, M: int = 10,
                            sigma: float = _SIGMA, stop_tol: float = _STOP_TOL,
                            max_steps: int = 12,
                            residual_tol: float = _RESIDUAL_TOL) -> KamState:
    """Drive the perturbation below stop_tol on a doubling band schedule.

    Step j solves up to band l_j = M^(2^(j-1)), capped by the stored
    support so nothing is ever discarded; the resonance window and
    threshold follow the measured perturbation norm.  Divergence (two
    consecutive non-contracting steps) raises with the ledger attached.
    """
    _check_entry_gate(f, "starting perturbation")
    state = initial_state(A, f, freq, residual_tol)
    worse = 0
    for j in range(1, max_steps + 1):
        eps = state.norm()
        if eps <= stop_tol:
            break
        band = int(min(float(M) ** (2 ** (j - 1)), 1e6))
        band = min(band, max(state.f.support_radius(), 1))
        # the scan protects the divisors of the modes actually solved,
        # so the analytic window formula is clamped to the solve band
        # (beyond it the stored series has no content to strip)
        window = min(_window_size(eps, band), band, _WINDOW_CAP[freq.dim])
        threshold = min(eps ** sigma, _THRESHOLD_CAP)
        info = eigen_rho(state.A)
        site = None
        if info["kind"] != "hyperbolic":
            # a wide window can hold several sites under the raw
            # threshold; tightening it isolates the genuinely resonant
            # one (or rules every candidate out), and the divisor floor
            # still guards the solve against anything missed
            while True:
                try:
                    site = detect_resonance(info["rho"], freq, window,
                                            threshold)
                    break
                except ResonanceError:
                    threshold /= 4.0
                    if threshold < 100.0 * _DIVISOR_FLOOR:
                        raise
        if site is None:
            state = nonresonant_step(state, window, threshold, band=band)
        else:
            state = resonant_step(state, site)
        rec = state.ledger[-1]
        if rec["norm_after"] >= rec["norm_before"]:
            worse += 1
            if worse >= 2:
                raise DivergenceError("perturbation stopped contracting",
                                      ledger=list(state.ledger))
        else:
            worse = 0
    return state


# ---------------------------------------------------------------------------
# reduction to a parabolic constant and the gap-edge number


def _triangularize_nilpotent(h: np.ndarray) -> tuple:
    """(P, zeta) with P^{-1} h P = [[0, zeta], [0, 0]] and det P = 1.

    The first column of P spans the kernel of h; the branch choice
    keeps P bounded and pins the closed-form boundary cases at -+1.
    """
    a, b = float(h[0, 0]), float(h[0, 1])
    c = float(h[1, 0])
    if max(abs(a), abs(b), abs(c)) < 1e-300:
        return np.eye(2), 0.0
    if abs(b) >= abs(c):
        P = np.array([[1.0, 0.0], [-a / b, 1.0]])
        return P, b
    P = np.array([[a / c, -1.0], [1.0, 0.0]])
    return P, -c


def reduce_to_parabolic(A: np.ndarray, f: FourierSeries, freq: Frequency,
                        m, *, check_inputs: bool = True,
                        parabolic_tol: float = 1e-6) -> dict:
    """Conjugate a gap-edge cocycle to sign * [[1, zeta], [0, 1]].

    Runs the reduction schedule, demands that the accumulated degree
    matches the gap label m up to overall sign (the orientation of the
    projective winding is a convention, and both orientations describe
    the same gap), checks that the limit constant is parabolic, and
    extracts zeta by triangularizing its logarithm.  zeta < 0 marks a
    left gap edge, zeta > 0 a right edge, zeta = 0 a collapsed gap.
    """
    if isinstance(m, (int, np.integer)):
        m = (int(m),)
    m = tuple(int(v) for v in m)
    if len(m) != freq.dim:
        raise ValueError("label dimension does not match the frequency")

    if check_inputs:
        _check_edge_inputs(A, f, freq, m)

    state = almost_reducibility_run(A, f, freq, max_steps=_EDGE_MAX_STEPS)
    if state.norm() > 10.0 * _STOP_TOL:
        raise ReductionError(
            f"schedule stalled at perturbation {state.norm():.3e}")
    if state.deg_accum not in (m, tuple(-v for v in m)):
        raise ReductionError(
            f"accumulated degree {state.deg_accum} does not match the "
            f"label {m}; rotation number and labelling disagree")

    H = state.A @ exp_sl2(_zero_mode(state.f))
    discarded = state.norm()
    t = float(trace2(H))
    if abs(abs(t) - 2.0) > parabolic_tol:
        raise ReductionError(
            f"limit constant has |trace| = {abs(t):.8f}, not parabolic: "
            "the energy is not at a gap edge")
    sign = 1.0 if t > 0 else -1.0
    h = log_sl2(sign * H)
    P, zeta = _triangularize_nilpotent(h)
    B = _series_product(state.B_accum,
                        _constant_series(P, freq.dim, period=2))

    final = replace(
        state, A=sign * np.array([[1.0, zeta], [0.0, 1.0]]),
        f=_zero_sl2_series(freq.dim), B_accum=B)
    residual = final.residual()
    bound = _RESIDUAL_TOL * (1.0 + final.conjugacy_norm() ** 2) \
        + 4.0 * float(norm2(P)) ** 2 * (discarded + parabolic_tol)
    if residual > bound:
        raise ReductionError(
            f"parabolic normal form residual {residual:.3e} exceeds "
            f"{bound:.3e}")
    return {
        "B": B,
        "zeta": float(zeta),
        "sign": sign,
        "degree": state.deg_accum,
        "H": H,
        "h": h,
        "residual": residual,
        "discarded_norm": discarded,
        "state": state,
    }


def _check_edge_inputs(A, f, freq, m) -> None:
    band = max(f.support_radius(), 1)
    g = _pow2_at_least(2 * (2 * band + 2) + 2)
    vals = np.asarray(A, dtype=float) @ exp_sl2(_real_grid(_sample(f, g)))
    series = _extract_series(vals, freq.dim, 2 * band, period=1)
    c = Cocycle(freq, series)
    verdict = uniform_hyperbolicity_test(c, phases=8, orbit=2000)
    if verdict.verdict == "uniformly_hyperbolic":
        raise ReductionError(
            "cocycle is uniformly hyperbolic: the energy sits inside a gap, "
            "not at an edge")
    est = rotation_number(c, 0.0, _EDGE_RHO_ITERATIONS)
    bracket = float(np.dot(m, freq.vec))
    # orientation of the projective winding is not pinned for a general
    # cocycle, so the label is only determined up to sign
    defect = min(float(dist_to_int(2.0 * est.rho - bracket)),
                 float(dist_to_int(2.0 * est.rho + bracket)))
    if defect > _EDGE_RHO_TOL:
        raise ReductionError(
            f"measured rotation number defect {defect:.3e} against the "
            f"label {m} exceeds {_EDGE_RHO_TOL:.1e}")


# ---------------------------------------------------------------------------
# Moser-Poschel step at a right gap edge


def _delta_guard(x_norm: float, freq: Frequency) -> float:
    """Contraction guard gamma^3 / (D_tau ||X||^2) on the step size delta."""
    return freq.gamma ** 3 / (_D_TAU * x_norm ** 2)


@dataclass(frozen=True)
class MoserPoschelData:
    """Averaged data of one Moser-Poschel perturbation step.

    d_of_delta(delta) = d_lin * delta + d_quad * delta^2 is the
    determinant surrogate whose sign decides whether the shifted
    energy leaves the spectrum.
    """

    zeta: float
    b0: np.ndarray
    b1: np.ndarray
    x11_sq: float
    x11_x12: float
    x12_sq: float
    d_lin: float
    d_quad: float
    P1_norm_bound: float
    x_norm: float

    def __post_init__(self):
        if self.x11_sq <= 0.0:
            raise ValueError("[X11^2] must be positive")
        if self.cauchy_schwarz_slack() < -1e-12:
            raise ValueError("averages violate Cauchy-Schwarz")
        if abs(float(trace2(self.b1))) > 1e-12:
            raise ValueError("b1 must be traceless")

    def cauchy_schwarz_slack(self) -> float:
        return self.x11_sq * self.x12_sq - self.x11_x12 ** 2

    def d_of_delta(self, delta: float) -> float:
        return self.d_lin * delta + self.d_quad * delta * delta

    def det_identity_defect(self, delta: float) -> float:
        """Two-sided evaluation gap of the determinant identity."""
        direct = float(np.linalg.det(self.b0 - delta * self.b1)) \
            + 0.25 * delta * delta * self.zeta ** 2 * self.x11_sq ** 2
        return abs(direct - self.d_of_delta(delta))


def mp_brackets(zeta: float, x11_sq: float, x11_x12: float,
                x12_sq: float) -> tuple:
    """(b0, b1) assembled from the three quadratic averages."""
    b0 = np.array([[0.0, zeta], [0.0, 0.0]])
    b1 = np.array([
        [x11_x12 - 0.5 * zeta * x11_sq, -zeta * x11_x12 + x12_sq],
        [-x11_sq, -x11_x12 + 0.5 * zeta * x11_sq],
    ])
    return b0, b1


def _solve_parabolic_cohomological(B: np.ndarray, G: FourierSeries,
                                   freq: Frequency) -> FourierSeries:
    """Modewise solve of -Y(theta+alpha) B + B Y(theta) = B (G - [G])."""
    modes = []
    rhs = []
    for k, c in G.coeffs.items():
        if not any(k):
            continue
        modes.append(k)
        rhs.append((B @ np.asarray(c)).reshape(4))
    if not modes:
        return _zero_sl2_series(G.dim)
    phases = np.exp(1j * _TWO_PI * (np.array(modes, dtype=float) @ freq.vec))
    left = np.kron(B, np.eye(2))[None] \
        - phases[:, None, None] * np.kron(np.eye(2), B.T)[None]
    radius = max(max(abs(v) for v in k) for k in modes)
    return _modewise_solve(modes, rhs, left, radius,
                           "parabolic cohomological divisor under the floor")


def moser_poschel_step(X: FourierSeries, zeta: float, delta: float,
                       freq: Frequency) -> MoserPoschelData:
    """One perturbative step off a right gap edge, fully measured.

    Builds the quadratic perturbation P from the conjugacy entries,
    averages it into b1, removes the oscillating part with one
    cohomological solve, and measures the leftover second-order term
    on the grid.
    """
    if not 0.0 < zeta < 0.5:
        raise ValueError("zeta must lie in (0, 1/2)")
    if not X.is_matrix:
        raise ValueError("conjugacy must be matrix-valued")
    x_norm = ck_norm(X, 0).upper
    guard = _delta_guard(x_norm, freq)
    if not 0.0 < delta < guard:
        raise ValueError(
            f"delta = {delta:.3e} outside the contraction guard "
            f"(0, {guard:.3e})")

    # quadratic entries are genuinely periodic even when X lives on the
    # double cover, so the plain-torus grid resolves them
    radius = max(X.support_radius(), 1)
    g = _pow2_at_least(2 * (2 * radius + 2) + 2, minimum=64)
    pts = _mesh_points(freq.dim, g, 1)
    vals = _real_grid(X.evaluate_complex(pts))
    x11 = vals[..., 0, 0]
    x12 = vals[..., 0, 1]
    a = float(np.mean(x11 * x11))
    b = float(np.mean(x11 * x12))
    c = float(np.mean(x12 * x12))
    b0, b1 = mp_brackets(zeta, a, b, c)

    n_pts = x11.shape[0]
    P_vals = np.empty((n_pts, 2, 2))
    P_vals[:, 0, 0] = x11 * x12 - zeta * x11 * x11
    P_vals[:, 0, 1] = -zeta * x11 * x12 + x12 * x12
    P_vals[:, 1, 0] = -x11 * x11
    P_vals[:, 1, 1] = -x11 * x12
    B = np.array([[1.0, zeta], [0.0, 1.0]])
    G_vals = -delta * (inv2(B) @ P_vals)
    shape = (g,) * freq.dim + (2, 2)
    G = _extract_series(G_vals.reshape(shape), freq.dim, 2 * radius,
                        period=1)
    Y = _solve_parabolic_cohomological(B, G, freq)

    y_here = _real_grid(Y.evaluate_complex(pts)).reshape(-1, 2, 2)
    y_next = _real_grid(
        Y.shifted(freq.vec).evaluate_complex(pts)).reshape(-1, 2, 2)
    perturbed = B - delta * P_vals
    conj = inv2(exp_sl2(y_next)) @ perturbed @ exp_sl2(y_here)
    leading = exp_sl2(b0 - delta * b1)
    P1 = (conj - leading) / (delta * delta)
    P1_norm = float(np.max(norm2(P1)))

    return MoserPoschelData(
        zeta=float(zeta), b0=b0, b1=b1, x11_sq=a, x11_x12=b, x12_sq=c,
        d_lin=-zeta * a, d_quad=a * c - b * b,
        P1_norm_bound=P1_norm, x_norm=x_norm)


def gap_edge_bound(mp: MoserPoschelData, zeta: float) -> dict:
    """Predicted local gap-length bound delta_1 = zeta^(17/18).

    Each hypothesis of the perturbed-rotation argument is evaluated
    and reported; failures are diagnostics, not errors, because
    practical conjugacies often sit outside the argument's constants
    while the mechanism still works.
    """
    if zeta < 0.0:
        raise ValueError("gap edge bound needs zeta >= 0")
    if zeta == 0.0:
        return {"delta1": 0.0, "rotation_positive": False,
                "predicted_gap_upper": 0.0, "collapsed": True,
                "hypotheses": {}, "failed": []}
    kappa = 1.0 / 18.0
    delta1 = zeta ** (17.0 / 18.0)
    cs = mp.cauchy_schwarz_slack()
    hyp = {
        "norm_gate": mp.x_norm * zeta ** (kappa / 2.0) <= 0.25,
        "ratio_bound": cs > 0.0
        and mp.x11_sq / cs <= 0.5 * zeta ** (-kappa),
        "slack_lower": cs >= 8.0 * zeta ** (2.0 * kappa),
    }
    det_val = float(np.linalg.det(mp.b0 - delta1 * mp.b1))
    hyp["determinant"] = det_val >= 3.0 * zeta * zeta * (1.0 - 1e-9)
    rot_margin = math.sqrt(max(det_val, 0.0)) - 1.5 * zeta
    hyp["rotation_positive"] = rot_margin > 0.0
    failed = [name for name, ok in hyp.items() if not ok]
    return {
        "delta1": delta1,
        "rotation_positive": bool(hyp["rotation_positive"]),
        "rotation_margin": rot_margin,
        "determinant_value": det_val,
        "predicted_gap_upper": delta1,
        "collapsed": False,
        "hypotheses": hyp,
        "failed": failed,
    }


def gap_edge_step(V: FourierSeries, freq: Frequency, m, edge: float,
                  window: float, delta: float = None) -> dict:
    """Gap-edge datum zeta and its predicted local gap bound.

    edge is the resolved right edge of the gap labelled m, to accuracy
    window.  The transfer cocycle is taken one window into the gap,
    which keeps the rotation number locked while the trace defect stays
    within the relaxed parabolic slack max(1e-6, 20 window); it is
    written as R_rho e^{f} around the elliptic normal form of its
    average and reduced to the parabolic normal form.  delta defaults
    to half the smaller of the contraction guard and zeta^(17/18).

    Returns {"zeta", "delta", "mp", "bound"}: the edge datum, the step
    size, the MoserPoschelData of that step and its gap_edge_bound.
    """
    e_reduce = edge - window
    mean_v = float(V.coeffs.get((0,) * V.dim, 0.0).real) if V.coeffs else 0.0
    const = np.array([[e_reduce - mean_v, -1.0], [1.0, 0.0]])
    info = eigen_rho(const)
    if info["kind"] != "elliptic":
        raise ReductionError(
            "averaged transfer matrix at the gap edge is not elliptic; "
            "no rotation normal form to expand around")
    Q = _elliptic_conjugator(const, info["rho"])
    A = rotation(info["rho"])
    band = max(V.support_radius(), 1)
    g = _pow2_at_least(8 * band + 2)
    v_vals = V.evaluate(_mesh_points(freq.dim, g, 1))
    cocycle_vals = np.zeros(v_vals.shape + (2, 2))
    cocycle_vals[..., 0, 0] = e_reduce - v_vals
    cocycle_vals[..., 0, 1] = -1.0
    cocycle_vals[..., 1, 0] = 1.0
    shape = (g,) * freq.dim + (2, 2)
    logs = log_sl2(inv2(A) @ (inv2(Q) @ cocycle_vals @ Q)).reshape(shape)
    f = _extract_series(logs, freq.dim, 4 * band, period=1)
    _check_entry_gate(f, "edge perturbation")

    reduced = reduce_to_parabolic(A, f, freq, m,
                                  parabolic_tol=max(1e-6, 20.0 * window))
    zeta = float(reduced["zeta"])
    if not 0.0 < zeta < 0.5:
        raise ReductionError(
            f"edge datum zeta={zeta:.3e} leaves (0, 1/2); the perturbation "
            "step is not defined on this side of the gap")
    B = reduced["B"]
    if delta is None:
        delta = 0.5 * min(_delta_guard(ck_norm(B, 0).upper, freq),
                          zeta ** (17.0 / 18.0))
    mp = moser_poschel_step(B, zeta, delta, freq)
    return {"zeta": zeta, "delta": delta, "mp": mp,
            "bound": gap_edge_bound(mp, zeta)}


# ---------------------------------------------------------------------------
# truncated Baker-Campbell-Hausdorff


def bch_log_product(S: np.ndarray, L: np.ndarray, order: int = 3):
    """log(e^S e^L) truncated at the displayed bracket order (2 or 3)."""
    S = np.asarray(S, dtype=float)
    L = np.asarray(L, dtype=float)
    if order not in (2, 3):
        raise ValueError("order must be 2 or 3")
    total = float(norm2(S)) + float(norm2(L))
    if total > 0.5:
        raise ValueError(
            f"combined norm {total:.3f} exceeds the BCH guard 0.5")
    out = S + L + 0.5 * commutator(S, L)
    if order == 3:
        out = out + (commutator(S, commutator(S, L))
                     + commutator(L, commutator(L, S))) / 12.0
    return out
