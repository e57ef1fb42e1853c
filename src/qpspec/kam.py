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

import numpy as np

from .cocycle import transfer_matrices
from .errors import (DivergenceError, DivisorError, ReductionError,
                     ResonanceError)
from .mat2 import (det2, exp_sl2, inv2, log_sl2, norm2, project_traceless,
                   rotation, trace2)
from .qpcore import (FourierSeries, Frequency, array_elements, ck_norm,
                     dist_to_int, integer_ball)
from .rotnum import rotation_series, schrodinger_rotation_grid

__all__ = [
    "KamState",
    "LedgerStep",
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
    "seeded_sl2_series",
    "explicit_sl2_series",
]

_TWO_PI = 2.0 * math.pi
_DIVISOR_FLOOR = 1e-12
_START_NORM = 1e-2
_STEP_NORM = 0.1
_PARABOLIC_TOL = 1e-10
# the schedule of the proof, not a run input: threshold eps^_SIGMA capped,
# the norm a run stops at, and the residual tolerance of every step
_SIGMA = 0.1
_THRESHOLD_CAP = 5e-3
_STOP_TOL = 1e-12
_RESIDUAL_TOL = 1e-7
# gap-edge reduction: schedule length and the rotation-number admission
_EDGE_MAX_STEPS = 14
_EDGE_RHO_TOL = 5e-3
_EDGE_RHO_ITERATIONS = 20000
# largest resonance-scan ball per dimension that stays cheap to enumerate,
# each within the integer_ball cap
_WINDOW_CAP = {1: 100000, 2: 723, 3: 60}
_RESIDUAL_POINTS = {1: 256, 2: 16, 3: 7}
# radius, per unit of the start radius r, that one pass of a run's first
# step reaches: averaging and conjugation each extract at twice the
# support, the closing average doubles it again, and the residual check
# lifts that to the double cover (the conjugacy stays within 7 r + 4)
_FIRST_STEP_REACH = 16


# ---------------------------------------------------------------------------
# grid pipeline


def _grid(radius: int, minimum: int = 32) -> int:
    """Points per axis that resolve the modes |n| <= radius: the least
    power of two >= max(minimum, 2 radius + 2)."""
    g = minimum
    while g < 2 * radius + 2:
        g *= 2
    return g


def _mesh_values(g: int, span: int, *series: FourierSeries) -> list:
    """Real values of each series on the g^d mesh of [0, span)^d, shaped
    (g,) * d plus the value shape, from FourierSeries.on_mesh.  A
    plain-torus series on the double-cover mesh is lifted first; a
    double-cover series on the plain-torus mesh is sampled at 2g points
    per axis and cut to the first g."""
    out = []
    for s in series:
        s = _lift_double(s) if span == 2 else s
        out.append(s.on_mesh(g * s.period // span)[(slice(g),) * s.dim])
    return out


def _extract_series(vals: np.ndarray, dim: int, radius: int,
                    period: int, scale: np.ndarray = None) -> FourierSeries:
    """Band-limited series from equispaced samples (one FFT, then gather).

    scale holds the matrices the samples were computed from; their
    rounding, 1e-14 (1 + max |scale|), is an absolute floor.  The sampled
    values can be far smaller than those matrices, so a purely relative
    cutoff would keep a flat sea of junk keys and inflate the support
    without bound.
    """
    g = vals.shape[0]
    radius = min(radius, g // 2 - 1)
    spec = np.fft.fftn(vals, axes=tuple(range(dim))) / float(g ** dim)
    ref = float(np.max(np.abs(spec))) if spec.size else 0.0
    noise = (0.0 if scale is None
             else 1e-14 * (1.0 + float(np.max(np.abs(scale)))))
    keep = max(1e-13 * max(ref, 1e-300), noise)
    modes = integer_ball(dim, radius)
    table = spec[tuple(np.mod(modes, g).T)]
    kept = np.abs(table).reshape(len(modes), -1).max(axis=1) >= keep
    return FourierSeries.from_arrays(dim, radius, modes[kept], table[kept],
                                     period).symmetrized()


def _series_product(a: FourierSeries, b: FourierSeries) -> FourierSeries:
    if (a.dim, a.period) != (b.dim, b.period):
        raise ValueError("series product needs matching dim and period")
    ra, rb = a.support_radius(), b.support_radius()
    a_vals, b_vals = _mesh_values(_grid(ra + rb), a.period, a, b)
    vals = a_vals @ b_vals
    return _extract_series(vals, a.dim, ra + rb, a.period, scale=vals)


def _lift_double(series: FourierSeries) -> FourierSeries:
    """Reindex a plain-torus series as a series on the double cover."""
    if series.period == 2:
        return series
    return FourierSeries.from_arrays(series.dim, 2 * series.radius,
                                     2 * series.modes, series.values, 2)


def _constant_series(mat: np.ndarray, dim: int, period: int) -> FourierSeries:
    return FourierSeries(dim, 0, {(0,) * dim: np.asarray(mat, dtype=complex)},
                         period=period)


def _zero_mode(f: FourierSeries) -> np.ndarray:
    return project_traceless(f.mean().real)


class _EntryGateError(DivergenceError, ValueError):
    """Start-norm gate failure; also a ValueError for direct engine callers."""


def _require_sl2_series(f: FourierSeries, what: str) -> None:
    if not f.is_matrix:
        raise ValueError(f"{what} must be matrix-valued")
    if f.traceless_defect() > 1e-9:
        raise ValueError(f"{what} must be traceless")
    if f.reality_defect() > 1e-9:
        raise ValueError(f"{what} must satisfy the reality pairing")


def seeded_sl2_series(scale: float, radius: int, seed: int,
                      dim: int = 1) -> FourierSeries:
    """Reproducible random traceless perturbation with the given band."""
    modes = integer_ball(dim, radius)
    # one draw in ball order: per mode the real, then the imaginary 2x2 part
    draw = np.random.default_rng(seed).normal(size=(len(modes), 2, 2, 2))
    m = (draw[:, 0] + 1j * draw[:, 1]) * scale
    m = m - (0.5 * (m[:, 0, 0] + m[:, 1, 1]))[:, None, None] * np.eye(2)
    return FourierSeries.from_arrays(dim, radius, modes, m, 1).symmetrized()


def explicit_sl2_series(terms: dict, dim: int = 1) -> FourierSeries:
    """Traceless perturbation from explicit modes: terms maps integer
    mode tuples of length dim to real 2x2 matrices."""
    if not terms:
        raise ValueError("perturbation terms must be a nonempty mapping")
    coeffs = {}
    for mode, entries in terms.items():
        if len(mode) != dim:
            raise ValueError(f"mode {mode} needs {dim} components, one per "
                             "frequency")
        try:
            mat = np.asarray(entries, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"mode {mode} must be a 2x2 matrix") from exc
        if mat.shape != (2, 2):
            raise ValueError(f"mode {mode} must be a 2x2 matrix")
        if not np.all(np.isfinite(mat)):
            raise ValueError(f"mode {mode} must be finite")
        if abs(mat[0, 0] + mat[1, 1]) > 1e-9:
            raise ValueError(f"mode {mode} must be traceless")
        coeffs[mode] = mat.astype(complex)
    radius = max(max(map(abs, mode)) for mode in coeffs)
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
    cands = integer_ball(freq.dim, min(N, _WINDOW_CAP[freq.dim]))
    cands = cands[cands.any(axis=1)]
    defects = dist_to_int(2.0 * rho - cands @ freq.vec)
    order = np.argsort(defects)
    best, runner = (tuple(cands[i].tolist()) for i in order[:2])
    if defects[order[0]] >= threshold:
        return None
    if defects[order[1]] < threshold:
        raise ResonanceError(
            f"two resonant sites {best} and {runner} below threshold "
            f"{threshold:.2e}; window too large for the Diophantine constants")
    return best


# ---------------------------------------------------------------------------
# state


@dataclass(frozen=True)
class LedgerStep:
    """One step of a run as recorded in the ledger; the fields, in order,
    are the kam.csv columns.

    step is the row's index in the ledger.  A non-resonant step fills
    window, threshold and band; a resonant step fills n_star.
    residual is the conjugation residual of the state the step returns.
    """

    step: int
    kind: str
    norm_before: float
    norm_after: float
    rho: float
    window: int | None
    threshold: float | None
    band: int | None
    n_star: tuple | None
    inner_passes: int
    residual: float


@dataclass(frozen=True)
class KamState:
    """One rung of the reduction: constant part, perturbation, conjugacy.

    The accumulated conjugacy lives on the double cover and satisfies
    B(theta+alpha)^{-1} A0 e^{f0(theta)} B(theta) = A e^{f(theta)} up
    to the residual tolerance _RESIDUAL_TOL; A0, f0 are the original data of
    the run, kept so the identity stays checkable end to end.
    """

    A: np.ndarray
    f: FourierSeries
    B_accum: FourierSeries
    deg_accum: tuple
    ledger: tuple
    freq: Frequency
    A0: np.ndarray
    f0: FourierSeries

    def norm(self) -> float:
        return ck_norm(self.f, 0)

    def conjugacy_norm(self) -> float:
        return self.B_accum.sup_norm()

    def residual(self) -> float:
        """Max defect of the defining conjugation identity on the grid."""
        b_here, b_next, f0_vals, f_vals = _mesh_values(
            _RESIDUAL_POINTS[self.freq.dim], 2, self.B_accum,
            self.B_accum.shifted(self.freq.vec), self.f0, self.f)
        lhs = inv2(b_next) @ (self.A0 @ exp_sl2(f0_vals)) @ b_here
        rhs = self.A @ exp_sl2(f_vals)
        return float(np.max(norm2(lhs - rhs)))

    def check_residual(self) -> float:
        """The residual, or ReductionError when it exceeds the tolerance."""
        bound = _RESIDUAL_TOL * (1.0 + self.conjugacy_norm() ** 2)
        defect = self.residual()
        if defect > bound:
            raise ReductionError(
                f"conjugation residual {defect:.3e} exceeds {bound:.3e}")
        return defect


def initial_state(A: np.ndarray, f: FourierSeries,
                  freq: Frequency) -> KamState:
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
                    ledger=(), freq=freq, A0=A.copy(), f0=f)


# ---------------------------------------------------------------------------
# pointwise conjugation helpers


def _conjugate_pointwise(A: np.ndarray, f: FourierSeries, Y: FourierSeries,
                         freq: Frequency, out_radius: int) -> FourierSeries:
    """log(A^{-1} e^{-Y(theta+alpha)} A e^{f} e^{Y}) as a series."""
    band = max(Y.support_radius(), f.support_radius(), 1)
    y_here, y_next, f_vals = _mesh_values(_grid(3 * band + 2), 1, Y,
                                          Y.shifted(freq.vec), f)
    prod = exp_sl2(-y_next) @ A @ exp_sl2(f_vals) @ exp_sl2(y_here)
    logs = log_sl2(inv2(np.asarray(A, dtype=float)) @ prod)
    return _extract_series(logs, f.dim, out_radius, period=1, scale=prod)


def _exp_series(Y: FourierSeries) -> FourierSeries:
    band = max(Y.support_radius(), 1)
    vals = exp_sl2(*_mesh_values(_grid(3 * band + 2), Y.period, Y))
    return _extract_series(vals, Y.dim, 3 * band + 2, Y.period, scale=vals)


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
    vals = exp_sl2(-avg) @ exp_sl2(*_mesh_values(_grid(2 * band + 2), 1, f))
    return A_new, _extract_series(log_sl2(vals), f.dim, 2 * band, period=1,
                                  scale=vals)


# ---------------------------------------------------------------------------
# the divisor floor and the non-resonant step


def _check_divisors(modes: list, smallest, what: str) -> None:
    """The one divisor floor: raise DivisorError at the argmin mode."""
    worst = int(np.argmin(smallest))
    if smallest[worst] < _DIVISOR_FLOOR:
        raise DivisorError(modes[worst], float(smallest[worst]), what)


def _solve_homological(A: np.ndarray, f: FourierSeries, band: int,
                       freq: Frequency) -> FourierSeries:
    """Modewise solve of A^{-1} Y(theta+alpha) A - Y(theta) = f_osc(theta).

    Covers modes 0 < |n| <= band; anything beyond stays in the
    remainder for a later, wider solve.  Row-major vec convention:
    Y -> A^{-1} Y A has the 4x4 matrix kron(A^{-1}, A^T), so mode n
    solves (e^{2 pi i <n, alpha>} kron - I) vec(y_n) = vec(c_n).  The
    smallest singular value of each 4x4 system is its divisor; the floor
    check runs before one batched solve, and the solution is projected
    onto the real subspace.
    """
    sizes = np.abs(f.modes).max(axis=1)
    pick = (sizes > 0) & (sizes <= band)
    if not pick.any():
        return _constant_series(np.zeros((2, 2)), f.dim, 1)
    modes = f.modes[pick]
    kron = np.kron(inv2(np.asarray(A, dtype=float)), np.asarray(A).T)
    phases = np.exp(1j * _TWO_PI * (modes @ freq.vec))
    mats = phases[:, None, None] * kron - np.eye(4)
    _check_divisors(modes, np.linalg.svd(mats, compute_uv=False)[:, -1],
                    "homological divisor under the safety floor; a "
                    "resonance was missed upstream")
    vecs = f.values[pick].reshape(-1, 4)
    sol = np.linalg.solve(mats, vecs[..., None])[..., 0]
    return FourierSeries.from_arrays(f.dim, band, modes,
                                     sol.reshape(-1, 2, 2), 1).symmetrized()


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
        f_cur = _conjugate_pointwise(A_cur, f_cur, Y, state.freq, out_radius)
        step = _exp_series(Y)
        conj = step if conj is None else _series_product(conj, step)
        cur = ck_norm(f_cur, 0)
        if cur <= max(target, 1e-15) or cur > 0.5 * prev:
            break
        prev = cur
    A_cur, f_cur = _absorb_average(A_cur, f_cur)

    after = ck_norm(f_cur, 0)
    B_new = state.B_accum if conj is None else _series_product(
        state.B_accum, _lift_double(conj))
    out = replace(state, A=A_cur, f=f_cur, B_accum=B_new)
    row = LedgerStep(
        step=len(state.ledger), kind="nonresonant", norm_before=before,
        norm_after=after, rho=info["rho"], window=int(window),
        threshold=float(threshold), band=int(band), n_star=None,
        inner_passes=passes, residual=out.check_residual())
    return replace(out, ledger=state.ledger + (row,))


# ---------------------------------------------------------------------------
# resonant step


def _elliptic_conjugator(A: np.ndarray, rho: float) -> tuple:
    """(Q, turn): real Q with det 1 and Q^{-1} A Q = R_turn, guarded by the
    norm bound; turn is rho when A rotates counterclockwise and -rho when
    it rotates clockwise."""
    evals, evecs = np.linalg.eig(np.asarray(A, dtype=float))
    pick = int(np.argmax(evals.imag))
    if evals.imag[pick] <= 0.0:
        raise ReductionError("constant part is not elliptic")
    u = evecs[:, pick]
    # A [Re u, -Im u] = [Re u, -Im u] R_rho; when that basis has det < 0,
    # flipping its second column gives det > 0 and turns A into R_{-rho}
    Q, turn = np.column_stack([u.real, -u.imag]), rho
    if det2(Q) < 0.0:
        Q[:, 1] *= -1.0
        turn = -rho
    d = float(det2(Q))
    if d <= 0.0:
        raise ReductionError("degenerate eigenbasis for the elliptic constant")
    Q = Q / math.sqrt(d)
    bound = 2.0 * math.sqrt(2.0 * float(norm2(A)) / max(rho, 1e-15))
    if float(norm2(Q)) > bound:
        raise ReductionError(
            f"conjugator norm {float(norm2(Q)):.3e} exceeds the elliptic "
            f"bound {bound:.3e}")
    defect = float(norm2(inv2(Q) @ A @ Q - rotation(turn)))
    if defect > 1e-8 * (1.0 + float(norm2(A))):
        raise ReductionError(f"elliptic normal form defect {defect:.3e}")
    return Q, turn


def _sl2_components(c: np.ndarray) -> tuple:
    """(j, w_plus, w_minus): J coefficient and the two twist eigenlines of
    each 2x2 matrix of c, shape (..., 2, 2)."""
    c = np.asarray(c)
    j = (c[..., 1, 0] - c[..., 0, 1]) / 2.0
    kk = (c[..., 0, 0] - c[..., 1, 1]) / 2.0
    s = (c[..., 0, 1] + c[..., 1, 0]) / 2.0
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
    nonzero = f.modes.any(axis=1)
    if not nonzero.any():
        return _constant_series(np.zeros((2, 2)), f.dim, 1)
    modes = f.modes[nonzero]
    omega_n = _TWO_PI * (modes @ freq.vec)
    j, wp, wm = _sl2_components(f.values[nonzero])
    # (coefficient, basis, divisor, modes whose line is solved) per line
    lines = (
        (j, _J, np.exp(1j * omega_n) - 1.0, np.ones(len(modes), dtype=bool)),
        (wp, _N_PLUS, np.exp(1j * (omega_n - 2.0 * omega)) - 1.0,
         (modes != n_star).any(axis=1)),
        (wm, _N_MINUS, np.exp(1j * (omega_n + 2.0 * omega)) - 1.0,
         (modes != np.negative(n_star)).any(axis=1)),
    )
    _check_divisors(modes, np.min([np.where(solve, np.abs(div), np.inf)
                                   for _, _, div, solve in lines], axis=0),
                    "non-resonant line hits the divisor floor")
    y = np.zeros((len(modes), 2, 2), dtype=complex)
    for coef, basis, div, solve in lines:
        y[solve] += (coef[solve] / div[solve])[:, None, None] * basis
    return FourierSeries.from_arrays(f.dim, max(f.support_radius(), 1),
                                     modes, y, 1).symmetrized()


def resonant_step(state: KamState, n_star: tuple) -> KamState:
    """Strip the resonant harmonic n* with a half-angle rotation twist.

    Normalizes the elliptic constant to a true rotation, removes every
    non-resonant line, conjugates by R_{<n*, theta>/2} so the resonant
    line lands at frequency zero, and absorbs the surviving average
    into the constant.  A clockwise constant is R_{-rho}, so its twist
    site is -n*.  The accumulated degree grows by the twist site, which
    the ledger row records.
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

    Q, turn = _elliptic_conjugator(state.A, rho)
    site = n_star if turn > 0.0 else tuple(-v for v in n_star)
    Q_inv = inv2(Q)
    f_rot = FourierSeries.from_arrays(state.f.dim, max(state.f.radius, 1),
                                      state.f.modes,
                                      Q_inv @ state.f.values @ Q, 1)

    Y = _solve_resonant_modes(f_rot, turn, site, state.freq)
    R = rotation(turn)
    star_size = max(abs(v) for v in n_star)
    out_radius = max(2 * max(f_rot.support_radius(), Y.support_radius(), 1),
                     star_size + 1)
    f_kept = _conjugate_pointwise(R, f_rot, Y, state.freq, out_radius)

    # half-angle twist: moves the resonant line to frequency zero and
    # shifts the constant rotation by <site, alpha>/2
    twist = rotation_series(site)
    shift = 0.5 * float(np.dot(site, state.freq.vec))
    A_mid = rotation(turn - shift)
    band = f_kept.support_radius() + star_size
    z_here, z_next, f_vals = _mesh_values(
        _grid(2 * band + 2), 1, twist, twist.shifted(state.freq.vec), f_kept)
    prod = inv2(z_next) @ (R @ exp_sl2(f_vals)) @ z_here
    logs = log_sl2(inv2(A_mid) @ prod)
    f_mid = _extract_series(logs, state.freq.dim, band, period=1, scale=prod)
    A_new, f_new = _absorb_average(A_mid, f_mid)

    step = _series_product(_lift_double(_series_product(
        _constant_series(Q, state.freq.dim, 1), _exp_series(Y))), twist)
    B_new = _series_product(state.B_accum, step)

    after = ck_norm(f_new, 0)
    out = replace(
        state, A=A_new, f=f_new, B_accum=B_new,
        deg_accum=tuple(d + v for d, v in zip(state.deg_accum, site)))
    row = LedgerStep(
        step=len(state.ledger), kind="resonant", norm_before=before,
        norm_after=after, rho=rho, window=None, threshold=None, band=None,
        n_star=site, inner_passes=1, residual=out.check_residual())
    return replace(out, ledger=state.ledger + (row,))


# ---------------------------------------------------------------------------
# the almost-reducibility schedule


def almost_reducibility_run(A: np.ndarray, f: FourierSeries, freq: Frequency,
                            *, max_steps: int = 12) -> KamState:
    """Drive the perturbation below _STOP_TOL on a doubling band schedule.

    Step j solves up to band l_j = 10^(2^(j-1)), at most 10^6 and capped
    by the stored support so nothing is ever discarded; the resonance
    window is that band, capped per dimension, and the threshold
    eps^_SIGMA follows the measured perturbation norm eps.  Divergence
    (two consecutive non-contracting steps) raises with the ledger
    attached.
    A non-finite f, or one above the entry gate, raises before any step,
    and so does SizeError when a series of the first step, at up to
    _FIRST_STEP_REACH times the radius of f, would pass the element cap.
    """
    reach = _FIRST_STEP_REACH * max(f.radius, 1)
    array_elements(f"modes up to |n| = {f.radius}, which the first step "
                   f"takes to |n| = {reach} in {f.dim}-D,",
                   (4 * reach + 1) ** f.dim)
    finite = bool(np.isfinite(f.values).all())
    norm0 = ck_norm(f, 0) if finite else math.nan
    if not norm0 <= _START_NORM:
        raise _EntryGateError(f"starting perturbation norm {norm0:.3e} is "
                              f"outside the entry gate {_START_NORM:.0e}")
    state = initial_state(A, f, freq)
    worse = 0
    for j in range(1, max_steps + 1):
        eps = state.norm()
        if eps <= _STOP_TOL:
            break
        band = min(10 ** min(2 ** (j - 1), 6),
                   max(state.f.support_radius(), 1))
        # the scan protects the divisors of the modes actually solved:
        # the resonance window is the solve band (beyond it the stored
        # series has no content to strip), capped per dimension
        window = min(band, _WINDOW_CAP[freq.dim])
        threshold = min(eps ** _SIGMA, _THRESHOLD_CAP)
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
        if rec.norm_after >= rec.norm_before:
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


def _gap_label(m, freq: Frequency) -> tuple:
    m = tuple(int(v) for v in np.atleast_1d(m))
    if len(m) != freq.dim:
        raise ValueError("label dimension does not match the frequency")
    return m


def reduce_to_parabolic(A: np.ndarray, f: FourierSeries, freq: Frequency,
                        m, *, parabolic_tol: float = 1e-6) -> dict:
    """Conjugate a gap-edge cocycle to sign * [[1, zeta], [0, 1]].

    Runs the reduction schedule, demands that the accumulated degree
    matches the gap label m up to overall sign (the orientation of the
    projective winding is a convention, and both orientations describe
    the same gap), checks that the limit constant is parabolic, and
    extracts zeta by triangularizing its logarithm.  zeta < 0 marks a
    left gap edge, zeta > 0 a right edge, zeta = 0 a collapsed gap.
    """
    m = _gap_label(m, freq)
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
        f=_constant_series(np.zeros((2, 2)), freq.dim, 1), B_accum=B)
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


def _admit_edge(V: FourierSeries, freq: Frequency, m, energy) -> None:
    """Admit the exact transfer cocycle at a gap-edge energy, or raise.

    The fibered rotation number must satisfy 2 rho = <m, alpha> mod Z up
    to sign.  While the reduction runs one window inside the gap, under
    the relaxed parabolic slack, this check is tighter than the
    reduction's own parabolic test.
    """
    rho = float(schrodinger_rotation_grid(
        V, freq, [energy], n_iters=_EDGE_RHO_ITERATIONS)[0][0])
    bracket = float(np.dot(m, freq.vec))
    # the folded rotation number fixes the label only up to sign
    defect = min(float(dist_to_int(2.0 * rho - bracket)),
                 float(dist_to_int(2.0 * rho + bracket)))
    if defect > _EDGE_RHO_TOL:
        raise ReductionError(
            f"measured rotation number defect {defect:.3e} against the "
            f"label {m} exceeds {_EDGE_RHO_TOL:.1e}")


# ---------------------------------------------------------------------------
# Moser-Poschel step at a right gap edge


@dataclass(frozen=True)
class MoserPoschelData:
    """Averaged data of one Moser-Poschel perturbation step.

    d_lin = -zeta [X11^2] and d_quad = [X11^2][X12^2] - [X11 X12]^2 are
    the coefficients of the determinant surrogate
    d_lin * delta + d_quad * delta^2, whose sign decides whether the
    shifted energy leaves the spectrum.  d_quad is the Cauchy-Schwarz
    slack of the averages: below -1e-12 it is rejected.
    """

    zeta: float
    b0: np.ndarray
    b1: np.ndarray
    x11_sq: float
    x11_x12: float
    x12_sq: float
    d_lin: float
    d_quad: float
    x_norm: float

    def __post_init__(self):
        if not 0.0 < self.zeta < 0.5:
            raise ValueError("zeta must lie in (0, 1/2)")
        if self.x11_sq <= 0.0:
            raise ValueError("[X11^2] must be positive")
        if self.d_quad < -1e-12:
            raise ValueError("averages violate Cauchy-Schwarz")
        if abs(float(trace2(self.b1))) > 1e-12:
            raise ValueError("b1 must be traceless")


def mp_brackets(zeta: float, x11_sq: float, x11_x12: float,
                x12_sq: float) -> tuple:
    """(b0, b1) assembled from the three quadratic averages."""
    b0 = np.array([[0.0, zeta], [0.0, 0.0]])
    b1 = np.array([
        [x11_x12 - 0.5 * zeta * x11_sq, -zeta * x11_x12 + x12_sq],
        [-x11_sq, -x11_x12 + 0.5 * zeta * x11_sq],
    ])
    return b0, b1


def moser_poschel_step(X: FourierSeries, zeta: float) -> MoserPoschelData:
    """The averaged data of one perturbative step off a right gap edge.

    Averages the quadratic terms [X11^2], [X11 X12] and [X12^2] of the
    conjugacy entries on the plain-torus mesh, and builds b0, b1 and the
    determinant coefficients from them.
    """
    if not X.is_matrix:
        raise ValueError("conjugacy must be matrix-valued")
    x_norm = ck_norm(X, 0)
    if not math.isfinite(x_norm):
        raise ReductionError(f"conjugacy norm {x_norm} is not finite")

    # quadratic entries are genuinely periodic even when X lives on the
    # double cover, so the plain-torus grid resolves them
    radius = max(X.support_radius(), 1)
    vals, = _mesh_values(_grid(2 * radius + 2, minimum=64), 1, X)
    x11 = vals[..., 0, 0]
    x12 = vals[..., 0, 1]
    a = float(np.mean(x11 * x11))
    b = float(np.mean(x11 * x12))
    c = float(np.mean(x12 * x12))
    b0, b1 = mp_brackets(zeta, a, b, c)
    return MoserPoschelData(
        zeta=float(zeta), b0=b0, b1=b1, x11_sq=a, x11_x12=b, x12_sq=c,
        d_lin=-zeta * a, d_quad=a * c - b * b, x_norm=x_norm)


def gap_edge_bound(mp: MoserPoschelData) -> dict:
    """Predicted local gap-length bound delta_1 = zeta^(17/18).

    Each hypothesis of the perturbed-rotation argument is evaluated
    and reported; failures are diagnostics, not errors, because
    practical conjugacies often sit outside the argument's constants
    while the mechanism still works.  They cannot all hold in double
    precision: norm_gate needs ||X|| zeta^(1/36) <= 1/4 with ||X|| >= 1
    (X is SL(2,R)-valued), so zeta <= 4^-36 ~ 2e-22; "failed" is never empty.
    """
    zeta, cs = mp.zeta, mp.d_quad
    kappa = 1.0 / 18.0
    delta1 = zeta ** (17.0 / 18.0)
    hyp = {
        "norm_gate": mp.x_norm * zeta ** (kappa / 2.0) <= 0.25,
        "ratio_bound": cs > 0.0
        and mp.x11_sq / cs <= 0.5 * zeta ** (-kappa),
        "slack_lower": cs >= 8.0 * zeta ** (2.0 * kappa),
    }
    det_val = float(det2(mp.b0 - delta1 * mp.b1))
    hyp["determinant"] = det_val >= 3.0 * zeta * zeta * (1.0 - 1e-9)
    rot_margin = math.sqrt(max(det_val, 0.0)) - 1.5 * zeta
    hyp["rotation_positive"] = rot_margin > 0.0
    return {
        "rotation_margin": rot_margin,
        "determinant_value": det_val,
        "predicted_gap_upper": delta1,
        "hypotheses": hyp,
        "failed": [name for name, ok in hyp.items() if not ok],
    }


def gap_edge_step(V: FourierSeries, freq: Frequency, m, edge: float,
                  window: float) -> dict:
    """Gap-edge datum zeta and its predicted local gap bound.

    edge is the resolved right edge of the gap labelled m, to accuracy
    window.  The transfer cocycle is taken one window into the gap, at
    edge - window, which keeps the rotation number locked while the trace
    defect stays within the relaxed parabolic slack max(1e-6, 20 window).
    The averaged transfer matrix there must be elliptic, |E - mean V| < 2,
    which puts the energy strictly inside the spectrum's convex hull, and
    the exact cocycle must pass _admit_edge: its rotation number must
    match m.  It is then written as R_rho e^{f} around the elliptic
    normal form of its average and reduced to the parabolic normal form.

    Returns {"mp", "bound"}: the MoserPoschelData of the step at the
    edge datum zeta (mp.zeta) and its gap_edge_bound.
    """
    m = _gap_label(m, freq)
    e_reduce = edge - window
    mean_v = float(V.mean().real)
    const = np.array([[e_reduce - mean_v, -1.0], [1.0, 0.0]])
    info = eigen_rho(const)
    if info["kind"] != "elliptic":
        raise ReductionError(
            "averaged transfer matrix at the gap edge is not elliptic; "
            "no rotation normal form to expand around")
    _admit_edge(V, freq, m, e_reduce)
    Q, turn = _elliptic_conjugator(const, info["rho"])
    A = rotation(turn)
    band = max(V.support_radius(), 1)
    v_vals, = _mesh_values(_grid(4 * band), 1, V)
    logs = log_sl2(inv2(A) @ (inv2(Q) @ transfer_matrices(e_reduce, v_vals)
                              @ Q))
    f = _extract_series(logs, freq.dim, 4 * band, period=1)

    reduced = reduce_to_parabolic(A, f, freq, m,
                                  parabolic_tol=max(1e-6, 20.0 * window))
    zeta = float(reduced["zeta"])
    if not 0.0 < zeta < 0.5:
        raise ReductionError(
            f"edge datum zeta={zeta:.3e} leaves (0, 1/2); the perturbation "
            "step is not defined on this side of the gap")
    mp = moser_poschel_step(reduced["B"], zeta)
    return {"mp": mp, "bound": gap_edge_bound(mp)}
