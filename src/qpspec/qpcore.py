"""Frequencies, truncated Fourier series, and smoothing on the torus.

A sampling function V: T^d -> R (or a 2x2-matrix-valued map) is stored as a
truncated Fourier series

    f(theta) = sum_{|n| <= N} c_n e^{2 pi i <n, theta> / p}

with |n| the sup-norm on Z^d throughout, p = 1 for functions on T^d and
p = 2 on the double cover 2T^d (half-integer harmonics).  Reality is the
pairing c_{-n} = conj(c_n).

The C^k size of f is reported as a two-sided pair: a grid lower bound (sup of
all partial derivatives up to order k on a fixed evaluation grid) and the
conservative coefficient upper bound

    max_{|j| <= k} sum_n prod_i |2 pi n_i / p|^{j_i} * |c_n|.

Theorem-style comparisons always consume the upper bound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DiophantineRejection
from .mat2 import norm2

_TWO_PI = 2.0 * math.pi


def dist_to_int(x):
    """Distance from x (elementwise) to the nearest integer."""
    x = np.asarray(x, dtype=float)
    frac = x - np.floor(x)
    d = np.minimum(frac, 1.0 - frac)
    if d.ndim == 0:
        return float(d)
    return d


def _sup_ball(dim: int, cutoff: int):
    """Nonzero integer vectors with |n|_inf <= cutoff, one per {n, -n} pair.

    Deterministic order: by sup-norm shell, then lexicographic; the canonical
    representative has a positive first nonzero component.
    """
    for r in range(1, cutoff + 1):
        for n in itertools.product(range(-r, r + 1), repeat=dim):
            if max(abs(v) for v in n) != r:
                continue
            first = next(v for v in n if v != 0)
            if first < 0:
                continue
            yield n


@dataclass(frozen=True)
class Frequency:
    """Validated Diophantine frequency vector.

    Satisfies dist(<n, alpha>, Z) >= gamma / |n|^tau for all integer n with
    0 < |n| <= cutoff (sup-norm).  Construct through
    :func:`diophantine_check`, which performs the scan.
    """

    alpha: tuple
    gamma: float
    tau: float
    cutoff: int

    @property
    def dim(self) -> int:
        return len(self.alpha)

    @property
    def vec(self) -> np.ndarray:
        return np.asarray(self.alpha, dtype=float)

    def orbit(self, theta, steps) -> np.ndarray:
        """Orbit points theta + n * alpha (not reduced mod 1).

        theta holds one phase, shape (dim,), or a stack of phases, shape
        (..., dim); a scalar or length-1 last axis is broadcast to every
        coordinate.  steps is an integer or an integer array.  The result
        has shape theta.shape[:-1] + steps.shape + (dim,).
        """
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        steps = np.asarray(steps, dtype=float)
        lead = theta.shape[:-1] + (1,) * steps.ndim + theta.shape[-1:]
        return theta.reshape(lead) + steps[..., None] * self.vec


def diophantine_check(alpha, gamma: float, tau: float, cutoff: int) -> Frequency:
    """Scan the sup-norm ball and return a validated Frequency.

    Raises DiophantineRejection carrying the first violating n (shell order,
    lexicographic, canonical sign) together with the observed distance and
    the required bound.
    """
    alpha = tuple(float(a) for a in np.atleast_1d(np.asarray(alpha, dtype=float)))
    d = len(alpha)
    if not 1 <= d <= 3:
        raise ValueError(f"frequency dimension must be 1..3, got {d}")
    if not all(0.0 <= a < 1.0 for a in alpha):
        raise ValueError("frequency components must lie in [0, 1)")
    if gamma <= 0.0 or tau <= 0.0:
        raise ValueError("gamma and tau must be positive")
    if cutoff < 1:
        raise ValueError("check cutoff must be >= 1")
    avec = np.asarray(alpha)
    for n in _sup_ball(d, cutoff):
        x = float(np.dot(n, avec))
        dist = dist_to_int(x)
        required = gamma / float(max(abs(v) for v in n)) ** tau
        if dist < required:
            raise DiophantineRejection(n, dist, required)
    return Frequency(alpha=alpha, gamma=float(gamma), tau=float(tau),
                     cutoff=int(cutoff))


# fixed low-discrepancy generators, one per torus dimension (d <= 3)
_PHASE_GENS = (math.sqrt(2.0) - 1.0, math.sqrt(3.0) - 1.0,
               math.sqrt(5.0) - 2.0)


def phase_samples(dim: int, count: int) -> np.ndarray:
    """Deterministic Kronecker phase samples theta_j = j * omega mod 1."""
    gens = np.array(_PHASE_GENS[:dim])
    return (np.arange(count, dtype=float)[:, None] * gens[None, :]) % 1.0


def _as_key(n) -> tuple:
    if isinstance(n, (int, np.integer)):
        return (int(n),)
    return tuple(int(v) for v in n)


class FourierSeries:
    """Truncated Fourier series, scalar or 2x2-matrix valued.

    Parameters
    ----------
    dim : int
        Torus dimension d (1..3).
    radius : int
        Truncation bound N: coefficients live on |n|_inf <= N.
    coeffs : mapping
        Integer vector (tuple, or bare int when d = 1) -> complex scalar or
        complex 2x2 array.  Keys outside the radius raise.
    period : int
        1 for T^d, 2 for the double cover (harmonics e^{pi i <n, theta>}).

    Instances are treated as immutable; operations return new series.
    """

    __slots__ = ("dim", "radius", "period", "coeffs", "_modes", "_values",
                 "_is_matrix")

    def __init__(self, dim: int, radius: int, coeffs, period: int = 1):
        if not 1 <= dim <= 3:
            raise ValueError(f"dim must be 1..3, got {dim}")
        if radius < 0:
            raise ValueError("radius must be >= 0")
        if period not in (1, 2):
            raise ValueError("period must be 1 (torus) or 2 (double cover)")
        self.dim = int(dim)
        self.radius = int(radius)
        self.period = int(period)
        norm: dict = {}
        is_matrix = None
        for key, val in coeffs.items():
            k = _as_key(key)
            if len(k) != self.dim:
                raise ValueError(f"coefficient index {k} has wrong dimension")
            if max((abs(v) for v in k), default=0) > self.radius:
                raise ValueError(f"coefficient index {k} outside radius {radius}")
            v = np.asarray(val, dtype=complex)
            if v.shape == ():
                kind = False
            elif v.shape == (2, 2):
                kind = True
            else:
                raise ValueError(f"coefficient at {k} must be scalar or 2x2")
            if is_matrix is None:
                is_matrix = kind
            elif is_matrix != kind:
                raise ValueError("mixed scalar and matrix coefficients")
            norm[k] = complex(v) if not kind else v
        self.coeffs = {k: norm[k] for k in sorted(norm)}
        self._modes = None
        self._values = None
        self._is_matrix = bool(is_matrix) if is_matrix is not None else False

    # coeffs may be empty; default kind is scalar
    @property
    def is_matrix(self) -> bool:
        return self._is_matrix

    def _arrays(self):
        if self._modes is None:
            if self.coeffs:
                self._modes = np.array(list(self.coeffs.keys()), dtype=float)
                self._values = np.array(list(self.coeffs.values()),
                                        dtype=complex)
            else:
                self._modes = np.zeros((0, self.dim))
                shape = (0, 2, 2) if self.is_matrix else (0,)
                self._values = np.zeros(shape, dtype=complex)
        return self._modes, self._values

    def support_radius(self) -> int:
        """Largest |n|_inf carrying a nonzero coefficient."""
        r = 0
        for k, v in self.coeffs.items():
            if np.any(np.abs(v) > 0.0):
                r = max(r, max(abs(x) for x in k))
        return r

    # ---- evaluation ------------------------------------------------------

    def evaluate_complex(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if self.dim == 1 and (theta.ndim == 0 or theta.shape[-1] != 1):
            theta = theta[..., None]
        modes, values = self._arrays()
        phase = np.exp((_TWO_PI * 1j / self.period) * (theta @ modes.T))
        if self.is_matrix:
            return np.einsum("...k,kij->...ij", phase, values)
        return phase @ values

    def evaluate(self, theta):
        """Real value(s) at theta; asserts the imaginary residue is tiny."""
        z = self.evaluate_complex(theta)
        scale = 1.0 + float(np.max(np.abs(z))) if z.size else 1.0
        imag = float(np.max(np.abs(z.imag))) if z.size else 0.0
        if imag > 1e-10 * scale:
            raise ValueError(
                f"imaginary residue {imag:.3e} exceeds tolerance; "
                "series violates the reality pairing")
        out = z.real
        if out.ndim == 0:
            return float(out)
        return out

    def grid_points(self) -> np.ndarray:
        """Fixed evaluation grid: 4*radius + 1 points per dimension."""
        m = 4 * max(self.radius, 1) + 1
        axes = [np.arange(m) * (self.period / m) for _ in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1).reshape(-1, self.dim)

    def sup_norm(self) -> float:
        """Grid sup of |f| (scalar) or the spectral norm (matrix)."""
        vals = self.evaluate_complex(self.grid_points())
        if self.is_matrix:
            return float(np.max(norm2(vals))) if vals.size else 0.0
        return float(np.max(np.abs(vals))) if vals.size else 0.0

    # ---- structure checks ------------------------------------------------

    def reality_defect(self) -> float:
        worst = 0.0
        for k, v in self.coeffs.items():
            mk = tuple(-x for x in k)
            w = self.coeffs.get(mk, np.zeros_like(v) if self.is_matrix else 0j)
            worst = max(worst, float(np.max(np.abs(np.conj(w) - v))))
        return worst

    def traceless_defect(self) -> float:
        if not self.is_matrix:
            raise ValueError("trace defect is defined for matrix series")
        worst = 0.0
        for v in self.coeffs.values():
            worst = max(worst, abs(complex(v[0, 0] + v[1, 1])))
        return worst

    def symmetrized(self) -> "FourierSeries":
        """Project onto the real subspace: c_n <- (c_n + conj(c_{-n})) / 2."""
        out = {}
        zero = np.zeros((2, 2), dtype=complex) if self.is_matrix else 0j
        keys = set(self.coeffs)
        keys |= {tuple(-x for x in k) for k in keys}
        for k in keys:
            a = self.coeffs.get(k, zero)
            b = self.coeffs.get(tuple(-x for x in k), zero)
            out[k] = (a + np.conj(b)) / 2.0
        return FourierSeries(self.dim, self.radius, out, self.period)

    # ---- algebra ---------------------------------------------------------

    def _binary(self, other: "FourierSeries", sign: float) -> "FourierSeries":
        if (self.dim, self.period, self.is_matrix) != (
                other.dim, other.period, other.is_matrix):
            raise ValueError("incompatible series")
        out = dict(self.coeffs)
        zero = np.zeros((2, 2), dtype=complex) if self.is_matrix else 0j
        for k, v in other.coeffs.items():
            out[k] = out.get(k, zero) + sign * v
        return FourierSeries(self.dim, max(self.radius, other.radius), out,
                             self.period)

    def __add__(self, other):
        return self._binary(other, +1.0)

    def __sub__(self, other):
        return self._binary(other, -1.0)

    def shifted(self, delta) -> "FourierSeries":
        """Series of theta -> f(theta + delta)."""
        delta = np.asarray(delta, dtype=float).reshape(self.dim)
        out = {}
        for k, v in self.coeffs.items():
            ph = np.exp((_TWO_PI * 1j / self.period) * float(np.dot(k, delta)))
            out[k] = ph * v
        return FourierSeries(self.dim, self.radius, out, self.period)

    def __eq__(self, other):
        if not isinstance(other, FourierSeries):
            return NotImplemented
        if (self.dim, self.period, self.is_matrix) != (
                other.dim, other.period, other.is_matrix):
            return False
        keys = set(self.coeffs) | set(other.coeffs)
        zero = np.zeros((2, 2), dtype=complex) if self.is_matrix else 0j
        for k in keys:
            a = self.coeffs.get(k, zero)
            b = other.coeffs.get(k, zero)
            if np.any(a != b):
                return False
        return True

    def __hash__(self):  # content equality makes instances unhashable
        raise TypeError("FourierSeries is not hashable")



def cosine_polynomial(terms, dim: int = 1) -> FourierSeries:
    """Real even trigonometric polynomial sum_n a_n cos(2 pi <n, theta>).

    ``terms`` maps the (positive-representative) mode n to the amplitude a_n;
    bare ints are accepted for d = 1.
    """
    coeffs = {}
    radius = 0
    for key, amp in terms.items():
        k = _as_key(key)
        if len(k) != dim:
            raise ValueError(f"mode {k} has wrong dimension")
        mk = tuple(-v for v in k)
        if k == mk:
            # zero mode: cos(0) = 1 contributes the full amplitude
            coeffs[k] = coeffs.get(k, 0j) + complex(amp)
        else:
            coeffs[k] = coeffs.get(k, 0j) + amp / 2.0
            coeffs[mk] = coeffs.get(mk, 0j) + amp / 2.0
        radius = max(radius, max(abs(v) for v in k))
    return FourierSeries(dim, radius, coeffs)


def amo_potential(coupling: float) -> FourierSeries:
    """Almost Mathieu sampling function V(theta) = 2 * coupling * cos(2 pi theta)."""
    return cosine_polynomial({1: 2.0 * coupling})


@dataclass(frozen=True)
class CkNorm:
    """Two-sided report of the C^k size of a series.

    lower: sup over the fixed evaluation grid of all partial derivatives of
    order <= k (a true lower bound for the C^k norm).
    upper: coefficient-sum bound (a true upper bound); conservative side used
    in every theorem-shaped comparison.
    """

    k: int
    lower: float
    upper: float


def _multi_indices(dim: int, k: int):
    for total in range(k + 1):
        for j in itertools.product(range(total + 1), repeat=dim):
            if sum(j) == total:
                yield j


def ck_norm(f: FourierSeries, k: int) -> CkNorm:
    """Grid lower bound and coefficient upper bound for the C^k norm."""
    if k < 0:
        raise ValueError("k must be >= 0")
    modes, values = f._arrays()
    if values.size == 0:
        return CkNorm(k=k, lower=0.0, upper=0.0)
    pts = f.grid_points()
    phase = np.exp((_TWO_PI * 1j / f.period) * (pts @ modes.T))
    scale = _TWO_PI / f.period
    if f.is_matrix:
        coeff_norm = np.linalg.svd(values, compute_uv=False)[..., 0]
    else:
        coeff_norm = np.abs(values)
    lower = 0.0
    upper = 0.0
    for j in _multi_indices(f.dim, k):
        deriv_mag = np.ones(modes.shape[0])
        deriv_fac = np.ones(modes.shape[0], dtype=complex)
        for axis, power in enumerate(j):
            if power:
                deriv_mag *= np.abs(scale * modes[:, axis]) ** power
                deriv_fac *= (1j * scale * modes[:, axis]) ** power
        upper = max(upper, float(np.sum(deriv_mag * coeff_norm)))
        if f.is_matrix:
            grid_vals = np.einsum("pk,kij->pij", phase, deriv_fac[:, None, None]
                                  * values)
            lower = max(lower, float(np.max(norm2(grid_vals))))
        else:
            grid_vals = phase @ (deriv_fac * values)
            lower = max(lower, float(np.max(np.abs(grid_vals))))
    return CkNorm(k=k, lower=lower, upper=upper)


def smooth_truncate(f: FourierSeries, j: int) -> FourierSeries:
    """Band projection onto |n|_inf <= j.

    The projection is idempotent, acts as the identity whenever the support
    already fits inside the band, and for coefficients with C^k-type decay
    the discarded tail obeys || f_j - f ||_0 <= sum_{|n| > j} |c_n| and
    || f_{j+1} - f_j || <= C j^{-k} ||f||_k.
    """
    if j < 0:
        raise ValueError("truncation radius must be >= 0")
    if j >= f.radius:
        return f
    kept = {k: v for k, v in f.coeffs.items()
            if max((abs(x) for x in k), default=0) <= j}
    return FourierSeries(f.dim, j, kept, f.period)
