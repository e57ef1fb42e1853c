"""Frequencies and truncated Fourier series on the torus.

A sampling function V: T^d -> R (or a 2x2-matrix-valued map) is stored as a
truncated Fourier series

    f(theta) = sum_{|n| <= N} c_n e^{2 pi i <n, theta> / p}

with |n| the sup-norm on Z^d throughout, p = 1 for functions on T^d and
p = 2 on the double cover 2T^d (half-integer harmonics).  Reality is the
pairing c_{-n} = conj(c_n).  The coefficients are two read-only arrays,
the modes n (rows, d) in lexicographic order and the values c_n, (rows,)
or (rows, 2, 2); a mapping is stacked into them once, and from_arrays
takes them as they are.

A series has two evaluators, and both return real values.  At points,
evaluate sums over the half-mode set (n with n > -n, and n = 0) with the
pair sums S_n = c_n + conj(c_{-n}):

    Re f(theta) = Re c_0 + sum_n (cos phi_n Re S_n - sin phi_n Im S_n),

phi_n = 2 pi <n, theta> / p.  On meshes, on_mesh takes one inverse FFT.
Both read one reality check on the coefficients, made once per series,

    |Im c_0| + sum_n ||c_n - conj(c_{-n})|| <= 1e-10 (1 + sum_m ||c_m||),

n over the half modes other than 0, m over every mode, ||.|| the largest
entry modulus; its left side bounds |Im f| at every point of the torus.

The C^k size of f is the coefficient bound (ck_norm)

    max_{|j|_1 <= k} sum_n prod_i |2 pi n_i / p|^{j_i} * |c_n|,

which bounds every partial derivative of order <= k from above; every
theorem-style comparison reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DiophantineRejection, SizeError
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


# largest sup-norm ball integer_ball builds; the Diophantine scan peaks at
# 40-50 bytes a row, so about 100 MB at the cap
_BALL_ROWS_CAP = 2 ** 21


def ball_rows(dim: int, radius: int) -> int:
    """Rows of integer_ball(dim, radius), or ValueError above the cap."""
    rows = max(2 * int(radius) + 1, 0) ** dim
    if rows > _BALL_ROWS_CAP:
        raise ValueError(f"sup-norm radius {radius} needs {rows} ball rows "
                         f"in {dim}-D, above the cap {_BALL_ROWS_CAP}")
    return rows


# largest array, in elements, that a size taken from a config may ask
# for: 2**20 float64 values are 8 MB
_ELEMENT_CAP = 2 ** 20


def array_elements(what: str, count) -> None:
    """SizeError when count, the elements of the array that what needs,
    exceeds _ELEMENT_CAP; callers check before they allocate."""
    if count > _ELEMENT_CAP:
        raise SizeError(f"{what} needs {count:.6g} array elements, above "
                        f"the cap {_ELEMENT_CAP}")


def integer_ball(dim: int, radius: int) -> np.ndarray:
    """Every n in Z^dim with |n|_inf <= radius, shape (count, dim).

    Rows come in lexicographic order, the order of itertools.product over
    range(-radius, radius + 1).  The one enumerator of the sup-norm ball:
    Diophantine scan, gap labels, resonance sites and KAM mode tables.
    Raises ValueError (ball_rows), before anything is allocated, for a
    ball of more than _BALL_ROWS_CAP rows.
    """
    ball_rows(dim, radius)
    axis = np.arange(-radius, radius + 1)
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, dim)


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
    the required bound; ValueError for inadmissible inputs, including a
    ball over the integer_ball cap, before the ball is built.
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
    ball = integer_ball(d, cutoff)
    first = ball[np.arange(len(ball)), np.argmax(ball != 0, axis=1)]
    ball = ball[first > 0]
    size = np.abs(ball).max(axis=1)
    order = np.argsort(size, kind="stable")
    ball, size = ball[order], size[order]
    dist = dist_to_int(ball @ np.asarray(alpha))
    required = gamma / size.astype(float) ** tau
    bad = np.flatnonzero(dist < required)
    if bad.size:
        i = bad[0]
        raise DiophantineRejection(ball[i], dist[i], required[i])
    return Frequency(alpha=alpha, gamma=float(gamma), tau=float(tau),
                     cutoff=int(cutoff))


# fixed low-discrepancy generators, one per torus dimension (d <= 3)
_PHASE_GENS = (math.sqrt(2.0) - 1.0, math.sqrt(3.0) - 1.0,
               math.sqrt(5.0) - 2.0)


def phase_samples(dim: int, count: int) -> np.ndarray:
    """Deterministic Kronecker phase samples theta_j = j * omega mod 1."""
    gens = np.array(_PHASE_GENS[:dim])
    return (np.arange(count, dtype=float)[:, None] * gens[None, :]) % 1.0


@dataclass(frozen=True)
class _HalfModes:
    """A series as Re c_0 + sum_n (cos phi_n Re S_n - sin phi_n Im S_n)
    over its half-mode set, n > -n and n = 0, with S_n = c_n +
    conj(c_{-n}) and S_0 = Re c_0; values are columns, 1 for a scalar
    series and 4 for the entries of a 2x2 one."""

    modes: np.ndarray  # (half modes, dim), floats for the phase matmul
    plus: np.ndarray  # c_n as stored, 0 if absent (symmetrized reads)
    minus: np.ndarray  # c_{-n} as stored, 0 if absent (likewise)
    cos: np.ndarray  # Re S_n
    sin: np.ndarray | None  # Im S_n, None when every Im S_n is 0
    imag_bound: float  # |Im c_0| + sum_n ||c_n - conj(c_{-n})|| >= |Im f|
    tolerance: float  # 1e-10 (1 + sum over every n of ||c_n||)
    worst: float  # largest entry modulus of any c_n - conj(c_{-n})


def _as_key(n) -> tuple:
    return (n,) if np.ndim(n) == 0 else tuple(n)


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
        complex 2x2 array, stacked once into the arrays below.
    period : int
        1 for T^d, 2 for the double cover (harmonics e^{pi i <n, theta>}).

    The series is stored as two read-only arrays, since the half-mode
    sums are cached from them: ``modes``, int64 of shape (rows, d) in
    lexicographic order with no row twice, and ``values``, complex of
    shape (rows,) or (rows, 2, 2), row i the coefficient of mode i.
    from_arrays builds a series from such arrays; operations return new
    series.
    """

    __slots__ = ("dim", "radius", "period", "modes", "values", "_half")

    def __init__(self, dim: int, radius: int, coeffs, period: int = 1):
        keys = [_as_key(key) for key in coeffs]
        for k in keys:
            if len(k) != dim:
                raise ValueError(f"coefficient index {k} has wrong dimension")
        self._store(dim, radius,
                    np.array(keys).reshape(len(keys), dim),
                    list(coeffs.values()), period)

    @classmethod
    def from_arrays(cls, dim: int, radius: int, modes, values,
                    period: int = 1) -> "FourierSeries":
        """Series with coefficient values[i] at mode modes[i]: modes of
        shape (rows, dim), values of shape (rows,) or (rows, 2, 2), rows
        in any order and no mode twice."""
        series = cls.__new__(cls)
        series._store(dim, radius, modes, values, period)
        return series

    def _store(self, dim, radius, modes, values, period) -> None:
        """The one check and store behind both constructors."""
        if not 1 <= dim <= 3:
            raise ValueError(f"dim must be 1..3, got {dim}")
        if radius < 0:
            raise ValueError("radius must be >= 0")
        if period not in (1, 2):
            raise ValueError("period must be 1 (torus) or 2 (double cover)")
        # the default on_mesh (the det check), no smaller than sup_norm's mesh
        array_elements(f"modes up to |n| = {radius} in {dim}-D",
                       (4 * max(radius, 1) + 1) ** dim)
        raw, modes = modes, np.asarray(modes).astype(np.int64)
        if not np.array_equal(modes, raw):
            raise ValueError("modes must be integers")
        try:
            values = np.asarray(values, dtype=complex)
        except ValueError as exc:
            raise ValueError("mixed or malformed coefficients: not all "
                             "scalars or all 2x2") from exc
        if modes.ndim != 2 or modes.shape[1] != dim:
            raise ValueError(f"mode rows of shape {modes.shape} have wrong "
                             f"dimension for {dim}-D")
        if values.shape[1:] not in ((), (2, 2)) \
                or values.shape[:1] != modes.shape[:1]:
            raise ValueError(f"coefficients of shape {values.shape} must be "
                             f"scalar or 2x2, one per mode of {len(modes)}")
        outside = (np.abs(modes) > radius).any(axis=1)
        if outside.any():
            raise ValueError(f"coefficient index {modes[outside][0].tolist()} "
                             f"outside radius {radius}")
        order = np.lexsort(modes.T[::-1])
        modes, values = modes[order], values[order]
        twice = (modes[1:] == modes[:-1]).all(axis=1)
        if twice.any():
            raise ValueError(f"mode {modes[1:][twice][0].tolist()} appears "
                             "twice")
        self.dim = int(dim)
        self.radius = int(radius)
        self.period = int(period)
        modes.flags.writeable = values.flags.writeable = False
        self.modes, self.values = modes, values
        self._half = None

    @property
    def is_matrix(self) -> bool:
        return self.values.ndim == 3

    def mean(self):
        """The zero-mode coefficient c_0 (0 when the series has none)."""
        zero = ~self.modes.any(axis=1)
        if zero.any():
            return self.values[zero][0]
        return np.zeros(self.values.shape[1:], dtype=complex)

    def _half_modes(self) -> "_HalfModes":
        """The series as a real sum over its half-mode set, built once by
        vectorized pairing of the coefficient rows: the one place that
        pairs n with -n."""
        if self._half is None:
            modes = self.modes
            values = self.values.reshape(len(modes), 4 if self.is_matrix
                                         else 1)
            # the first nonzero coordinate; 0 only for n = 0
            first = modes[np.arange(len(modes)),
                          np.argmax(modes != 0, axis=1)]
            rep = np.where(first[:, None] < 0, -modes, modes)
            # one sort of lexicographic codes, exact below the mode cap
            code = (rep + self.radius) @ (2.0 * self.radius + 1.0) ** \
                np.arange(self.dim - 1, -1, -1)
            _, index, slot = np.unique(code, return_index=True,
                                       return_inverse=True)
            half = rep[index].astype(float)
            plus = np.zeros((len(half), values.shape[1]), dtype=complex)
            minus = np.zeros_like(plus)
            plus[slot[first >= 0]] = values[first >= 0]
            minus[slot[first <= 0]] = values[first <= 0]
            # n = 0 is its own partner: halving gives S_0 = Re c_0 and the
            # defect term |Im c_0|
            weight = np.where(first[index] == 0, 0.5, 1.0)
            partner = np.conj(minus)
            pair = weight[:, None] * (plus + partner)
            defect = np.abs(plus - partner).max(axis=1)
            self._half = _HalfModes(
                half, plus, minus, pair.real,
                pair.imag if np.any(pair.imag) else None,
                float(weight @ defect),
                1e-10 * (1.0 + float(np.sum(np.abs(values).max(axis=1)))),
                float(np.max(defect, initial=0.0)))
        return self._half

    def _real_half_modes(self) -> "_HalfModes":
        """_half_modes(), or ValueError when the reality check fails."""
        half = self._half_modes()
        if half.imag_bound > half.tolerance:
            raise ValueError(f"imaginary part up to {half.imag_bound:.3e} "
                             "exceeds tolerance; series violates the "
                             "reality pairing")
        return half

    def support_radius(self) -> int:
        """Largest |n|_inf carrying a nonzero coefficient."""
        nonzero = (np.abs(self.values) > 0.0).any(
            axis=tuple(range(1, self.values.ndim)))
        return int(np.abs(self.modes[nonzero]).max(initial=0))

    # ---- evaluation ------------------------------------------------------

    def evaluate(self, theta):
        """Real value(s) at the points theta, shape (..., dim), or (...)
        when d = 1: the real sum over the half-mode set.  The phase matrix
        is built in row chunks of at most _ELEMENT_CAP elements, so memory
        stays bounded for any point count."""
        theta = np.asarray(theta, dtype=float)
        if self.dim == 1 and (theta.ndim == 0 or theta.shape[-1] != 1):
            theta = theta[..., None]
        half = self._real_half_modes()
        flat = theta.reshape(-1, self.dim)
        rows = max(_ELEMENT_CAP // max(len(half.modes), 1), 1)
        parts = []
        for i in range(0, max(len(flat), 1), rows):
            phase = flat[i:i + rows] @ half.modes.T
            phase *= _TWO_PI / self.period
            sin = None if half.sin is None else np.sin(phase)
            part = np.cos(phase, out=phase) @ half.cos
            if sin is not None:
                part -= sin @ half.sin
            parts.append(part)
            # free this chunk's matrices before the next chunk is built
            del phase, sin
        out = parts[0] if len(parts) == 1 else np.concatenate(parts)
        out = out.reshape(theta.shape[:-1] + ((2, 2) if self.is_matrix
                                              else ()))
        return float(out) if out.ndim == 0 else out

    def on_mesh(self, g: int | None = None) -> np.ndarray:
        """Real values on the g^d equispaced mesh of [0, period)^d, shaped
        (g,) * d plus the value shape, by one inverse FFT; aliased modes
        accumulate in row order, so any support gives the direct sum's
        values.  g defaults to 4 radius + 1."""
        g = 4 * max(self.radius, 1) + 1 if g is None else int(g)
        self._real_half_modes()
        buf = np.zeros((g,) * self.dim + self.values.shape[1:],
                       dtype=complex)
        np.add.at(buf, tuple(np.mod(self.modes, g).T), self.values)
        return (np.fft.ifftn(buf, axes=tuple(range(self.dim)))
                * float(g ** self.dim)).real

    def sup_norm(self) -> float:
        """Max of |f| (scalar) or the spectral norm (matrix) on the mesh of
        4 support_radius + 1 points per axis, which no nonzero mode aliases."""
        size = norm2 if self.is_matrix else np.abs
        g = 4 * max(self.support_radius(), 1) + 1
        return float(np.max(size(self.on_mesh(g))))

    # ---- structure checks ------------------------------------------------

    def reality_defect(self) -> float:
        """Largest entry modulus of any c_n - conj(c_{-n})."""
        return self._half_modes().worst

    def traceless_defect(self) -> float:
        if not self.is_matrix:
            raise ValueError("trace defect is defined for matrix series")
        return float(np.max(np.abs(self.values[:, 0, 0]
                                   + self.values[:, 1, 1]), initial=0.0))

    def symmetrized(self) -> "FourierSeries":
        """Project onto the real subspace: c_n <- (c_n + conj(c_{-n})) / 2,
        on the union of the modes n and -n, read off the half-mode
        pairing."""
        half = self._half_modes()
        plus, minus = half.plus, half.minus
        # rows at -n from the stored pair: conj(S_n) flips zero signs
        off = half.modes.any(axis=1)
        return FourierSeries.from_arrays(
            self.dim, self.radius,
            np.concatenate([half.modes, -half.modes[off]]),
            np.concatenate([plus + np.conj(minus),
                            minus[off] + np.conj(plus[off])]).reshape(
                (-1,) + self.values.shape[1:]) / 2.0,
            self.period)

    # ---- algebra ---------------------------------------------------------

    def shifted(self, delta) -> "FourierSeries":
        """Series of theta -> f(theta + delta)."""
        delta = np.asarray(delta, dtype=float).reshape(self.dim)
        phase = np.exp((_TWO_PI * 1j / self.period) * (self.modes @ delta))
        return FourierSeries.from_arrays(
            self.dim, self.radius, self.modes,
            phase.reshape((-1,) + (1,) * (self.values.ndim - 1))
            * self.values, self.period)


def cosine_polynomial(terms, dim: int = 1) -> FourierSeries:
    """Real even trigonometric polynomial sum_n a_n cos(2 pi <n, theta>).

    ``terms`` maps a mode n (a tuple, or a bare int for d = 1) to the
    amplitude a_n.  Each a_n is stored at n and symmetrized, which halves
    it onto n and -n and keeps a_0 whole.
    """
    coeffs = {}
    for key, amp in terms.items():
        k = _as_key(key)
        coeffs[k] = coeffs.get(k, 0.0) + amp
    radius = max((abs(v) for k in coeffs for v in k), default=0)
    return FourierSeries(dim, radius, coeffs).symmetrized()


def ck_potential(eps: float, k: int, modes) -> FourierSeries:
    """C^k profile sum_n eps n^-k cos(2 pi n theta) over the given modes."""
    if not eps > 0.0 or k < 0 or any(n < 1 for n in modes):
        raise ValueError("ck potential needs epsilon > 0, k >= 0 and every "
                         f"mode >= 1, got {eps!r}, {k!r}, {list(modes)!r}")
    return cosine_polynomial({n: eps * float(n) ** (-k) for n in modes})


def amo_potential(coupling: float) -> FourierSeries:
    """Almost Mathieu sampling function V(theta) = 2 * coupling * cos(2 pi theta)."""
    return cosine_polynomial({1: 2.0 * coupling})


def ck_norm(f: FourierSeries, k: int) -> float:
    """Coefficient bound for the C^k norm of f: the largest, over j >= 0
    with |j|_1 <= k, of sum_n prod_i |2 pi n_i / p|^{j_i} ||c_n||, where
    ||c_n|| is the modulus or, for a matrix series, the spectral norm."""
    if k < 0:
        raise ValueError("k must be >= 0")
    modes, values = f.modes, f.values
    scale = _TWO_PI / f.period
    coeff_norm = norm2(values) if f.is_matrix else np.abs(values)
    js = integer_ball(f.dim, k)
    bound = 0.0
    for j in js[(js >= 0).all(axis=1) & (js.sum(axis=1) <= k)].tolist():
        deriv_mag = np.ones(modes.shape[0])
        for axis, power in enumerate(j):
            if power:
                deriv_mag *= np.abs(scale * modes[:, axis]) ** power
        # np.maximum, unlike max, keeps a NaN
        bound = float(np.maximum(bound, np.sum(deriv_mag * coeff_norm)))
    return bound
