"""Truncated-operator eigenvalue counting, the IDS, and its duality check.

The operator acts on two-sided sequences by (Hu)_n = u_{n+1} + u_{n-1}
+ V(theta + n alpha) u_n; truncation to [-L, L] with zero boundary
conditions gives a symmetric tridiagonal matrix whose eigenvalue counting
function converges to the integrated density of states after phase
averaging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qpcore import FourierSeries, Frequency, dist_to_int, phase_samples
from .rotnum import schrodinger_rotation_grid

__all__ = [
    "TruncatedOperator",
    "IdsCurve",
    "ids",
    "ids_curve",
    "spectrum_scan",
    "ids_rotation_consistency",
]

# upward nudge so "x <= E" is the closed inequality even at exact hits
_SHIFT_EPS = 2.0 ** -50
# pivots held per block of rows in the Sturm kernel (1 MB of floats)
_BLOCK_CELLS = 1 << 17


@dataclass(frozen=True)
class TruncatedOperator:
    """Symmetric tridiagonal restriction to the window [-L, L].

    diag has shape (2L+1,), or (phases, 2L+1) with one row per sampled
    phase; every Sturm count against the truncation goes through here.
    """

    L: int
    diag: np.ndarray

    def __post_init__(self):
        if self.diag.ndim > 2 or self.diag.shape[-1:] != (2 * self.L + 1,):
            raise ValueError("diagonal must have length 2L+1")

    @classmethod
    def build(cls, V: FourierSeries, freq: Frequency, theta,
              L: int) -> "TruncatedOperator":
        pts = freq.orbit(theta, np.arange(-L, L + 1))
        return cls(L, np.asarray(V.evaluate(pts), dtype=float))

    @classmethod
    def sampled(cls, V: FourierSeries, freq: Frequency, L: int,
                phases: int) -> "TruncatedOperator":
        """One diagonal per Kronecker phase sample, evaluated in one call."""
        if L < 100:
            raise ValueError("L >= 100 required")
        if phases < 1:
            raise ValueError("phases >= 1 required")
        pts = freq.orbit(phase_samples(freq.dim, phases),
                         np.arange(-L, L + 1))
        flat = pts.reshape(-1, freq.dim)
        diag = np.asarray(V.evaluate(flat), dtype=float)
        return cls(L, diag.reshape(phases, 2 * L + 1))

    @property
    def size(self) -> int:
        return 2 * self.L + 1

    def dense(self) -> np.ndarray:
        if self.diag.ndim != 1:
            raise ValueError("dense() needs a single-phase operator")
        m = np.diag(self.diag)
        off = np.ones(self.size - 1)
        m += np.diag(off, 1) + np.diag(off, -1)
        return m

    def _counts(self, energies) -> np.ndarray:
        """(nE, phases) counts of eigenvalues <= E."""
        energies = np.atleast_1d(np.asarray(energies, dtype=float))
        if np.isnan(energies).any():
            # the kernel would count a NaN by its sign bit: 0 or every row
            raise ValueError("energies must not be NaN")
        return _pivot_counts(np.atleast_2d(self.diag), energies)

    def ids(self, energies) -> np.ndarray:
        """Phase-averaged counting function per energy, normalized by 2L+1."""
        return self._counts(energies).mean(axis=1) / self.size

    def present(self, edges) -> np.ndarray:
        """Mask over edge cells: an eigenvalue in the cell at every phase."""
        return (np.diff(self._counts(edges), axis=0) >= 1).all(axis=1)


def _shifted(E):
    E = np.asarray(E, dtype=float)
    # no nudge at +-inf, where -inf + inf would make a NaN
    return E + np.where(np.isinf(E), 0.0, np.abs(E) * _SHIFT_EPS)


def _pivot_counts(diags, energies):
    """Negative-pivot counts of the shifted LDL^T recurrence, vectorized.

    diags: (phases, size) diagonals; energies: (nE,) targets.
    Returns (nE, phases) integer counts of eigenvalues <= E.

    The recurrence runs phase-major, (phases, nE), in place in a
    preallocated block of rows: the block is filled with the shifted
    diagonals at once, two ufunc calls per row turn them into pivots, and
    the block's sign bits are counted at once.  A zero pivot needs no
    floor: +0 sends the next pivot to -inf, which counts there, -0 counts
    itself through its sign bit, and the row after an infinite pivot
    starts afresh.  Only a +0 on the last row is left to count after the
    loop.
    """
    shift = _shifted(energies)
    phases, size = diags.shape
    cols = np.ascontiguousarray(diags.T)[:, :, None]
    cells = max(1, phases * shift.size)
    block = max(1, min(size, 255, _BLOCK_CELLS // cells))
    piv = np.empty((block, phases, shift.size))
    rows = list(piv)
    neg = np.empty(piv.shape, dtype=bool)
    tally = np.empty(rows[0].shape, dtype=np.uint8)  # a block has < 256 rows
    count = np.zeros(rows[0].shape, dtype=np.int64)
    r = np.zeros_like(rows[0])  # x - (+0) is x, so row 0 needs no case
    with np.errstate(divide="ignore"):
        for start in range(0, size, block):
            n = min(block, size - start)
            # copy, then subtract: faster than one broadcast subtract
            np.copyto(piv[:n], cols[start:start + n])
            np.subtract(piv[:n], shift, out=piv[:n])
            np.subtract(rows[0], r, out=rows[0])
            for prev, d in zip(rows, rows[1:n]):
                np.divide(1.0, prev, out=r)
                np.subtract(d, r, out=d)
            np.divide(1.0, rows[n - 1], out=r)
            np.signbit(piv[:n], out=neg[:n])
            count += np.add.reduce(neg[:n].view(np.uint8), axis=0,
                                   dtype=np.uint8, out=tally)
    last = rows[n - 1]
    count += (last == 0.0) & ~np.signbit(last)
    return count.T


def ids(V: FourierSeries, freq: Frequency, E: float, L: int,
        phases: int) -> float:
    """Phase-averaged eigenvalue counting function at one energy."""
    return float(TruncatedOperator.sampled(V, freq, L, phases).ids(E)[0])


@dataclass(frozen=True)
class IdsCurve:
    energies: np.ndarray
    values: np.ndarray
    L: int
    phases: int

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise ValueError("IDS values must be finite")
        if np.any(np.diff(self.values) < 0):
            raise ValueError("IDS curve must be non-decreasing")
        if self.values[0] < 0 or self.values[-1] > 1:
            raise ValueError("IDS values escape [0, 1]")

    def __call__(self, E):
        """Linear interpolation between grid nodes, constant beyond them."""
        return np.interp(np.asarray(E, dtype=float), self.energies,
                         self.values)


def ids_curve(V: FourierSeries, freq: Frequency, energies, L: int,
              phases: int) -> IdsCurve:
    """IDS sampled on an energy grid with one vectorized counting pass."""
    energies = np.asarray(energies, dtype=float)
    if np.any(np.diff(energies) <= 0):
        raise ValueError("energy grid must be strictly increasing")
    H = TruncatedOperator.sampled(V, freq, L, phases)
    return IdsCurve(energies, H.ids(energies), L, phases)


def spectrum_scan(V: FourierSeries, freq: Frequency, L: int, phases: int,
                  resolution: float):
    """Spectral intervals on a fixed energy mesh.

    A mesh cell counts as spectrum when every sampled phase contributes an
    eigenvalue to it: truncation produces spurious boundary eigenvalues
    inside gaps, but those depend on the phase while bulk eigenvalues do
    not, so requiring presence at every phase suppresses them.  Adjacent
    present cells merge into maximal intervals.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    H = TruncatedOperator.sampled(V, freq, L, phases)
    sup_v = float(V.sup_norm())
    lo = -2.0 - sup_v - 2.0 * resolution
    hi = 2.0 + sup_v + 2.0 * resolution
    n_cells = int(math.ceil((hi - lo) / resolution))
    edges = lo + resolution * np.arange(n_cells + 1)
    present = H.present(edges)

    intervals = []
    start = None
    for i, p in enumerate(present):
        if p and start is None:
            start = edges[i]
        elif not p and start is not None:
            intervals.append((float(start), float(edges[i])))
            start = None
    if start is not None:
        intervals.append((float(start), float(edges[-1])))
    return intervals


def ids_rotation_consistency(V: FourierSeries, freq: Frequency, E: float,
                             L: int, iters: int, phases: int = 8) -> dict:
    """Cross-check N(E) = 1 - 2 rho(E) mod Z with independent estimators."""
    n_val = ids(V, freq, E, L, phases)
    rho, rho_err = schrodinger_rotation_grid(V, freq, np.array([float(E)]),
                                             n_iters=iters)
    rho = float(rho[0])
    defect = float(dist_to_int(n_val - (1.0 - 2.0 * rho)))
    return {
        "N": n_val,
        "rho": rho,
        "defect": defect,
        "L": L,
        "iterations": iters,
        "rho_error": float(rho_err[0]),
    }
