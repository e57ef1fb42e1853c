"""Truncated-operator eigenvalue counting, the IDS, and the spectral scan.

The operator acts on two-sided sequences by (Hu)_n = u_{n+1} + u_{n-1}
+ V(theta + n alpha) u_n; truncation to [-L, L] with zero boundary
conditions gives a symmetric tridiagonal matrix whose eigenvalue counting
function converges to the integrated density of states after phase
averaging.
"""

from __future__ import annotations

import math
import mmap
import os
from dataclasses import dataclass

import numpy as np

from .qpcore import (FourierSeries, Frequency, array_elements, ck_norm,
                     phase_samples)

__all__ = [
    "TruncatedOperator",
    "IdsCurve",
    "ids_curve",
    "spectrum_scan",
]

# upward nudge so "x <= E" is the closed inequality even at exact hits
_SHIFT_EPS = 2.0 ** -50
# pivots held per block of rows in the Sturm kernel (1 MB of floats)
_BLOCK_CELLS = 1 << 17
# mesh edges per coarse cell of the pruned wide scan
_SCAN_STRIDE = 8
# cells (rows x phases x energies) from which a Sturm pass is split over
# the CPUs: fork plus reap cost 3-5 ms, about 1e7 cells of counting
_SPLIT_CELLS = 1 << 24
# POSIX fixes SIGKILL at 9
_SIGKILL = 9


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
    def sampled(cls, V: FourierSeries, freq: Frequency, L: int,
                phases: int) -> "TruncatedOperator":
        """One diagonal per Kronecker phase sample, evaluated in one call."""
        if L < 100:
            raise ValueError("L >= 100 required")
        if phases < 1:
            raise ValueError("phases >= 1 required")
        array_elements(f"L = {L} at {phases} phases", phases * (2 * L + 1))
        pts = freq.orbit(phase_samples(freq.dim, phases),
                         np.arange(-L, L + 1))
        flat = pts.reshape(-1, freq.dim)
        diag = np.asarray(V.evaluate(flat), dtype=float)
        return cls(L, diag.reshape(phases, 2 * L + 1))

    @property
    def size(self) -> int:
        return 2 * self.L + 1

    def _counts(self, energies) -> np.ndarray:
        """(nE, phases) counts of eigenvalues <= E."""
        energies = np.atleast_1d(np.asarray(energies, dtype=float))
        if np.isnan(energies).any():
            # the kernel would count a NaN by its sign bit: 0 or every row
            raise ValueError("energies must not be NaN")
        diags = np.atleast_2d(self.diag)
        array_elements(f"{energies.size} energies at {len(diags)} phases",
                       energies.size * len(diags))
        return _pivot_counts(diags, energies)

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
    """Negative-pivot counts of the shifted LDL^T recurrence.

    diags: (phases, size) diagonals; energies: (nE,) targets.
    Returns (nE, phases) integer counts of eigenvalues <= E.

    Every Sturm pass enters here.  A pass of at least _SPLIT_CELLS cells
    (rows x phases x energies) with two or more energies is split over
    the CPUs of os.sched_getaffinity: the energies are cut into one
    contiguous chunk per CPU, and a forked child counts each chunk but
    the first, which the parent counts, straight into its rows of one
    shared anonymous mapping.  A child leaves through os._exit, status 0
    only once its rows are written, so no exit hook or buffered stream of
    the parent runs in it.  A forked child starts at once with
    the diagonals in place, where a spawned one would first import numpy
    (0.18 s); it runs only numpy ufuncs, none of the BLAS whose threads
    fork does not copy.  Anything smaller, or a platform without fork or
    sched_getaffinity, runs serially in _pivot_rows.  A chunk whose child
    cannot be forked, exits non-zero or is killed by a signal is counted
    by the parent, and a parent that raises kills and reaps its children
    first, so no process outlives a pass.  The count at one energy does
    not depend on the other energies of its pass, so the split cannot
    change a number.
    """
    energies = np.asarray(energies, dtype=float)
    phases, size = diags.shape
    parts = 1
    if (size * phases * energies.size >= _SPLIT_CELLS
            and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        parts = min(len(os.sched_getaffinity(0)), energies.size)
    if parts < 2:
        return _pivot_rows(diags, energies)
    cuts = [energies.size * i // parts for i in range(parts + 1)]
    shared = mmap.mmap(-1, energies.size * phases * 8)
    out = np.frombuffer(shared, dtype=np.int64).reshape(energies.size, phases)
    own = [(0, cuts[1])]  # the chunks this process counts
    children = {}  # pid -> chunk of every child not reaped yet
    try:
        for lo, hi in zip(cuts[1:], cuts[2:]):
            try:
                pid = os.fork()
            except OSError:
                own.append((lo, hi))
                continue
            if pid == 0:
                code = 1
                try:
                    out[lo:hi] = _pivot_rows(diags, energies[lo:hi])
                    code = 0
                finally:
                    os._exit(code)
            children[pid] = lo, hi
        for lo, hi in own:
            out[lo:hi] = _pivot_rows(diags, energies[lo:hi])
        for pid, (lo, hi) in list(children.items()):
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            if status:
                out[lo:hi] = _pivot_rows(diags, energies[lo:hi])
        return out.copy()
    finally:
        for pid in children:
            os.kill(pid, _SIGKILL)
            os.waitpid(pid, 0)
        del out  # the mapping cannot close while a view exports it
        shared.close()


def _pivot_rows(diags, energies):
    """_pivot_counts in this process: the row loop over the whole pass.

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
    cols = diags.T[:, :, None]
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
                np.reciprocal(prev, out=r)
                np.subtract(d, r, out=d)
            np.reciprocal(rows[n - 1], out=r)
            np.signbit(piv[:n], out=neg[:n])
            count += np.add.reduce(neg[:n].view(np.uint8), axis=0,
                                   dtype=np.uint8, out=tally)
    last = rows[n - 1]
    count += (last == 0.0) & ~np.signbit(last)
    return count.T


@dataclass(frozen=True)
class IdsCurve:
    energies: np.ndarray
    values: np.ndarray

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
    return IdsCurve(energies, H.ids(energies))


def _pruned_present(H: TruncatedOperator, edges) -> np.ndarray:
    """H.present(edges), from two passes that skip the empty stretches.

    The computed Sturm count is monotone in E under IEEE arithmetic
    (Kahan 1966; Demmel, Dhillon & Ren, ETNA 3 (1995)), so a coarse cell
    across which some phase's count does not rise holds no eigenvalue at
    that phase: none of its fine cells is present.  Pass 1 counts every
    _SCAN_STRIDE-th edge and the last; pass 2 counts the remaining edges
    of the live coarse cells, those where every phase's count rises.  A
    count does not depend on the energies sharing its pass, so the mask
    equals the one-pass present(edges).
    """
    n = edges.size
    coarse = np.append(np.arange(0, n - 1, _SCAN_STRIDE), n - 1)
    coarse_counts = H._counts(edges[coarse])
    live = (np.diff(coarse_counts, axis=0) >= 1).all(axis=1)
    counts = np.zeros((n, coarse_counts.shape[1]), dtype=np.int64)
    counts[coarse] = coarse_counts
    # coarse cell of every fine cell: coarse edges are multiples of the
    # stride, apart from the last edge
    cells = np.arange(n - 1)
    live_cell = live[cells // _SCAN_STRIDE]
    fine = np.flatnonzero(live_cell & (cells % _SCAN_STRIDE > 0))
    if fine.size:
        counts[fine] = H._counts(edges[fine])
    return live_cell & (np.diff(counts, axis=0) >= 1).all(axis=1)


def spectrum_scan(V: FourierSeries, freq: Frequency, L: int, phases: int,
                  resolution: float,
                  operator: TruncatedOperator | None = None):
    """Spectral intervals on a fixed energy mesh.

    The mesh covers [-2, 2] widened by ck_norm(V, 0) >= sup |V|, so it
    holds every eigenvalue.  A cell counts as spectrum when every sampled
    phase contributes an eigenvalue to it: truncation produces spurious
    boundary eigenvalues inside gaps, but those depend on the phase while
    bulk eigenvalues do not, so requiring presence at every phase
    suppresses them.  Adjacent present cells merge into maximal intervals.
    The mesh is counted coarse to fine (_pruned_present), so the stretches
    outside the hull and inside wide gaps cost one count per _SCAN_STRIDE
    cells.

    operator is TruncatedOperator.sampled(V, freq, L, phases) when the
    caller has built it already, to count on it again.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    sup_v = ck_norm(V, 0)
    lo = -2.0 - sup_v - 2.0 * resolution
    hi = 2.0 + sup_v + 2.0 * resolution
    cells = (hi - lo) / resolution
    # every phase counts at every mesh edge
    array_elements(f"resolution {resolution:g} at {phases} phases",
                   (cells + 1.0) * phases)
    n_cells = int(math.ceil(cells))
    H = operator if operator is not None else TruncatedOperator.sampled(
        V, freq, L, phases)
    if H.diag.shape != (phases, 2 * L + 1):
        raise ValueError("operator must be the (phases, 2L+1) sampled one")
    edges = lo + resolution * np.arange(n_cells + 1)
    # a run of present cells [i, j) spans edges[i] to edges[j]
    flips = np.flatnonzero(np.diff(np.pad(_pruned_present(H, edges), 1)))
    return list(zip(edges[flips[::2]].tolist(), edges[flips[1::2]].tolist()))
