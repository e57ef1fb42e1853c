"""Eigenvalue counting, IDS convergence, spectral scan, and duality."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest

from qpspec.qpcore import (amo_potential, cosine_polynomial, diophantine_check,
                           phase_samples)
from qpspec.spectrum import (
    IdsCurve,
    TruncatedOperator,
    _pivot_counts,
    _shifted,
    ids,
    ids_curve,
    ids_rotation_consistency,
    spectrum_scan,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@pytest.fixture(scope="module")
def freq():
    return diophantine_check(GOLDEN, gamma=0.1, tau=1.5, cutoff=60)


def _zero_potential():
    return cosine_polynomial({0: 0.0})


def free_ids(E):
    """Closed form for the free operator: N(E) = 1 - arccos(E/2)/pi."""
    E = np.clip(E, -2.0, 2.0)
    return 1.0 - np.arccos(E / 2.0) / math.pi


# ---------------------------------------------------------------------------
# counting


def eigen_count_below(h, E):
    """Number of eigenvalues <= E of a single-phase truncation."""
    return round(h.ids(E)[0] * h.size)


def test_count_three_site_free(freq):
    h = TruncatedOperator.build(_zero_potential(), freq, 0.0, 1)
    # eigenvalues -sqrt2, 0, sqrt2
    assert eigen_count_below(h, -1.5) == 0
    assert eigen_count_below(h, -1.0) == 1
    assert eigen_count_below(h, 0.5) == 2
    assert eigen_count_below(h, 10.0) == 3


def test_count_closed_inequality(freq):
    h = TruncatedOperator.build(_zero_potential(), freq, 0.0, 1)
    # exact eigenvalue hits are included by the upward nudge
    assert eigen_count_below(h, 0.0) == 2
    assert eigen_count_below(h, math.sqrt(2.0)) == 3
    assert eigen_count_below(h, -math.sqrt(2.0)) == 1


def test_count_matches_dense_solver(freq):
    V = amo_potential(0.64)
    for theta in (0.0, 0.21, 0.77):
        h = TruncatedOperator.build(V, freq, theta, 30)
        evals = np.linalg.eigvalsh(h.dense())
        for E in (-2.5, -1.0, -0.3, 0.2, 1.4, 2.9):
            assert eigen_count_below(h, E) == int((evals <= E).sum())


def test_count_monotone_and_saturates(freq):
    V = amo_potential(0.5)
    h = TruncatedOperator.build(V, freq, 0.3, 50)
    grid = np.linspace(-4.0, 4.0, 81)
    counts = [eigen_count_below(h, e) for e in grid]
    assert all(b >= a for a, b in zip(counts, counts[1:]))
    assert eigen_count_below(h, -2.0 - 1.0 - 1e-6) == 0
    assert eigen_count_below(h, 2.0 + 1.0 + 1e-6) == h.size


# ---------------------------------------------------------------------------
# IDS


def test_ids_free_midpoint(freq):
    val = ids(_zero_potential(), freq, 0.0, 2000, phases=2)
    assert val == pytest.approx(0.5, abs=1e-3)


def test_ids_free_closed_form(freq):
    val = ids(_zero_potential(), freq, 1.0, 5000, phases=2)
    assert val == pytest.approx(2.0 / 3.0, abs=2e-3)


def test_ids_outside_spectrum(freq):
    assert ids(_zero_potential(), freq, -2.5, 500, phases=2) == 0.0
    assert ids(_zero_potential(), freq, 2.5, 500, phases=2) == 1.0


def test_ids_requires_scale(freq):
    with pytest.raises(ValueError):
        ids(_zero_potential(), freq, 0.0, 50, phases=2)


def test_ids_curve_monotone(freq):
    curve = ids_curve(amo_potential(0.3), freq, np.linspace(-3, 3, 101),
                      400, phases=4)
    assert np.all(np.diff(curve.values) >= 0)
    assert curve.values[0] == 0.0
    assert curve.values[-1] == 1.0
    assert isinstance(curve, IdsCurve)


def test_ids_curve_matches_free_closed_form(freq):
    grid = np.linspace(-2.5, 2.5, 41)
    curve = ids_curve(_zero_potential(), freq, grid, 2000, phases=2)
    assert np.abs(curve.values - free_ids(grid)).max() <= 2e-3


def test_ids_L_stability(freq):
    V = amo_potential(0.3)
    rng = np.random.default_rng(31)
    grid = np.sort(rng.uniform(-2.5, 2.5, size=5))
    a = ids_curve(V, freq, grid, 300, phases=4).values
    b = ids_curve(V, freq, grid, 600, phases=4).values
    assert np.abs(a - b).max() <= 5.0 / 300.0


# ---------------------------------------------------------------------------
# scan


def test_scan_free_single_band(freq):
    intervals = spectrum_scan(_zero_potential(), freq, 5000, phases=1,
                              resolution=2.5e-3)
    assert len(intervals) == 1
    lo, hi = intervals[0]
    assert lo == pytest.approx(-2.0, abs=5e-3)
    assert hi == pytest.approx(2.0, abs=5e-3)


def test_scan_constant_shift(freq):
    intervals = spectrum_scan(cosine_polynomial({0: 0.7}), freq, 3000,
                              phases=1, resolution=5e-3)
    assert len(intervals) == 1
    lo, hi = intervals[0]
    assert lo == pytest.approx(-1.3, abs=1e-2)
    assert hi == pytest.approx(2.7, abs=1e-2)


def test_scan_amo_largest_gap_plateau(freq):
    V = amo_potential(0.3)
    intervals = spectrum_scan(V, freq, 600, phases=6, resolution=5e-3)
    assert len(intervals) >= 2
    # largest inner gap
    gaps = [(intervals[i + 1][0] - intervals[i][1], intervals[i][1],
             intervals[i + 1][0]) for i in range(len(intervals) - 1)]
    width, glo, ghi = max(gaps)
    assert width > 0.1
    mid = 0.5 * (glo + ghi)
    plateau = ids(V, freq, mid, 600, phases=6)
    alpha = freq.alpha[0]
    assert min(abs(plateau - alpha), abs(plateau - (1 - alpha))) <= 5e-3


# ---------------------------------------------------------------------------
# duality


def test_duality_free_center(freq):
    rep = ids_rotation_consistency(_zero_potential(), freq, 0.0, 2000, 20000)
    assert rep["N"] == pytest.approx(0.5, abs=1e-3)
    assert rep["rho"] == pytest.approx(0.25, abs=1e-4)
    assert rep["defect"] <= 2e-3


def test_duality_above_spectrum(freq):
    rep = ids_rotation_consistency(_zero_potential(), freq, 2.5, 1000, 5000)
    assert rep["N"] == pytest.approx(1.0, abs=1e-9)
    # O(1/n) transient while the tracked vector aligns with the
    # expanding direction
    assert rep["rho"] == pytest.approx(0.0, abs=1e-4)
    assert rep["defect"] <= 1e-3


def test_duality_amo_grid(freq):
    V = amo_potential(0.3)
    for E in (-1.8, -0.7, 0.0, 0.9, 1.6):
        rep = ids_rotation_consistency(V, freq, E, 800, 30000)
        assert rep["defect"] <= 5e-3, (E, rep)


# ---------------------------------------------------------------------------
# admission and the phase-sampled operator


def test_ids_curve_rejects_zero_phases(freq):
    with pytest.raises(ValueError, match="phases"):
        ids_curve(amo_potential(0.3), freq, np.linspace(-2, 2, 5), 200, 0)


def test_scan_rejects_zero_phases(freq):
    with pytest.raises(ValueError, match="phases"):
        spectrum_scan(amo_potential(0.3), freq, 200, 0, 0.05)


def test_ids_curve_rejects_non_finite_values():
    grid = np.linspace(-1.0, 1.0, 3)
    with pytest.raises(ValueError, match="finite"):
        IdsCurve(grid, np.full(3, np.nan), 200, 1)


def test_sampled_rows_match_single_phase_builds(freq):
    V = amo_potential(0.3)
    stack = TruncatedOperator.sampled(V, freq, 300, 4)
    assert stack.diag.shape == (4, 601)
    for j, theta in enumerate(phase_samples(1, 4)):
        row = TruncatedOperator.build(V, freq, theta, 300).diag
        assert np.array_equal(stack.diag[j], row)


def test_sampled_ids_and_presence(freq):
    H = TruncatedOperator.sampled(_zero_potential(), freq, 400, 3)
    assert np.array_equal(H.ids([-2.5, 2.5]), [0.0, 1.0])
    # the free band [-2, 2] holds eigenvalues at every phase; outside
    # it no phase does
    assert H.present([-3.0, -2.5, -0.1, 0.1, 2.5, 3.0]).tolist() == [
        False, True, True, True, False]


def test_counts_reject_nan_energies(freq):
    H = TruncatedOperator.sampled(_zero_potential(), freq, 200, 2)
    for bad in (np.nan, -np.nan):
        with pytest.raises(ValueError, match="NaN"):
            H.ids([0.5, bad])
    assert np.array_equal(H.ids([-np.inf, np.inf]), [0.0, 1.0])


def test_sturm_counting_has_one_owner():
    import ast

    import qpspec.spectrum

    src = Path(qpspec.spectrum.__file__).parent
    gaps_tree = ast.parse((src / "gaps.py").read_text())
    private = [a.name for node in ast.walk(gaps_tree)
               if isinstance(node, ast.ImportFrom)
               and node.module == "spectrum"
               for a in node.names if a.name.startswith("_")]
    assert private == []
    users = sorted(path.name for path in src.glob("*.py")
                   if "_pivot_counts" in path.read_text())
    assert users == ["spectrum.py"]


def _pivot_counts_floored(diags, energies):
    """The row-by-row kernel with an exact-zero pivot floor, kept here as
    the reference for the in-place one."""
    shift = _shifted(energies)[:, None]
    size = diags.shape[1]
    count = np.zeros((shift.shape[0], diags.shape[0]), dtype=np.int64)
    d = np.ones_like(count, dtype=float)
    first = True
    for row in range(size):
        a = diags[:, row][None, :] - shift
        d = a if first else a - 1.0 / d
        first = False
        d = np.where(d == 0.0, -1e-300, d)
        count += d < 0.0
    return count


def _kernel_cases():
    rng = np.random.default_rng(5)
    for phases, size, n_e in ((3, 40, 5), (8, 601, 7), (4, 7, 20000)):
        yield rng.normal(size=(phases, size)), rng.normal(size=n_e) * 2.0
    # integer diagonals and energies: exact zero pivots mid-chain
    yield (rng.integers(-2, 3, size=(6, 30)).astype(float),
           np.arange(-3.0, 4.0))
    # +0 on the last row ([1, 1] at E = 0), -0 on the first and last rows
    # ([-0, -0, -0] at E = 0: -0, +inf, -0), and +0 then -inf
    yield np.array([[1.0, 1.0]]), np.array([0.0])
    yield np.array([[-0.0, -0.0, -0.0]]), np.array([0.0, -0.0])
    yield np.array([[1.0, 1.0, 1.0, 3.0]]), np.array([0.0, 1.0])
    yield rng.choice([0.0, -0.0, 1.0, -1.0], size=(5, 25)), np.array(
        [0.0, -0.0, 1.0, -1.0])
    # E = +-0 on an all-zero diagonal of either sign
    for size in (1, 2, 5, 300):
        for zero in (0.0, -0.0):
            yield np.full((2, size), zero), np.array([0.0, -0.0])
    # every pivot negative, so whole blocks of rows count
    yield np.full((2, 600), -10.0), np.array([0.0, 1.0])
    # a single energy and a single phase
    yield rng.normal(size=(1, 50)), np.array([0.3])


def test_pivot_kernel_matches_floored_reference():
    for diags, energies in _kernel_cases():
        want = _pivot_counts_floored(diags, energies)
        got = _pivot_counts(diags, energies)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
