"""Aubry-Andre duality on the almost Mathieu operator as a reference.

For V = 2 lambda cos (amo_potential(lambda)), duality gives
N_lambda(E) = N_{1/lambda}(E / lambda), and the rotation number maps the
same way; the spectrum scales, Sigma_lambda = lambda Sigma_{1/lambda}, so
every labelled gap keeps its label and scales its length by lambda, and
mu_lambda(e) = mu_{1/lambda}(e / lambda) (Aubry & Andre, Ann. Israel Phys.
Soc. 3 (1980); Avron & Simon, Duke Math. J. 50 (1983)).  Both sides run on
the same energies, scaled by 1/lambda on the dual side, so each check
needs no closed form and holds on the supercritical side as well.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from qpspec.gaps import detect_gaps, homogeneity_profile, label_all
from qpspec.qpcore import amo_potential, diophantine_check
from qpspec.rotnum import schrodinger_rotation_grid
from qpspec.spectrum import TruncatedOperator, ids_curve, spectrum_scan

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
L = 4000
PHASES = 8
ITERATIONS = 100_000


@pytest.fixture(scope="module")
def freq():
    return diophantine_check(GOLDEN, gamma=0.1, tau=1.5, cutoff=60)


def _energies(coupling):
    """401 energies across the hull [-2 - 2 lambda, 2 + 2 lambda]."""
    return np.linspace(-2.0 - 2.0 * coupling, 2.0 + 2.0 * coupling, 401)


@pytest.mark.parametrize("coupling", [0.5, 0.8])
def test_ids_obeys_duality(freq, coupling):
    E = _energies(coupling)
    here = ids_curve(amo_potential(coupling), freq, E, L, PHASES).values
    dual = ids_curve(amo_potential(1.0 / coupling), freq, E / coupling, L,
                     PHASES).values
    # each side's count moves in steps of 1/(2L+1): allow two of them
    two_count_steps = 2.0 / (2 * L + 1)
    assert float(np.max(np.abs(here - dual))) <= two_count_steps


@pytest.mark.parametrize("coupling", [0.5, 0.8])
def test_rotation_obeys_duality(freq, coupling):
    E = _energies(coupling)
    rho, err = schrodinger_rotation_grid(amo_potential(coupling), freq, E,
                                         n_iters=ITERATIONS)
    rho_dual, err_dual = schrodinger_rotation_grid(
        amo_potential(1.0 / coupling), freq, E / coupling, n_iters=ITERATIONS)
    # the error column is a half-orbit estimate, not a bound at every
    # energy, so the pointwise sum err + err_dual is not a tolerance;
    # the sum of each side's largest estimate is
    larger_errors = float(err.max()) + float(err_dual.max())
    assert float(np.max(np.abs(rho - rho_dual))) <= larger_errors


# gaps shorter than MIN_GAP_CELLS scan cells are dropped, as the CLI's
# gap floor of 2 resolution does; detect_gaps decides a gap of exactly that
# length the same way on both sides however lo - hi rounds (at 0.8 and
# 3.5e-3 the gaps labelled +-7 are two cells long on both sides), so
# every gap is compared
MIN_GAP_CELLS = 2.0
M_MAX = 20
LABEL_TOL = 1e-3
HOMOG_EPS = np.array([1e-2, 3e-2, 1e-1, 3e-1])
HOMOG_SAMPLES = 200


def _scan_and_gaps(freq, coupling, resolution):
    V = amo_potential(coupling)
    H = TruncatedOperator.sampled(V, freq, L, PHASES)
    scan = spectrum_scan(V, freq, L, PHASES, resolution, operator=H)
    records, _ = detect_gaps(scan, H.ids, MIN_GAP_CELLS * resolution)
    return scan, label_all(records, freq, M_MAX, LABEL_TOL)


@pytest.fixture(scope="module", params=[(0.5, 2e-3), (0.8, 3.5e-3)],
                ids=["0.5", "0.8"])
def scans(request, freq):
    """(lambda, resolution r, scan and gaps at lambda, and at 1/lambda):
    r / lambda on the dual side, so that both scan meshes line up."""
    coupling, resolution = request.param
    return (coupling, resolution,
            _scan_and_gaps(freq, coupling, resolution),
            _scan_and_gaps(freq, 1.0 / coupling, resolution / coupling))


def test_scan_and_gaps_obey_duality(scans):
    coupling, cell, (scan, gaps), (scan_dual, gaps_dual) = scans
    # the meshes line up, so every interval endpoint lies within a cell
    assert len(scan) == len(scan_dual)
    assert float(np.max(np.abs(np.asarray(scan)
                               - coupling * np.asarray(scan_dual)))) <= cell
    here = {g.m: g.length for g in gaps}
    dual = {g.m: coupling * g.length for g in gaps_dual}
    assert {(1,), (-1,)} <= here.keys()
    assert here.keys() == dual.keys()
    for m in here:
        assert abs(here[m] - dual[m]) <= cell, m


def test_homogeneity_obeys_duality(scans):
    coupling, cell, (scan, _), (scan_dual, _) = scans
    mu = homogeneity_profile(scan, HOMOG_EPS, HOMOG_SAMPLES).mu
    mu_dual = homogeneity_profile(scan_dual, HOMOG_EPS / coupling,
                                  HOMOG_SAMPLES).mu
    # mu is the spectral share of a window of half-width eps, so one scan
    # cell moves it by at most the cell share r / eps
    cell_share = cell / HOMOG_EPS
    assert np.all(np.abs(mu - mu_dual) <= cell_share)
