"""Aubry-Andre duality on the almost Mathieu operator as a reference.

For V = 2 lambda cos (amo_potential(lambda)), duality gives
N_lambda(E) = N_{1/lambda}(E / lambda), and the rotation number maps the
same way (Aubry & Andre, Ann. Israel Phys. Soc. 3 (1980); Avron & Simon,
Duke Math. J. 50 (1983)).  Both sides run on the same energies, scaled by
1/lambda on the dual side, so each check needs no closed form and holds
on the supercritical side as well.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from qpspec.qpcore import amo_potential, diophantine_check
from qpspec.rotnum import schrodinger_rotation_grid
from qpspec.spectrum import ids_curve

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
