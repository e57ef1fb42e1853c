"""Cocycle construction, iteration, and the finite-orbit hyperbolicity verdict."""

from __future__ import annotations

import math

import numpy as np
import pytest

from qpspec import mat2
from qpspec.cocycle import (
    constant_cocycle,
    iterate,
    rotation_cocycle,
    schrodinger_cocycle,
    uniform_hyperbolicity_test,
)
from qpspec.qpcore import amo_potential, cosine_polynomial, diophantine_check

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@pytest.fixture(scope="module")
def freq():
    return diophantine_check(GOLDEN, gamma=0.1, tau=1.5, cutoff=60)


def _zero_potential():
    return cosine_polynomial({0: 0.0})


def test_schrodinger_matrix_free(freq):
    c = schrodinger_cocycle(_zero_potential(), 0.0, freq)
    np.testing.assert_allclose(c.matrix(0.37), [[0, -1], [1, 0]], atol=1e-14)
    c3 = schrodinger_cocycle(_zero_potential(), 3.0, freq)
    np.testing.assert_allclose(c3.matrix(0.8), [[3, -1], [1, 0]], atol=1e-14)


def test_schrodinger_matrix_amo(freq):
    c = schrodinger_cocycle(amo_potential(0.3), 1.0, freq)
    np.testing.assert_allclose(c.matrix(0.0), [[0.4, -1], [1, 0]], atol=1e-12)


def test_det_one_on_grid(freq):
    c = schrodinger_cocycle(amo_potential(0.7), 0.3, freq)
    vals = c.matrix(np.linspace(0, 1, 32)[:, None])
    np.testing.assert_allclose(mat2.det2(vals), 1.0, atol=1e-12)


def test_iterate_identity_cases(freq):
    c = constant_cocycle(freq, np.eye(2))
    np.testing.assert_allclose(iterate(c, 0.2, 7), np.eye(2), atol=1e-14)
    np.testing.assert_allclose(iterate(c, 0.2, 0), np.eye(2))


def test_iterate_quarter_turn(freq):
    c = schrodinger_cocycle(_zero_potential(), 0.0, freq)
    np.testing.assert_allclose(iterate(c, 0.1, 4), np.eye(2), atol=1e-13)


def test_iterate_inverse_identity(freq):
    c = schrodinger_cocycle(amo_potential(0.5), 0.8, freq)
    theta = 0.23
    alpha = freq.alpha[0]
    back = iterate(c, theta, -1)
    fwd = c.matrix(theta - alpha)
    np.testing.assert_allclose(back @ fwd, np.eye(2), atol=1e-12)


def test_iterate_scalar_phase_on_two_torus():
    f2 = diophantine_check((GOLDEN, math.sqrt(2.0) - 1.0), gamma=0.01,
                           tau=2.5, cutoff=10)
    V = cosine_polynomial({(1, 0): 0.4, (0, 1): 0.3}, dim=2)
    c = schrodinger_cocycle(V, 0.7, f2)
    theta = np.array([0.2, 0.2])
    want = np.eye(2)
    for k in range(3):
        want = c.matrix(theta + k * f2.vec) @ want
    np.testing.assert_allclose(iterate(c, 0.2, 3), want, atol=1e-13)


def test_iterate_rejects_phase_stack(freq):
    c = schrodinger_cocycle(amo_potential(0.3), 1.0, freq)
    with pytest.raises(ValueError, match=r"shape \(2, 1\)"):
        iterate(c, [[0.1], [0.2]], 5)
    with pytest.raises(ValueError, match=r"shape \(3,\)"):
        iterate(c, [0.1, 0.2, 0.3], 5)
    np.testing.assert_array_equal(iterate(c, [0.1], 5), iterate(c, 0.1, 5))


def test_cocycle_identity(freq):
    # E = 0 lies in the coupling-0.3 spectrum (E <-> -E symmetry), so the
    # products stay tame and the identity is meaningful at 1e-8 relative
    c = schrodinger_cocycle(amo_potential(0.3), 0.0, freq)
    rng = np.random.default_rng(17)
    alpha = freq.alpha[0]
    for _ in range(4):
        m = int(rng.integers(1, 400))
        n = int(rng.integers(1, 400))
        theta = float(rng.uniform(0, 1))
        lhs = iterate(c, theta, m + n)
        rhs = iterate(c, theta + n * alpha, m) @ iterate(c, theta, n)
        assert mat2.norm2(lhs - rhs) <= 1e-8 * max(1.0, mat2.norm2(lhs))


def test_cocycle_identity_negative(freq):
    c = schrodinger_cocycle(amo_potential(0.3), 0.0, freq)
    alpha = freq.alpha[0]
    theta = 0.41
    lhs = iterate(c, theta, 3 - 5)
    rhs = iterate(c, theta - 5 * alpha, 3) @ iterate(c, theta, -5)
    assert mat2.norm2(lhs - rhs) <= 1e-10


def test_det_drift_long_products(freq):
    # elliptic energy: products stay bounded, det must hold to 1e-8 * n
    c = schrodinger_cocycle(_zero_potential(), 1.0, freq)
    p = iterate(c, 0.3, 10000)
    assert abs(mat2.det2(p) - 1.0) <= 1e-8 * 10000


def test_verdict_free_hyperbolic(freq):
    c = schrodinger_cocycle(_zero_potential(), 3.0, freq)
    v = uniform_hyperbolicity_test(c, phases=8, orbit=200)
    assert v.verdict == "uniformly_hyperbolic"
    # finite-orbit estimate carries an O(1/orbit) bias from the eigenbasis
    assert v.growth_exponent == pytest.approx(math.log((3 + math.sqrt(5)) / 2),
                                              abs=5e-3)
    assert v.cone_margin > 0.05


def test_verdict_free_elliptic(freq):
    c = schrodinger_cocycle(_zero_potential(), 0.0, freq)
    v = uniform_hyperbolicity_test(c, phases=4, orbit=100)
    assert v.verdict == "not_uniform"


def test_verdict_free_energy_dichotomy(freq):
    # the fixed-width cone resolves |E| > 2 once the expanding and
    # contracting slopes separate past the cone boundary (|E| >= 2.52 here);
    # elliptic energies below 2 - margin always wind
    for E in (2.6, 3.0, 4.0, 6.0):
        for sign in (1.0, -1.0):
            c = schrodinger_cocycle(_zero_potential(), sign * E, freq)
            v = uniform_hyperbolicity_test(c, phases=4, orbit=300)
            assert v.verdict == "uniformly_hyperbolic", (sign * E, v)
    for E in (0.0, 0.5, 1.0, 1.5, 1.9):
        for sign in (1.0, -1.0):
            c = schrodinger_cocycle(_zero_potential(), sign * E, freq)
            v = uniform_hyperbolicity_test(c, phases=4, orbit=300)
            assert v.verdict == "not_uniform", (sign * E, v)


def test_verdict_amo_above_spectrum(freq):
    # spectrum of the coupling-0.3 operator lies inside [-2.6, 2.6]
    c = schrodinger_cocycle(amo_potential(0.3), 3.2, freq)
    v = uniform_hyperbolicity_test(c, phases=8, orbit=300)
    assert v.verdict == "uniformly_hyperbolic"
    assert v.growth_exponent > 0.1


def test_verdict_amo_in_spectrum(freq):
    c = schrodinger_cocycle(amo_potential(0.3), 0.0, freq)
    v = uniform_hyperbolicity_test(c, phases=4, orbit=400)
    assert v.verdict == "not_uniform"


def test_rotation_cocycle_winding(freq):
    c = rotation_cocycle(freq, 0.17)
    v = uniform_hyperbolicity_test(c, phases=2, orbit=50)
    assert v.verdict == "not_uniform"
    assert v.growth_exponent == pytest.approx(0.0, abs=1e-12)


def test_verdict_amo_below_spectrum_inconclusive(freq):
    # the short cone test sees neither a certificate nor 4 pi of principal-
    # branch winding here; a lifted winding would report not_uniform
    c = schrodinger_cocycle(amo_potential(0.3), -2.75, freq)
    v = uniform_hyperbolicity_test(c, phases=4, orbit=300)
    assert v.verdict == "inconclusive"


@pytest.mark.parametrize("n", [1000, -1000])
def test_iterate_overflow_raises(freq, n):
    c = schrodinger_cocycle(amo_potential(0.3), 5.0, freq)
    with pytest.raises(OverflowError, match=f"n={n}: log-norm"):
        iterate(c, 0.0, n)


@pytest.mark.parametrize("n", [100, 300, 440])
def test_iterate_negative_hyperbolic_is_adjugate(freq, n):
    # an SL(2,R) inverse is the adjugate, even where the det of the
    # product is lost to cancellation
    c = schrodinger_cocycle(amo_potential(0.3), 5.0, freq)
    theta = 0.37
    fwd = iterate(c, theta - n * freq.alpha[0], n)
    adj = np.array([[fwd[1, 1], -fwd[0, 1]], [-fwd[1, 0], fwd[0, 0]]])
    back = iterate(c, theta, -n)
    assert np.all(np.isfinite(back))
    assert np.abs(back - adj).max() <= 1e-12 * np.abs(fwd).max()


def test_iterate_and_verdict_far_above_spectrum(freq):
    # 64 steps at E = 40 grow past 1e100, whose squares leave the float
    # range; the renormalization must still measure the norm
    c = schrodinger_cocycle(_zero_potential(), 40.0, freq)
    a = np.array([[40.0, -1.0], [1.0, 0.0]])
    want = np.linalg.matrix_power(a / 40.0, 100) * 40.0 ** 100
    got = iterate(c, 0.3, 100)
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
    v = uniform_hyperbolicity_test(c, phases=4, orbit=300)
    assert v.verdict == "uniformly_hyperbolic"
    assert v.growth_exponent == pytest.approx(math.log(20 + math.sqrt(399)),
                                              abs=1e-2)
