"""Frequency validation, Fourier series, norms, and band truncation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from qpspec import qpcore as qc
from qpspec.errors import DiophantineRejection

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SQRT2M1 = math.sqrt(2.0) - 1.0


# ---------------------------------------------------------------------------
# frequency / small-divisor scan


def test_golden_mean_accepted():
    f = qc.diophantine_check(GOLDEN, gamma=0.2, tau=1.5, cutoff=100)
    assert f.dim == 1
    assert f.alpha[0] == pytest.approx(0.6180339887, abs=1e-9)


def test_rational_rejected_with_report():
    with pytest.raises(DiophantineRejection) as info:
        qc.diophantine_check(0.5, gamma=0.2, tau=1.5, cutoff=2)
    err = info.value
    assert err.n == (2,)
    assert err.distance == 0.0
    assert err.required == pytest.approx(0.2 / 2.0**1.5)


def test_two_dim_scan_is_the_oracle():
    # (golden, sqrt2 - 1) with gamma = 0.05 violates the sup-norm bound at
    # n = (1, 1): dist(<n, alpha>, Z) = 0.032 < 0.05.  The exhaustive scan
    # decides; a smaller gamma passes over the same window.
    with pytest.raises(DiophantineRejection) as info:
        qc.diophantine_check((GOLDEN, SQRT2M1), gamma=0.05, tau=2.5, cutoff=50)
    assert info.value.n == (1, 1)
    assert info.value.distance == pytest.approx(0.0322475511, abs=1e-9)

    f = qc.diophantine_check((GOLDEN, SQRT2M1), gamma=0.03, tau=2.5, cutoff=50)
    assert f.dim == 2


def test_frequency_input_validation():
    with pytest.raises(ValueError):
        qc.diophantine_check((0.1, 0.2, 0.3, 0.4), 0.1, 1.5, 10)
    with pytest.raises(ValueError):
        qc.diophantine_check(1.2, 0.1, 1.5, 10)
    with pytest.raises(ValueError):
        qc.diophantine_check(GOLDEN, -0.1, 1.5, 10)


def test_dist_to_int():
    assert qc.dist_to_int(0.4) == pytest.approx(0.4)
    assert qc.dist_to_int(-0.4) == pytest.approx(0.4)
    assert qc.dist_to_int(3.75) == pytest.approx(0.25)
    np.testing.assert_allclose(qc.dist_to_int(np.array([0.0, 0.5, 1.0])),
                               [0.0, 0.5, 0.0])


# ---------------------------------------------------------------------------
# series evaluation against a direct trigonometric sum


def _direct_sum(coeffs, theta, period=1):
    total = 0j
    for n, c in coeffs.items():
        total += c * np.exp(2j * np.pi * np.dot(n, theta) / period)
    return total


def test_evaluate_matches_direct_sum():
    rng = np.random.default_rng(7)
    coeffs = {}
    for n in range(1, 5):
        c = complex(rng.standard_normal(), rng.standard_normal())
        coeffs[(n,)] = c
        coeffs[(-n,)] = np.conj(c)
    coeffs[(0,)] = complex(rng.standard_normal(), 0.0)
    f = qc.FourierSeries(1, 4, coeffs)
    for theta in rng.uniform(0, 1, size=16):
        direct = _direct_sum(coeffs, [theta])
        assert f.evaluate(theta) == pytest.approx(direct.real, abs=1e-12)
        assert abs(direct.imag) < 1e-12


def test_evaluate_rejects_broken_reality():
    f = qc.FourierSeries(1, 1, {(1,): 1.0 + 0j})
    with pytest.raises(ValueError, match="reality"):
        f.evaluate(0.37)
    assert f.reality_defect() == pytest.approx(1.0)
    g = f.symmetrized()
    assert g.reality_defect() == 0.0


def test_half_period_series_evaluation():
    # e^{pi i theta} harmonic: period 2 in theta
    f = qc.FourierSeries(1, 1, {(1,): 0.5, (-1,): 0.5}, period=2)
    assert f.evaluate(0.0) == pytest.approx(1.0)
    assert f.evaluate(1.0) == pytest.approx(-1.0)
    assert f.evaluate(2.0) == pytest.approx(1.0)


def test_matrix_series_evaluation():
    j = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
    f = qc.FourierSeries(1, 1, {(1,): j / 2, (-1,): np.conj(j) / 2})
    val = f.evaluate(0.0)
    np.testing.assert_allclose(val, [[0, -1], [1, 0]], atol=1e-14)


def test_shifted_series():
    f = qc.cosine_polynomial({1: 1.0, 3: 0.25})
    g = f.shifted([0.3])
    for theta in (0.0, 0.1, 0.77):
        assert g.evaluate(theta) == pytest.approx(f.evaluate(theta + 0.3))


def test_amo_potential_values():
    V = qc.amo_potential(0.3)
    assert V.evaluate(0.0) == pytest.approx(0.6)
    assert V.evaluate(0.25) == pytest.approx(0.0, abs=1e-15)
    assert V.evaluate(1.0 / 3.0) == pytest.approx(2 * 0.3 * math.cos(2 * math.pi / 3))


def test_cosine_polynomial_zero_mode():
    f = qc.cosine_polynomial({0: 1.5, 2: 1.0})
    assert f.evaluate(0.0) == pytest.approx(2.5)
    assert f.evaluate(0.25) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# C^k norms


def test_ck_norm_single_cosine():
    eps = 1e-3
    f = qc.cosine_polynomial({1: eps})
    n = qc.ck_norm(f, 1)
    assert n.upper == pytest.approx(2 * math.pi * eps, rel=1e-12)
    assert n.lower <= n.upper
    # derivative eps * 2 pi sin(...) attains 2 pi eps up to grid resolution
    assert n.lower == pytest.approx(2 * math.pi * eps, rel=0.05)


def test_ck_norm_k0_power_series():
    f = qc.cosine_polynomial({n: n**-6.0 for n in range(1, 9)})
    n = qc.ck_norm(f, 0)
    total = sum(k**-6.0 for k in range(1, 9))
    # f(0) is the maximum; grid contains theta = 0
    assert n.lower == pytest.approx(total, rel=1e-12)
    assert n.upper == pytest.approx(total, rel=1e-12)


def test_ck_norm_lower_never_exceeds_upper():
    rng = np.random.default_rng(3)
    for _ in range(10):
        terms = {n: rng.standard_normal() * n**-2.0 for n in range(1, 12)}
        f = qc.cosine_polynomial(terms)
        for k in (0, 1, 2, 6):
            n = qc.ck_norm(f, k)
            assert n.lower <= n.upper * (1 + 1e-12)


def test_ck_norm_two_dim():
    f = qc.cosine_polynomial({(1, 0): 1.0, (0, 1): 0.5, (2, 1): 0.25}, dim=2)
    n = qc.ck_norm(f, 2)
    assert n.lower <= n.upper
    assert n.upper > 0


# ---------------------------------------------------------------------------
# band truncation


def _power_series(kmax=64, p=6.0):
    return qc.cosine_polynomial({n: float(n) ** -p for n in range(1, kmax + 1)})


def test_truncate_identity_when_band_fits():
    f = qc.cosine_polynomial({1: 1.0, 3: 0.5})
    assert qc.smooth_truncate(f, 5) == f
    assert qc.smooth_truncate(f, 3) == f


def test_truncate_identity_at_full_radius():
    f = _power_series()
    assert qc.smooth_truncate(f, f.radius) == f


def test_truncate_idempotent():
    f = _power_series()
    f8 = qc.smooth_truncate(f, 8)
    assert qc.smooth_truncate(f8, 8) == f8
    assert f8.support_radius() <= 8


def test_truncate_tail_bound():
    # || f_8 - f ||_0 <= 2 * sum_{n=9..64} n^-6 for the C^6-type profile
    f = _power_series()
    f8 = qc.smooth_truncate(f, 8)
    defect = (f - f8).sup_norm()
    tail = sum(n**-6.0 for n in range(9, 65))
    assert defect <= 2.0 * tail
    assert defect > 0.0


def test_truncate_step_decay_matches_order():
    # || f_{j+1} - f_j ||_0 <= C j^-k ||f||_k with a modest fixed C
    f = _power_series(kmax=64, p=6.0)
    norm_k = qc.ck_norm(f, 6).upper
    for j in (8, 12, 16, 24, 32):
        fj = qc.smooth_truncate(f, j)
        fj1 = qc.smooth_truncate(f, j + 1)
        step = (fj1 - fj).sup_norm()
        assert step <= 5.0 * float(j) ** -6.0 * norm_k


def test_truncate_converges_in_ck():
    f = _power_series(kmax=32, p=8.0)
    errs = []
    for j in (4, 8, 16, 32):
        fj = qc.smooth_truncate(f, j)
        errs.append(qc.ck_norm(f - fj, 2).upper)
    assert errs[-1] == 0.0
    assert all(a >= b for a, b in zip(errs, errs[1:]))


def test_frequency_orbit_points():
    f = qc.diophantine_check((GOLDEN, SQRT2M1), gamma=0.01, tau=2.5,
                             cutoff=10)
    theta = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
    pts = f.orbit(theta, np.arange(-2, 3))
    assert pts.shape == (3, 5, 2)
    assert np.array_equal(pts[1, 4], theta[1] + 2.0 * f.vec)
    assert np.array_equal(f.orbit(theta, 3), theta + 3 * f.vec)
    assert np.array_equal(f.orbit(theta[0], np.arange(4))[3],
                          theta[0] + 3.0 * f.vec)
    one = qc.diophantine_check(GOLDEN, gamma=0.2, tau=1.5, cutoff=100)
    assert one.orbit(0.25, np.arange(3)).shape == (3, 1)


def test_frequency_orbit_scalar_phase_in_two_dimensions():
    f = qc.diophantine_check((GOLDEN, SQRT2M1), gamma=0.01, tau=2.5,
                             cutoff=10)
    steps = np.arange(3)
    assert np.array_equal(f.orbit(0.0, steps), steps[:, None] * f.vec)
    assert np.array_equal(f.orbit(0.3, 2), 0.3 + 2 * f.vec)
