"""2x2 matrix kernels: closed-form exp/log, spectral norm, branch handling."""

from __future__ import annotations

import math

import numpy as np
import pytest

from qpspec import mat2
from qpspec.errors import BranchError


def test_det_trace_inv():
    a = np.array([[2.0, 1.0], [1.0, 1.0]])
    assert mat2.det2(a) == pytest.approx(1.0)
    assert mat2.trace2(a) == pytest.approx(3.0)
    np.testing.assert_allclose(mat2.inv2(a) @ a, np.eye(2), atol=1e-14)


def test_norm2_matches_svd():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((64, 2, 2))
    got = mat2.norm2(a)
    want = np.linalg.norm(a, ord=2, axis=(-2, -1))
    np.testing.assert_allclose(got, want, rtol=1e-12)


def _norm2_quartic(a):
    """The unscaled closed form, for the bitwise comparison below."""
    fro2 = np.sum(np.abs(a) ** 2, axis=(-2, -1))
    d = np.abs(mat2.det2(a))
    gap = np.sqrt(np.maximum(fro2 * fro2 - 4.0 * d * d, 0.0))
    return np.sqrt((fro2 + gap) / 2.0)


def test_norm2_huge_and_tiny_matrices():
    big = 1e200 * mat2.rotation(0.1)
    assert mat2.norm2(big) == pytest.approx(1e200, rel=1e-14)
    assert np.isfinite(mat2.norm2(np.array([[1e300, 1e300], [0.0, 1e300]])))
    for scale in (1e-200, 1e-310):
        tiny = scale * np.array([[1.0, 2.0], [0.5, -1.0]])
        got = mat2.norm2(tiny)
        want = scale * np.linalg.norm(tiny / scale, ord=2)
        assert got > 0.0
        assert got == pytest.approx(want, rel=1e-6 if scale < 1e-300
                                    else 1e-12)


def test_norm2_in_range_bitwise_unchanged():
    rng = np.random.default_rng(7)
    real = rng.standard_normal((10000, 2, 2)) * rng.uniform(
        1e-3, 1e3, size=(10000, 1, 1))
    cplx = real + 1j * rng.standard_normal((10000, 2, 2))
    for a in (real, cplx):
        assert np.array_equal(mat2.norm2(a), _norm2_quartic(a))


def test_rotation_matrix():
    r = mat2.rotation(0.25)
    np.testing.assert_allclose(r, [[0.0, -1.0], [1.0, 0.0]], atol=1e-15)
    np.testing.assert_allclose(mat2.rotation(0.5) @ mat2.rotation(0.5),
                               mat2.rotation(1.0), atol=1e-15)


def test_exp_rotation_generator():
    # exp((pi/2) J) is the quarter turn
    j = np.array([[0.0, -1.0], [1.0, 0.0]])
    e = mat2.exp_sl2(math.pi / 2 * j)
    np.testing.assert_allclose(e, [[0.0, -1.0], [1.0, 0.0]], atol=1e-15)


def test_exp_zero_and_nilpotent():
    np.testing.assert_allclose(mat2.exp_sl2(np.zeros((2, 2))), np.eye(2))
    n = np.array([[0.0, 3.0], [0.0, 0.0]])
    np.testing.assert_allclose(mat2.exp_sl2(n), [[1.0, 3.0], [0.0, 1.0]],
                               atol=1e-15)


def test_exp_preserves_unit_det():
    rng = np.random.default_rng(5)
    x = mat2.project_traceless(rng.standard_normal((200, 2, 2)))
    e = mat2.exp_sl2(x)
    np.testing.assert_allclose(mat2.det2(e), 1.0, atol=1e-12)


def test_log_parabolic():
    a = np.array([[1.0, 0.7], [0.0, 1.0]])
    np.testing.assert_allclose(mat2.log_sl2(a), [[0.0, 0.7], [0.0, 0.0]],
                               atol=1e-14)


def test_log_hyperbolic():
    t = 0.9
    a = np.diag([math.exp(t), math.exp(-t)])
    np.testing.assert_allclose(mat2.log_sl2(a), np.diag([t, -t]), atol=1e-13)


def test_log_elliptic():
    phi = 0.2
    r = mat2.rotation(phi)
    j = np.array([[0.0, -1.0], [1.0, 0.0]])
    np.testing.assert_allclose(mat2.log_sl2(r), 2 * math.pi * phi * j,
                               atol=1e-13)


def test_log_branch_error_at_minus_two_trace():
    with pytest.raises(BranchError):
        mat2.log_sl2(-np.eye(2))
    with pytest.raises(BranchError):
        mat2.log_sl2(np.array([[-1.0, 1.0], [0.0, -1.0]]))
    with pytest.raises(BranchError):
        mat2.log_sl2(np.diag([-2.0, -0.5]))


def test_log_exp_round_trip_bulk():
    # invariant: 1e4 random traceless matrices of spectral norm <= 1
    rng = np.random.default_rng(2024)
    x = mat2.project_traceless(rng.standard_normal((10000, 2, 2)))
    scale = rng.uniform(0.05, 1.0, size=10000) / np.maximum(mat2.norm2(x), 1e-300)
    x = x * scale[:, None, None]
    back = mat2.log_sl2(mat2.exp_sl2(x))
    defect = mat2.norm2(back - x).max()
    assert defect <= 1e-9


def test_exp_log_round_trip_near_parabolic():
    # exercise the series branch: trace barely above 2
    x = np.array([[1e-9, 1.0], [1e-18, -1e-9]])
    a = mat2.exp_sl2(x)
    back = mat2.log_sl2(a)
    assert mat2.norm2(back - x) <= 1e-9


def test_commutator_traceless():
    rng = np.random.default_rng(9)
    x = mat2.project_traceless(rng.standard_normal((20, 2, 2)))
    y = mat2.project_traceless(rng.standard_normal((20, 2, 2)))
    c = mat2.commutator(x, y)
    np.testing.assert_allclose(mat2.trace2(c), 0.0, atol=1e-12)
