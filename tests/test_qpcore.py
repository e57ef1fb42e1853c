"""Frequency validation, Fourier series, and norms."""

from __future__ import annotations

import ast
import itertools
import math
from pathlib import Path

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


@pytest.mark.parametrize("alpha,tau,n", [(1.0 / 3.0, 1000.0, (3,)),
                                         (0.25, 600.0, (4,))])
def test_rational_rejected_where_the_bound_underflows(alpha, tau, n):
    # |n|^tau overflows and gamma / |n|^tau rounds to 0; a distance of
    # exactly 0 is still a rejection
    with pytest.raises(DiophantineRejection) as info:
        qc.diophantine_check(alpha, gamma=0.1, tau=tau, cutoff=60)
    assert info.value.n == n
    assert info.value.distance == 0.0


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


# each rejected input as (dim, radius, coefficient mapping, period) and the
# words of its ValueError
_REJECTED = {
    "key-of-wrong-length": ((2, 1, {(1,): 1.0}, 1), "dimension"),
    "key-outside-radius": ((1, 1, {(2,): 1.0}, 1), "outside radius"),
    "non-integer-key": ((1, 2, {(1.5,): 1.0}, 1), "integers"),
    "vector-value": ((1, 1, {(1,): np.ones(3)}, 1), "scalar or 2x2"),
    "3x3-value": ((1, 1, {(1,): np.eye(3)}, 1), "scalar or 2x2"),
    "mixed-kinds": ((1, 1, {(0,): 1.0, (1,): np.eye(2)}, 1), "mixed"),
    "dim-0": ((0, 1, {}, 1), "dim"),
    "dim-4": ((4, 1, {}, 1), "dim"),
    "radius-negative": ((1, -1, {}, 1), "radius"),
    "period-3": ((1, 1, {}, 3), "period"),
}


@pytest.mark.parametrize("case", sorted(_REJECTED))
def test_mapping_constructor_rejects(case):
    (dim, radius, coeffs, period), words = _REJECTED[case]
    with pytest.raises(ValueError, match=words):
        qc.FourierSeries(dim, radius, coeffs, period)


# rejections that only arrays can carry
_REJECTED_ROWS = {
    "mode-twice": ((2, 1, [[1, 0], [0, 1], [1, 0]], [1.0, 2.0, 3.0], 1),
                   "twice"),
    "fewer-values-than-modes": ((1, 1, [[0], [1]], [1.0], 1),
                                "one per mode"),
    "non-integer-mode": ((1, 2, [[1.0], [-1.2]], [1.0, 1.0], 1),
                         "integers"),
}


@pytest.mark.parametrize("case", sorted(_REJECTED) + sorted(_REJECTED_ROWS))
def test_from_arrays_rejects(case):
    if case in _REJECTED:
        (dim, radius, coeffs, period), words = _REJECTED[case]
        modes, values = [list(k) for k in coeffs], list(coeffs.values())
    else:
        (dim, radius, modes, values, period), words = _REJECTED_ROWS[case]
    with pytest.raises(ValueError, match=words):
        qc.FourierSeries.from_arrays(dim, radius, modes, values, period)


def test_from_arrays_sorts_and_freezes_the_rows():
    modes = np.array([[1, 0], [-1, 2], [0, 0], [-1, -2]])
    values = np.arange(4) + 0.5j
    f = qc.FourierSeries.from_arrays(2, 2, modes, values)
    order = sorted(range(4), key=lambda i: tuple(modes[i]))
    assert f.modes.tolist() == modes[order].tolist()
    assert f.values.tolist() == values[order].tolist()
    assert f.modes.dtype == np.int64 and f.values.dtype == complex
    assert not f.modes.flags.writeable and not f.values.flags.writeable
    g = qc.FourierSeries(2, 2, dict(zip(map(tuple, modes.tolist()), values)))
    assert np.array_equal(g.modes, f.modes)
    assert g.values.tobytes() == f.values.tobytes()
    empty = qc.FourierSeries(3, 1, {})
    assert empty.modes.shape == (0, 3) and empty.values.shape == (0,)
    assert not empty.is_matrix
    assert qc.FourierSeries.from_arrays(1, 0, np.zeros((0, 1)),
                                        np.zeros((0, 2, 2))).is_matrix


def test_series_holds_only_its_arrays():
    import tracemalloc

    from qpspec import kam

    kam.seeded_sl2_series(1e-3, 2, 1, dim=2)
    tracemalloc.start()
    try:
        f = kam.seeded_sl2_series(1e-3, 60, 1, dim=2)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(f.modes) == 121 ** 2
    assert held <= 2 * (f.modes.nbytes + f.values.nbytes)


def _one_sided(dim, matrix, seed):
    """A series on a random half of the ball of radius 3 - dim // 2 (keys
    n without -n included), coefficients complex normal."""
    rng = np.random.default_rng(seed)
    ball = qc.integer_ball(dim, 3 - dim // 2)
    ball = ball[rng.random(len(ball)) < 0.5]
    shape = (len(ball),) + ((2, 2) if matrix else ())
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return qc.FourierSeries.from_arrays(dim, 3 - dim // 2, ball, values,
                                        1 + seed % 2)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("matrix", [False, True])
def test_symmetrized_is_the_keywise_pairing(dim, matrix):
    # (c_n + conj(c_-n)) / 2 on the union of n and -n, a missing key read
    # as 0, key by key, bit for bit
    for seed in range(5):
        f = _one_sided(dim, matrix, seed)
        coeffs = dict(zip(map(tuple, f.modes.tolist()), f.values))
        zero = np.zeros((2, 2), dtype=complex) if matrix else 0j
        keys = sorted(set(coeffs) | {tuple(-v for v in k) for k in coeffs})
        want = [(coeffs.get(k, zero)
                 + np.conj(coeffs.get(tuple(-v for v in k), zero))) / 2.0
                for k in keys]
        got = f.symmetrized()
        assert got.modes.tolist() == [list(k) for k in keys]
        assert got.values.tobytes() == np.array(want, dtype=complex).tobytes()
        assert (got.dim, got.radius, got.period) == (f.dim, f.radius,
                                                     f.period)


def _union_symmetrized(f):
    """symmetrized by its own union of the modes n and -n (one lexsort and
    a cumsum), the way it was written before it read the half-mode
    pairing; the reference for the bit-equality test."""
    rows = len(f.modes)
    both = np.concatenate([f.modes, -f.modes])
    order = np.lexsort(both.T[::-1])
    both = both[order]
    first = np.ones(len(both), dtype=bool)
    first[1:] = (both[1:] != both[:-1]).any(axis=1)
    slot = np.cumsum(first) - 1
    own, partner = order < rows, order >= rows
    c = np.zeros((int(first.sum()),) + f.values.shape[1:], dtype=complex)
    c_minus = np.zeros_like(c)
    c[slot[own]] = f.values[order[own]]
    c_minus[slot[partner]] = f.values[order[partner] - rows]
    return qc.FourierSeries.from_arrays(
        f.dim, f.radius, both[first], (c + np.conj(c_minus)) / 2.0, f.period)


def _keywise_cosine_polynomial(terms, dim=1):
    """cosine_polynomial by a dict loop that halves each amplitude onto n
    and -n itself, the way it was written before it symmetrized; the
    reference for the bit-equality test."""
    coeffs, radius = {}, 0
    for key, amp in terms.items():
        k = (key,) if np.ndim(key) == 0 else tuple(key)
        mk = tuple(-v for v in k)
        if k == mk:
            coeffs[k] = coeffs.get(k, 0j) + complex(amp)
        else:
            coeffs[k] = coeffs.get(k, 0j) + amp / 2.0
            coeffs[mk] = coeffs.get(mk, 0j) + amp / 2.0
        radius = max(radius, max(abs(v) for v in k))
    return qc.FourierSeries(dim, radius, coeffs)


def _signed_zeros(rng, x):
    """x with about a fifth of its entries set to 0.0 and a sixth to -0.0."""
    pick = rng.random(x.shape)
    return np.where(pick < 0.2, 0.0, np.where(pick < 0.37, -0.0, x))


def _bits(f):
    """Modes, float64 bit patterns of the values and the scalars of f."""
    return (f.modes.tolist(), f.values.view(np.int64).tolist(),
            f.values.shape, f.dim, f.radius, f.period)


def test_symmetrized_matches_the_union_reference_bit_for_bit():
    # 1-3-D, scalar and 2x2, periods 1 and 2; some partners absent, some
    # present, and exact zeros of both signs in both parts
    for seed in range(240):
        rng = np.random.default_rng(seed)
        dim, matrix, period = 1 + seed % 3, seed // 3 % 2 == 1, 1 + seed % 2
        radius = int(rng.integers(0, 5 - dim))
        ball = qc.integer_ball(dim, radius)
        modes = ball[rng.random(len(ball)) < rng.uniform(0.2, 1.0)]
        shape = (len(modes),) + ((2, 2) if matrix else ())
        values = np.empty(shape, dtype=complex)
        values.real = _signed_zeros(rng, rng.standard_normal(shape))
        values.imag = _signed_zeros(rng, rng.standard_normal(shape))
        f = qc.FourierSeries.from_arrays(dim, radius, modes, values, period)
        assert _bits(f.symmetrized()) == _bits(_union_symmetrized(f)), seed


def test_cosine_polynomial_matches_the_keywise_reference_bit_for_bit():
    # one-sided term maps (no mode with its negative), the zero mode in
    # some, bare-int keys in 1-D, exact zeros of both signs
    for seed in range(240):
        rng = np.random.default_rng(seed)
        dim = 1 + seed % 3
        ball = qc.integer_ball(dim, int(rng.integers(0, 5 - dim)))
        first = ball[np.arange(len(ball)), np.argmax(ball != 0, axis=1)]
        ball = ball[(first > 0) | ((first == 0) & (rng.random() < 0.5))]
        ball = ball[rng.random(len(ball)) < 0.7]
        sign = np.where(rng.random(len(ball)) < 0.5, -1, 1)
        amps = _signed_zeros(rng, rng.standard_normal(len(ball)) * 3.0)
        terms = {(int(n[0]) if dim == 1 and seed % 2 else tuple(n)): float(a)
                 for n, a in zip((sign[:, None] * ball).tolist(), amps)}
        got = qc.cosine_polynomial(terms, dim=dim)
        assert _bits(got) == _bits(_keywise_cosine_polynomial(terms, dim)), \
            seed


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("matrix", [False, True])
def test_shifted_is_the_keywise_phase(dim, matrix):
    # c_n e^{2 pi i <n, delta> / p} key by key: bit for bit for a 1-D
    # matrix series; otherwise the phase <n, delta> (a matmul) and the
    # scalar products may round differently, by ulps of the phase
    for seed in range(5):
        f = _one_sided(dim, matrix, seed)
        delta = np.random.default_rng(seed).uniform(-3.0, 3.0, dim)
        phase = [(2.0 * math.pi / f.period) * float(np.dot(k, delta))
                 for k in f.modes.tolist()]
        want = np.array([np.exp(1j * ph) * c
                         for ph, c in zip(phase, f.values)])
        got = f.shifted(delta)
        assert np.array_equal(got.modes, f.modes)
        if dim == 1 and matrix:
            assert got.values.tobytes() == want.tobytes()
        tol = 1e-15 * (1.0 + max(map(abs, phase), default=0.0)) \
            * float(np.max(np.abs(f.values), initial=0.0))
        assert float(np.max(np.abs(got.values - want), initial=0.0)) <= tol


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


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("matrix", [False, True])
def test_both_evaluators_reject_broken_reality(dim, matrix):
    # e^{2 pi i theta_1} alone: the direct sum and the FFT mesh both see
    # the imaginary part and raise
    c = np.eye(2, dtype=complex) if matrix else 1.0 + 0j
    f = qc.FourierSeries(dim, 1, {(1,) + (0,) * (dim - 1): c})
    for call in (lambda: f.evaluate(np.full(dim, 0.37)),
                 lambda: f.on_mesh(8), f.sup_norm):
        with pytest.raises(ValueError, match="reality"):
            call()


def _dense_sum(f, theta):
    """The complex direct sum over the rows of theta, shape (rows, dim),
    with one phase matrix of every mode for all of them."""
    modes, values = f.modes.astype(float), f.values
    phase = np.exp((2.0 * math.pi * 1j / f.period) * (theta @ modes.T))
    if f.is_matrix:
        return np.einsum("nk,kij->nij", phase, values)
    return phase @ values


def _scalar_part(f, period):
    """A real scalar series on f's modes: the symmetrized off-diagonal sum
    of the matrix series f."""
    return qc.FourierSeries.from_arrays(
        f.dim, f.radius, f.modes, f.values[:, 0, 1] + f.values[:, 1, 0],
        period).symmetrized()


@pytest.mark.parametrize("dim,radius", [(1, 40), (2, 6), (3, 6)])
@pytest.mark.parametrize("matrix", [False, True])
def test_chunked_evaluation_matches_one_dense_call(monkeypatch, dim, radius,
                                                   matrix):
    from qpspec import kam

    f = kam.seeded_sl2_series(1.0, radius, seed=dim, dim=dim)
    if not matrix:
        f = _scalar_part(f, 2)
    theta = np.random.default_rng(dim).uniform(0.0, 2.0, (7, 60, dim))
    flat = theta.reshape(-1, dim)
    want = _dense_sum(f, flat).real
    # the real sum over the half modes rounds differently from the complex
    # sum over all modes: by at most 1.5e-16 of the coefficient sum here
    # (3.2e-15 of max |f| on the 2197 matrix modes of d = 3)
    tol = 1e-15 * qc.ck_norm(f, 0)
    one = f.evaluate(flat)
    assert float(np.max(np.abs(one - want))) <= tol
    # 53 chunks of at most 8 rows
    monkeypatch.setattr(qc, "_ELEMENT_CAP", 8 * (len(f.modes) // 2 + 1))
    got = f.evaluate(theta)
    assert got.shape == theta.shape[:-1] + want.shape[1:]
    assert float(np.max(np.abs(got.reshape(want.shape) - want))) <= tol
    assert float(np.max(np.abs(got.reshape(want.shape) - one))) \
        <= 1e-15 * float(np.max(np.abs(one)))
    if dim == 1:
        assert np.array_equal(f.evaluate(theta[..., 0]), got)
    else:
        with pytest.raises(ValueError):
            f.evaluate(np.zeros((4, dim + 1)))


def _seeded(dim, period, matrix):
    from qpspec import kam

    radius = (4, 2, 1)[dim - 1]
    s = kam.seeded_sl2_series(1.0, radius, seed=10 * dim + period, dim=dim)
    f = qc.FourierSeries.from_arrays(dim, radius, s.modes, s.values, period)
    return f if matrix else _scalar_part(f, period)


_REAL_SUM_CASES = {
    **{f"{'matrix' if m else 'scalar'}-d{d}-p{p}":
       (lambda d=d, p=p, m=m: _seeded(d, p, m))
       for m in (False, True) for d in (1, 2, 3) for p in (1, 2)},
    # c_{+-1} = +-i: S_1 = 2i, the sine half alone, f = -2 sin(2 pi theta)
    "sine": lambda: qc.FourierSeries(1, 1, {(1,): 1j, (-1,): -1j}),
    "sine-matrix-d2": lambda: qc.FourierSeries(
        2, 1, {(0, 1): 0.5j * np.eye(2), (0, -1): -0.5j * np.eye(2)}, 2),
    "zero-mode": lambda: qc.cosine_polynomial({0: 1.5, 2: 1.0, 3: -0.25}),
    "zero-mode-only": lambda: qc.FourierSeries(3, 2, {(0, 0, 0): 0.7 + 0j}),
    "one-sided-keys": lambda: qc.FourierSeries(
        2, 2, {(1, -2): 0.3 - 0.1j, (-1, 2): 0.3 + 0.1j, (2, 0): 0.5,
               (-2, 0): 0.5}),
    "empty": lambda: qc.FourierSeries(2, 3, {}),
    "zero-matrix": lambda: qc.FourierSeries(1, 2, {(1,): np.zeros((2, 2))}),
}


@pytest.mark.parametrize("case", sorted(_REAL_SUM_CASES))
def test_real_sum_matches_the_dense_complex_sum(monkeypatch, case):
    # the real half-mode sum against Re of the complex sum over every mode,
    # in one chunk and in chunks of at most 3 rows
    f = _REAL_SUM_CASES[case]()
    theta = np.random.default_rng(5).uniform(-2.0, 2.0, (5, 30, f.dim))
    want = _dense_sum(f, theta.reshape(-1, f.dim)).real
    want = want.reshape(theta.shape[:-1] + want.shape[1:])
    tol = 1e-15 * float(np.max(np.abs(want)))
    got = f.evaluate(theta)
    assert got.shape == want.shape
    assert got.dtype == np.float64
    assert float(np.max(np.abs(got - want))) <= tol
    monkeypatch.setattr(qc, "_ELEMENT_CAP", 3 * (len(f.modes) // 2 + 1))
    assert float(np.max(np.abs(f.evaluate(theta) - want))) <= tol


def test_real_sum_takes_bare_one_dimensional_points():
    f = _seeded(1, 1, False)
    theta = np.random.default_rng(6).uniform(0.0, 1.0, (4, 9))
    got = f.evaluate(theta)
    assert got.shape == (4, 9)
    assert np.array_equal(got, f.evaluate(theta[..., None]))
    want = _dense_sum(f, theta.reshape(-1, 1)).real.reshape(4, 9)
    assert float(np.max(np.abs(got - want))) \
        <= 1e-15 * float(np.max(np.abs(want)))
    value = f.evaluate(theta[1, 2])
    assert isinstance(value, float)
    assert abs(value - want[1, 2]) <= 1e-15 * float(np.max(np.abs(want)))
    assert _seeded(1, 1, True).evaluate(0.3).shape == (2, 2)


def test_real_sum_is_exact_on_one_cosine_mode():
    # S_1 = a: the same cos(2 pi theta) times a as the complex sum
    V = qc.amo_potential(0.3)
    theta = np.random.default_rng(2).uniform(0.0, 3000.0, 4001)
    assert np.array_equal(V.evaluate(theta),
                          _dense_sum(V, theta[:, None]).real)


def test_reality_check_reads_the_coefficients():
    # c_{+-1} = +-1: f = 2i sin(2 pi theta) is 0 at theta = 0 and 1/2, but
    # the check sees |c_1 - conj(c_{-1})| = 2 on the coefficients
    f = qc.FourierSeries(1, 1, {(1,): 1.0 + 0j, (-1,): -1.0 + 0j})
    for theta in (0.0, 0.5, np.array([0.0, 0.5])):
        with pytest.raises(ValueError, match="reality"):
            f.evaluate(theta)
    assert f.reality_defect() == 2.0
    # Im c_0 counts once, against 1e-10 (1 + sum of |c_n|) = 3e-10
    ok = qc.FourierSeries(1, 1, {(0,): 1.0 + 2.9e-10j, (1,): 0.5,
                                 (-1,): 0.5})
    assert ok.evaluate(0.0) == 2.0
    assert ok.on_mesh(4)[0] == pytest.approx(2.0, rel=1e-15)
    bad = qc.FourierSeries(1, 1, {(0,): 1.0 + 3.1e-10j, (1,): 0.5,
                                  (-1,): 0.5})
    for call in (lambda: bad.evaluate(0.0), bad.on_mesh):
        with pytest.raises(ValueError, match="reality"):
            call()
    assert bad.reality_defect() == pytest.approx(6.2e-10, rel=1e-6)


def test_real_sum_peak_is_one_chunk():
    # 4001 points x 2000 half modes with the sine half: dense cos and sin
    # phase matrices would take 128 MB, one chunk of each 16 MiB
    import tracemalloc

    V = qc.ck_potential(1e-3, 2, range(1, 2001)).shifted([0.1])
    theta = np.arange(4001) * 0.618
    V.evaluate(theta[:2])
    tracemalloc.start()
    try:
        V.evaluate(theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * qc._ELEMENT_CAP + (1 << 20)


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


def _grid_sup(f, k):
    """Sup of |d^j f| (the spectral norm for a matrix series) over every
    j >= 0 with |j|_1 <= k, each derivative evaluated as the series with
    coefficients prod_i (2 pi i n_i / p)^{j_i} c_n on its default on_mesh
    of 4 * radius + 1 points per axis; a lower bound for the C^k norm."""
    sup = 0.0
    for powers in itertools.product(range(k + 1), repeat=f.dim):
        if sum(powers) > k:
            continue
        coeffs = {tuple(n): c * math.prod((2j * math.pi * m / f.period) ** p
                                   for m, p in zip(n, powers))
                  for n, c in zip(f.modes.tolist(), f.values)}
        vals = qc.FourierSeries(f.dim, f.radius, coeffs,
                                f.period).on_mesh()
        size = np.linalg.norm(vals, 2, axis=(-2, -1)) if f.is_matrix \
            else np.abs(vals)
        sup = max(sup, float(np.max(size)))
    return sup


def test_ck_norm_single_cosine():
    eps = 1e-3
    f = qc.cosine_polynomial({1: eps})
    bound = qc.ck_norm(f, 1)
    assert bound == pytest.approx(2 * math.pi * eps, rel=1e-12)
    sup = _grid_sup(f, 1)
    assert sup <= bound
    # derivative eps * 2 pi sin(...) attains 2 pi eps up to grid resolution
    assert sup == pytest.approx(2 * math.pi * eps, rel=0.05)


def test_ck_norm_k0_power_series():
    f = qc.cosine_polynomial({n: n**-6.0 for n in range(1, 9)})
    bound = qc.ck_norm(f, 0)
    total = sum(k**-6.0 for k in range(1, 9))
    # f(0) is the maximum; the mesh contains theta = 0
    assert _grid_sup(f, 0) == pytest.approx(total, rel=1e-12)
    assert bound == pytest.approx(total, rel=1e-12)


def test_ck_norm_lower_never_exceeds_upper():
    # the grid sup of the derivatives is a lower bound, ck_norm the upper
    rng = np.random.default_rng(3)
    for _ in range(10):
        terms = {n: rng.standard_normal() * n**-2.0 for n in range(1, 12)}
        f = qc.cosine_polynomial(terms)
        for k in (0, 1, 2, 6):
            assert _grid_sup(f, k) <= qc.ck_norm(f, k) * (1 + 1e-12)
    for dim, radius in ((1, 3), (2, 2), (3, 1)):
        modes = qc.integer_ball(dim, radius)
        f = qc.FourierSeries(dim, radius, {
            tuple(n): rng.standard_normal((2, 2)) * 0.5 ** sum(map(abs, n))
            for n in modes.tolist()}).symmetrized()
        for k in (0, 1, 2):
            assert _grid_sup(f, k) <= qc.ck_norm(f, k) * (1 + 1e-12)


def test_ck_norm_two_dim():
    f = qc.cosine_polynomial({(1, 0): 1.0, (0, 1): 0.5, (2, 1): 0.25}, dim=2)
    bound = qc.ck_norm(f, 2)
    # j = (2, 0) is largest: (2 pi)^2 (1 * 1 + 2^2 * 0.25)
    assert bound == pytest.approx(8 * math.pi ** 2, rel=1e-12)
    assert _grid_sup(f, 2) <= bound


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("matrix", [False, True])
@pytest.mark.parametrize("period", [1, 2])
def test_ck_norm_is_the_coefficient_sum(dim, matrix, period):
    rng = np.random.default_rng(10 * dim + 2 * matrix + period)
    radius = 2
    shape = (2, 2) if matrix else ()
    coeffs = {}
    for n in qc.integer_ball(dim, radius).tolist():
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        coeffs[tuple(n)] = c * 10.0 ** rng.integers(-3, 2)
    f = qc.FourierSeries(dim, radius, coeffs, period)
    size = {n: np.linalg.norm(c, 2) if matrix else abs(c)
            for n, c in coeffs.items()}
    for k in (0, 1, 2, 6):
        want = max(
            sum(math.prod(abs(2 * math.pi * m / period) ** p
                          for m, p in zip(n, powers)) * size[n]
                for n in coeffs)
            for powers in itertools.product(range(k + 1), repeat=dim)
            if sum(powers) <= k)
        assert qc.ck_norm(f, k) == pytest.approx(want, rel=1e-12)
    assert qc.ck_norm(qc.FourierSeries(dim, radius, {}), 2) == 0.0
    with pytest.raises(ValueError):
        qc.ck_norm(f, -1)


@pytest.mark.parametrize("k", [0, 2, 200])
def test_ck_norm_keeps_a_nan(k):
    f = qc.FourierSeries(1, 1000, {(1000,): math.nan, (0,): 1.0})
    assert math.isnan(qc.ck_norm(f, k))


def test_ck_norm_zero_coefficient_adds_zero_at_any_order():
    # (2 pi 1000)^200 overflows a float: the zero coefficient there adds 0,
    # not NaN, and no overflow warning is raised
    f = qc.cosine_polynomial({1: 1.0, 1000: 0.0})
    assert qc.ck_norm(f, 200) == pytest.approx((2 * math.pi) ** 200,
                                               rel=1e-12)
    # ck_potential's 3^-1000 underflows to 0 while (2 pi)^1000 overflows
    # on the mode 1: the bound is inf
    assert qc.ck_norm(qc.ck_potential(1.0, 1000, [1, 2, 3]), 1000) \
        == math.inf


def test_ck_norm_finite_bound_is_the_plain_sum():
    # the guard against overflow changes no bit of a finite bound
    rng = np.random.default_rng(5)
    f = qc.cosine_polynomial({n: rng.standard_normal() * n ** -3.0
                              for n in range(1, 12)})
    size = np.abs(f.values)
    for k in (0, 1, 6, 40):
        plain = max(float(np.sum(np.abs(2 * math.pi * f.modes[:, 0]) ** j
                                 * size)) for j in range(k + 1))
        assert qc.ck_norm(f, k) == plain


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


# ---------------------------------------------------------------------------
# the sup-norm ball and the torus mesh have one owner each


def _shell_scan(alpha, gamma, tau, cutoff):
    """The shell-by-shell scan that diophantine_check replaced, kept as the
    reference: first violating (n, distance, required), or None."""
    avec = np.asarray(alpha, dtype=float)
    for r in range(1, cutoff + 1):
        for n in itertools.product(range(-r, r + 1), repeat=len(avec)):
            if max(abs(v) for v in n) != r or next(v for v in n if v) < 0:
                continue
            dist = qc.dist_to_int(float(np.dot(n, avec)))
            required = gamma / float(r) ** tau
            if dist < required:
                return n, dist, required
    return None


@pytest.mark.parametrize("alpha,gamma,tau,cutoff", [
    ((GOLDEN,), 0.2, 1.5, 100),
    ((0.5,), 0.2, 1.5, 2),
    ((0.3001,), 0.05, 1.5, 40),
    ((GOLDEN, SQRT2M1), 0.03, 2.5, 30),
    ((GOLDEN, SQRT2M1), 0.05, 2.5, 30),
    ((0.25, 0.7), 0.01, 2.0, 12),
    ((0.3, 0.3), 0.1, 2.0, 5),
    ((GOLDEN, SQRT2M1, math.sqrt(3.0) - 1.0), 1e-3, 3.5, 8),
    ((GOLDEN, SQRT2M1, math.sqrt(3.0) - 1.0), 0.02, 3.5, 8),
    ((0.1, 0.55, 0.35), 0.01, 3.0, 6),
])
def test_diophantine_check_matches_the_shell_scan(alpha, gamma, tau, cutoff):
    ref = _shell_scan(alpha, gamma, tau, cutoff)
    if ref is None:
        assert qc.diophantine_check(alpha, gamma, tau, cutoff).alpha == alpha
        return
    with pytest.raises(DiophantineRejection) as info:
        qc.diophantine_check(alpha, gamma, tau, cutoff)
    err = info.value
    # <n, alpha> may be summed in another order: a few ulps of d * cutoff
    ulps = 8.0 * np.finfo(float).eps * len(alpha) * cutoff
    assert (err.n, err.required) == (ref[0], ref[2])
    assert err.distance == pytest.approx(ref[1], rel=0.0, abs=ulps)


def test_diophantine_check_gates_the_ball_before_building_it():
    import tracemalloc

    alpha = (GOLDEN, SQRT2M1, math.sqrt(3.0) - 1.0)
    tracemalloc.start()
    try:
        # 129^3 rows would take about 100 MB
        with pytest.raises(ValueError, match="2146689 ball rows"):
            qc.diophantine_check(alpha, 1e-3, 3.5, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the default cutoff 60 stays admitted in every dimension
    for dim in (1, 2, 3):
        assert (2 * 60 + 1) ** dim <= qc._BALL_ROWS_CAP


@pytest.mark.parametrize("eps,k,modes", [
    (0.0, 6, [1, 2]), (-0.01, 6, [1]), (math.nan, 6, [1]), (0.01, -1, [1]),
    (0.01, 6, [0, 1]), (0.01, 6, [2, -1]),
])
def test_ck_potential_rejects_what_is_not_a_ck_profile(eps, k, modes):
    with pytest.raises(ValueError, match="ck potential"):
        qc.ck_potential(eps, k, modes)


def test_integer_ball_is_the_product_order():
    for dim in (1, 2, 3):
        for radius in (0, 1, 3):
            rows = [tuple(n) for n in qc.integer_ball(dim, radius).tolist()]
            axis = range(-radius, radius + 1)
            assert rows == list(itertools.product(axis, repeat=dim))


def test_integer_ball_gates_its_size_before_building_it():
    import tracemalloc

    assert qc.ball_rows(3, 63) == 127 ** 3 <= qc._BALL_ROWS_CAP
    assert qc.ball_rows(1, -1) == 0
    tracemalloc.start()
    try:
        for dim, radius in ((3, 64), (2, 1024), (1, 2 ** 20)):
            with pytest.raises(ValueError, match="above the cap"):
                qc.integer_ball(dim, radius)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_sizes_above_the_element_cap_raise_before_allocating():
    import tracemalloc

    from qpspec import kam
    from qpspec.errors import SizeError
    from qpspec.rotnum import schrodinger_rotation_grid
    from qpspec.spectrum import TruncatedOperator, spectrum_scan

    cap = qc._ELEMENT_CAP
    qc.array_elements("x", cap)
    assert issubclass(SizeError, ValueError)
    # the largest series grids admitted: 4 |n| + 1 points per axis
    for dim, radius in ((1, (cap - 1) // 4), (2, 255), (3, 25)):
        qc.FourierSeries(dim, radius, {})
    V = qc.amo_potential(0.3)
    freq = qc.diophantine_check(GOLDEN, 0.1, 1.5, 20)
    H = TruncatedOperator.sampled(V, freq, 100, 2)
    # 2 phases at 2**19 + 1 energies; 30000 energies on 50 segments
    ids_grid = np.linspace(-3.0, 3.0, cap // 2 + 1)
    lanes_grid = np.linspace(-3.0, 3.0, 30000)
    calls = [
        lambda: qc.array_elements("x", cap + 1),
        lambda: qc.FourierSeries(3, 26, {}),
        lambda: qc.cosine_polynomial({10 ** 12: 0.3}),
        lambda: kam.explicit_sl2_series({(10 ** 12,): [[0.0, 1e-3],
                                                       [-1e-3, 0.0]]}),
        lambda: TruncatedOperator.sampled(V, freq, 10 ** 12, 1),
        lambda: spectrum_scan(V, freq, 100, 1, 1e-12),
        lambda: H.ids(ids_grid),
        lambda: schrodinger_rotation_grid(V, freq, lanes_grid, 10000),
    ]
    tracemalloc.start()
    try:
        for call in calls:
            with pytest.raises(SizeError, match=f"above the cap {cap}"):
                call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_sup_norm_chunks_the_phase_matrix(monkeypatch):
    from qpspec import kam
    from qpspec.mat2 import norm2

    # sup_norm reads the FFT mesh, so it builds no phase matrix at all;
    # the direct sum on the same 2801 points x 1401 modes runs in chunks
    f = kam.seeded_sl2_series(1e-3, 700, 2)
    dense = float(np.max(norm2(f.evaluate(np.arange(2801) / 2801))))
    rows = []
    evaluate = qc.FourierSeries.evaluate

    def spy(self, theta):
        rows.append(len(theta))
        return evaluate(self, theta)

    monkeypatch.setattr(qc.FourierSeries, "evaluate", spy)
    # the direct sum rounds its phases theta * n, here by 4e-14 relative
    # in the sup; the FFT is within 1e-15 of an exactly reduced sum
    assert f.sup_norm() == pytest.approx(dense, rel=1e-13, abs=0.0)
    assert qc.amo_potential(0.3).sup_norm() == pytest.approx(0.6, rel=1e-15)
    assert rows == []


def test_sup_norm_samples_the_support_mesh(monkeypatch):
    from qpspec import kam
    from qpspec.mat2 import norm2

    # a product stores radius ra + rb while its support stays smaller;
    # sup_norm sizes its mesh by the support (3 here), not the radius 40
    s = kam.seeded_sl2_series(1e-2, 3, 5, dim=2)
    f = qc.FourierSeries.from_arrays(2, 40, s.modes, s.values)
    assert f.support_radius() == 3
    want = float(np.max(norm2(f.on_mesh(13))))
    grids = []
    on_mesh = qc.FourierSeries.on_mesh

    def spy(self, g=None):
        grids.append(g)
        return on_mesh(self, g)

    monkeypatch.setattr(qc.FourierSeries, "on_mesh", spy)
    assert f.sup_norm() == want
    assert grids == [13]
    cos = qc.FourierSeries(1, 30, {(2,): 0.5, (-2,): 0.5})
    assert cos.sup_norm() == 1.0
    assert grids[1:] == [9]


@pytest.mark.parametrize("radius,scale,limit,norm", [
    (16383, 2.5e-4 / 32767, 2 ** 31, "qc.ck_norm(f, 0)"),
    (2047, 1e-9, 768 * 2 ** 20, "f.sup_norm()"),
], ids=["ck_norm", "sup_norm"])
def test_series_norms_fit_an_address_space_limit(radius, scale, limit, norm):
    # a child under an address-space limit: a dense (grid points x modes)
    # phase matrix, 16 GiB for ck_norm and 512 MiB for sup_norm here,
    # ends at once in a MemoryError
    from qpspec import kam

    value = _limited_child("from qpspec import kam, qpcore as qc; "
                           f"f = kam.seeded_sl2_series({scale!r}, {radius}, "
                           f"1); print(repr({norm}))", limit)
    bound = qc.ck_norm(kam.seeded_sl2_series(scale, radius, 1), 0)
    assert 0.0 < value <= bound


def _limited_child(code, limit):
    """The float that code prints, run in a child whose address space is
    capped at limit bytes."""
    import os
    import resource
    import subprocess
    import sys

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(qc.__file__).parent.parent), str(Path(__file__).parent)]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                              (limit, limit)))
    assert out.returncode == 0, out.stderr
    return float(out.stdout)


_CK_2000 = ("from qpspec import qpcore as qc, mat2; "
            "freq = qc.diophantine_check(0.6180339887498949, 0.1, 1.5, 20); ")


def test_sampled_operator_fits_an_address_space_limit():
    # 8004 points x 4000 modes: a dense complex phase matrix would be
    # 489 MiB plus its real argument, past 768 MiB with the interpreter;
    # test_real_sum_peak_is_one_chunk bounds the real chunks
    top = _limited_child(
        _CK_2000 + "from qpspec.spectrum import TruncatedOperator; "
        "V = qc.ck_potential(1e-3, 2, range(1, 2001)); "
        "H = TruncatedOperator.sampled(V, freq, 1000, 4); "
        "print(repr(float(abs(H.diag).max())))", 768 * 2 ** 20)
    V = qc.ck_potential(1e-3, 2, range(1, 2001))
    # max |V| <= ck_norm(V, 0) holds in exact arithmetic; a sum of
    # len(V.modes) terms may round past it by that many units of 2^-53
    bound = qc.ck_norm(V, 0)
    assert 0.0 < top <= bound + len(V.modes) * 2.0 ** -53 * bound


def test_cocycle_det_check_fits_an_address_space_limit():
    # the matrix series' default mesh, 8189 points x 4095 modes, was a
    # 512 MiB phase matrix
    defect = _limited_child(
        _CK_2000 + "from _reference import schrodinger_series; "
        "V = qc.ck_potential(1e-3, 2, range(1, 2048)); "
        "s = schrodinger_series(V, 0.5); "
        "print(repr(float(abs(mat2.det2(s.on_mesh()) - 1).max())))",
        768 * 2 ** 20)
    assert defect <= 1e-12


def test_torus_mesh_is_the_ij_grid():
    # on_mesh's first axis is the first coordinate, spaced period / g
    f = qc.FourierSeries(2, 1, {(1, 0): 0.5, (-1, 0): 0.5}, period=2)
    vals = f.on_mesh(3)
    assert vals.shape == (3, 3)
    want = np.cos(np.pi * np.array([0.0, 2.0, 4.0]) / 3.0)
    np.testing.assert_allclose(vals, np.repeat(want[:, None], 3, axis=1),
                               rtol=0.0, atol=1e-15)
    assert qc.FourierSeries(2, 2, {}).on_mesh().shape == (9, 9)
    assert qc.FourierSeries(3, 0, {}).on_mesh().shape == (5, 5, 5)
    assert not hasattr(qc, "torus_mesh")


def test_ball_and_mesh_have_one_owner():
    src = Path(qc.__file__).parent
    itertools_users, meshgrid_callers, defined = [], set(), set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                itertools_users += [path.stem for a in node.names
                                    if a.name == "itertools"]
            elif isinstance(node, ast.ImportFrom) and node.module == "itertools":
                itertools_users.append(path.stem)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.add(node.name)
                if any(getattr(call.func, "attr", None) == "meshgrid"
                       for call in ast.walk(node)
                       if isinstance(call, ast.Call)):
                    meshgrid_callers.add(f"{path.stem}.{node.name}")
    assert itertools_users == []
    assert meshgrid_callers == {"qpcore.integer_ball"}
    gone = {"_sup_ball", "_multi_indices", "_label_candidates",
            "_integer_ball", "_mesh_points", "torus_mesh", "grid_points",
            "_sample"}
    assert defined & gone == set()
