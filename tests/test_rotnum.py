"""Rotation numbers, conjugacy degrees, and the conjugation shift rule."""

from __future__ import annotations

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from _reference import (
    constant_cocycle,
    rotation_from_orbit,
    rotation_number,
    schrodinger_cocycle,
    stack_product,
)
from qpspec import cocycle, mat2, rotnum
from qpspec.errors import DegreeError
from qpspec.qpcore import (
    FourierSeries,
    amo_potential,
    cosine_polynomial,
    diophantine_check,
    dist_to_int,
    phase_samples,
)
from qpspec.rotnum import (
    conjugated_rotation,
    degree,
    orbit_product,
    rotation_series,
    schrodinger_rotation_grid,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@pytest.fixture(scope="module")
def freq():
    return diophantine_check(GOLDEN, gamma=0.1, tau=1.5, cutoff=60)


def _zero_potential():
    return cosine_polynomial({0: 0.0})


# ---------------------------------------------------------------------------
# rotation numbers


def test_constant_rotation(freq):
    c = constant_cocycle(freq, mat2.rotation(0.17))
    est = rotation_number(c, 0.0, 100000)
    assert est.rho == pytest.approx(0.17, abs=1e-6)
    assert est.error >= 0.0


def test_constant_rotation_random_angles(freq):
    # constant rotations advance exactly per step, so short orbits suffice
    rng = np.random.default_rng(23)
    for phi in rng.uniform(0.02, 0.98, size=20):
        c = constant_cocycle(freq, mat2.rotation(float(phi)))
        est = rotation_number(c, 0.0, 2000)
        assert dist_to_int(est.rho - phi) <= 1e-6, phi


def test_free_energy_zero(freq):
    c = schrodinger_cocycle(_zero_potential(), 0.0, freq)
    est = rotation_number(c, 0.0, 10000)
    assert est.rho == pytest.approx(0.25, abs=1e-9)


def test_free_energy_one(freq):
    c = schrodinger_cocycle(_zero_potential(), 1.0, freq)
    est = rotation_number(c, 0.0, 100000)
    assert est.rho == pytest.approx(1.0 / 6.0, abs=1e-4)


def test_error_estimate_shrinks(freq):
    c = schrodinger_cocycle(amo_potential(0.3), 0.5, freq)
    coarse = rotation_number(c, 0.0, 2000)
    fine = rotation_number(c, 0.0, 64000)
    assert fine.error <= coarse.error
    assert coarse.error >= 0.0


def test_grid_variant_matches_scalar(freq):
    V = amo_potential(0.3)
    energies = np.array([-1.0, 0.0, 0.5, 1.0])
    rho, err = schrodinger_rotation_grid(V, freq, energies, n_iters=20000)
    for e, r in zip(energies, rho):
        c = schrodinger_cocycle(V, float(e), freq)
        est = rotation_number(c, 0.0, 20000)
        assert r == pytest.approx(est.rho, abs=1e-12)
    assert np.all(err >= 0.0)


# ---------------------------------------------------------------------------
# the segmented energy-grid walk

DUALITY_GRID = np.linspace(-2.6, 2.6, 201)


def _duality_potential():
    return cosine_polynomial({1: 0.6})


def _walk(step, v0, v1, n, transfer=True):
    """The lane walk that the one-pass kernels replaced, kept as the
    reference they are pinned to: (total, half_total) of the advance of each
    lane v = (v0, v1) along n steps, half_total after n // 2 of them.
    Each advance is the principal atan2 of (v x w, v . w) for the image
    w = step(k, v0, v1); transfer lifts it into (-pi/2, 3 pi/2]."""
    total = half_total = 0.0
    for k in range(n):
        w0, w1 = step(k, v0, v1)
        delta = np.arctan2(v0 * w1 - v1 * w0, v0 * w0 + v1 * w1)
        if transfer:
            delta += 2.0 * math.pi * (delta <= -0.5 * math.pi)
        total = total + delta
        norm = np.maximum(abs(w0), abs(w1))
        v0, v1 = w0 / norm, w1 / norm
        if k + 1 == n // 2:
            half_total = total
    return total, half_total


def _matrix_step(mats):
    """_walk step for an (n, [lanes,] 2, 2) stack of orbit matrices."""
    a, b = mats[..., 0, 0], mats[..., 0, 1]
    c, d = mats[..., 1, 0], mats[..., 1, 1]
    return lambda k, v0, v1: (a[k] * v0 + b[k] * v1, c[k] * v0 + d[k] * v1)


def _sequential_grid(V, freq, energies, n):
    """The one-orbit lane walk the segmented grid replaced, kept as a
    reference: every energy walks all n steps from (1, 0)."""
    v_orbit = V.evaluate(freq.orbit(0.0, np.arange(n))).tolist()
    total, half_total = _walk(
        lambda k, v0, v1: ((energies - v_orbit[k]) * v0 - v1, v0),
        np.ones(len(energies)), np.zeros(len(energies)), n)
    rho = (total / (2.0 * math.pi * n)) % 1.0
    err = dist_to_int(rho - (half_total / (2.0 * math.pi * (n // 2))) % 1.0)
    return np.minimum(rho, 1.0 - rho), err


def test_grid_lane_independent_of_the_grid(freq):
    # 10001 steps: the second half's last segment is one step longer, so
    # the masked tail steps run too
    V, n = _duality_potential(), 10001
    rho, err = schrodinger_rotation_grid(V, freq, DUALITY_GRID, n_iters=n)
    for j, e in enumerate(DUALITY_GRID):
        r, x = schrodinger_rotation_grid(V, freq, [e], n_iters=n)
        assert (r[0], x[0]) == (rho[j], err[j]), e


@pytest.mark.parametrize("n", [2, 3, 1001, 4999])
def test_grid_short_and_uneven_orbits(freq, n):
    V = amo_potential(0.3)
    energies = np.linspace(-3.0, 3.0, 13)
    rho, err = schrodinger_rotation_grid(V, freq, energies, n_iters=n)
    assert np.all(np.isfinite(rho)) and np.all(np.isfinite(err))
    assert np.all((rho >= 0.0) & (rho <= 0.5))
    assert np.all(err >= 0.0)
    if n >= 1000:
        for e, r, x in zip(energies, rho, err):
            est = rotation_number(schrodinger_cocycle(V, float(e), freq),
                                  0.0, n)
            assert r == pytest.approx(est.rho, abs=1e-12), e
            assert x == pytest.approx(est.error, abs=1e-12), e


def test_grid_two_frequencies():
    f2 = diophantine_check((GOLDEN, math.sqrt(2) - 1), 0.03, 2.5, 40)
    V = cosine_polynomial({(1, 0): 0.4, (0, 1): 0.3}, dim=2)
    energies = np.linspace(-2.5, 2.5, 11)
    rho, err = schrodinger_rotation_grid(V, f2, energies, n_iters=4999)
    for e, r, x in zip(energies, rho, err):
        est = rotation_number(schrodinger_cocycle(V, float(e), f2), 0.0, 4999)
        assert r == pytest.approx(est.rho, abs=1e-12), e
        assert x == pytest.approx(est.error, abs=1e-12), e


def test_grid_matches_sequential_walk(freq):
    V, n = _duality_potential(), 100000
    energies = DUALITY_GRID[::10]
    rho, err = schrodinger_rotation_grid(V, freq, energies, n_iters=n)
    ref_rho, ref_err = _sequential_grid(V, freq, energies, n)
    np.testing.assert_allclose(rho, ref_rho, rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(err, ref_err, rtol=0.0, atol=1e-13)


def test_grid_far_outside_the_spectrum(freq):
    # a pass-1 rescale interval too long for |E| = 1e12 would overflow
    energies = np.array([-1e12, -1e6, -1e3, 0.5, 1e3, 1e6, 1e12])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        rho, err = schrodinger_rotation_grid(amo_potential(0.3), freq,
                                             energies, n_iters=20000)
    assert np.all(np.isfinite(rho)) and np.all(np.isfinite(err))
    # N = 1 - 2 rho is 0 below the spectrum and 1 above it
    np.testing.assert_allclose(rho[:3], 0.5, atol=1e-6)
    np.testing.assert_allclose(rho[4:], 0.0, atol=1e-6)


def test_grid_memory_stays_small(freq):
    import tracemalloc

    V = _duality_potential()
    tracemalloc.start()
    try:
        schrodinger_rotation_grid(V, freq, DUALITY_GRID, n_iters=100000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a materialized (n, lanes, 2, 2) product stack would take ~640 MB
    assert peak <= 16 * 2**20


def test_quadrant_rule_is_the_arctan2_lift():
    # at every transfer step, the grid's rule (column (a, c) starts in the
    # closed second quadrant: sign bit of a set, of c clear) marks the
    # lanes whose principal-angle difference the arctan2 lift turns up
    rng = np.random.default_rng(29)
    size = 4000
    # entries across magnitudes out to a rescale's 2**-601 .. 2**600,
    # then the four axis directions with both signed zeros
    a = rng.choice([-1.0, 1.0], size) * 2.0 ** rng.uniform(-601, 600, size)
    c = rng.choice([-1.0, 1.0], size) * 2.0 ** rng.uniform(-601, 600, size)
    a = np.append(a, [1.0, 1.0, -1.0, -1.0, 0.0, -0.0, 0.0, -0.0])
    c = np.append(c, [0.0, -0.0, 0.0, -0.0, 1.0, 1.0, -1.0, -1.0])
    # E - v exactly 0 (both zeros), inside and outside the spectrum, and
    # a lane-wise mix out to 1e12
    spread = rng.uniform(-1.0, 1.0, a.size) * 10.0 ** rng.uniform(-3, 12,
                                                                 a.size)
    with np.errstate(over="raise", invalid="raise"):
        for ev in (0.0, -0.0, 0.5, -1.7, 2.0, -2.0, 2.6, -3.0, 1e6, -1e12,
                   spread):
            x, y = a, c
            for k in range(64):
                x_new, y_new = ev * x - y, x
                lift = rotnum._lift(np.arctan2(y, x), x_new, y_new)[1]
                np.testing.assert_array_equal(
                    np.signbit(x) & ~np.signbit(y), lift,
                    err_msg=f"E - v = {ev}, k = {k}")
                # an exact power-of-two rescale, as orbit_product's
                shift = np.frexp(np.maximum(abs(x_new), abs(y_new)))[1]
                x, y = np.ldexp(x_new, -shift), np.ldexp(y_new, -shift)


def test_grid_has_no_per_step_arctan2(freq, monkeypatch):
    # the pass counts turns from sign bits; the arctan2 calls, all through
    # _lift, come after it, so they do not grow with the orbit
    calls, lift = [], rotnum._lift

    def spy(last, x, y):
        calls.append(np.size(x))
        return lift(last, x, y)

    monkeypatch.setattr(rotnum, "_lift", spy)
    counts = []
    for n in (10001, 100000):
        calls.clear()
        schrodinger_rotation_grid(_duality_potential(), freq, DUALITY_GRID,
                                  n_iters=n)
        counts.append((len(calls), sum(calls)))
    assert counts[0] == counts[1]
    # one principal angle per lane, two per segment start in the stitch
    segments = len(rotnum._segment_cuts(100000)) - 1
    assert counts[0] == (1 + 2 * segments,
                         3 * segments * DUALITY_GRID.size)


def _segment_step(V, freq, energies, n_iters):
    """The grid's segments and masked transfer step, kept as a reference:
    (cuts, n_steps, step, v_orbit)."""
    v_orbit = V.evaluate(freq.orbit(0.0, np.arange(n_iters)))
    cuts = np.array(rotnum._segment_cuts(n_iters))
    starts, lengths = cuts[:-1, None], np.diff(cuts)[:, None]
    n_steps = int(lengths.max())
    steps = np.arange(n_steps)
    v_table = v_orbit[np.minimum(starts + steps, n_iters - 1)].T[..., None]
    active = (steps < lengths).T[..., None]

    def step(k, v0, v1):
        w0 = (energies - v_table[k]) * v0 - v1
        return np.where(active[k], w0, v0), np.where(active[k], v0, v1)

    return cuts, n_steps, step, v_orbit


def _column_pass(V, freq, energies, n_iters):
    """The grid's pass 1 as an inline loop over the columns (a, c) and
    (b, d), kept as a reference: returns [[a, b], [c, d]] per lane."""
    cuts, n_steps, step, v_orbit = _segment_step(V, freq, energies, n_iters)
    grow = float(np.abs(energies).max() + np.abs(v_orbit).max() + 2.0)
    interval = max(1, int(600.0 * math.log(2.0) / math.log(grow)))
    shape = (len(cuts) - 1, len(energies))
    cols = [np.ones(shape), np.zeros(shape), np.zeros(shape), np.ones(shape)]
    for k in range(n_steps):
        a, c, b, d = cols
        cols = [*step(k, a, c), *step(k, b, d)]
        if (k + 1) % interval == 0:
            biggest = np.maximum(np.maximum(abs(cols[0]), abs(cols[1])),
                                 np.maximum(abs(cols[2]), abs(cols[3])))
            cols = [np.ldexp(x, -np.frexp(biggest)[1]) for x in cols]
    a, c, b, d = cols
    return np.array([[a, b], [c, d]])


@pytest.mark.parametrize("V,energies,n,rescaled", [
    (_duality_potential(), DUALITY_GRID, 10001, False),
    (amo_potential(0.3), np.array([-1e12, -1e6, 0.5, 1e6, 1e12]), 20000,
     True),
], ids=["duality", "far_outside"])
def test_grid_pass_one_is_the_column_loop(freq, monkeypatch, V, energies, n,
                                          rescaled):
    # the grid's pass 1 runs through orbit_product, bit for bit the loop
    # over columns it replaced, and its exponents come back with it; on
    # the duality grid a segment (about 200 steps) ends before the first
    # rescale (about 250 steps)
    calls = []

    def spy(*args, **kwargs):
        calls.append(orbit_product(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(rotnum, "orbit_product", spy)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        schrodinger_rotation_grid(V, freq, energies, n_iters=n)
        want = _column_pass(V, freq, energies, n)
    (P, e), = calls
    assert P.shape == want.shape and P.tobytes() == want.tobytes()
    assert e.shape == P.shape[2:] and e.dtype.kind == "i"
    assert bool(np.any(e != 0)) == rescaled


def _two_pass_grid(V, freq, energies, n):
    """The grid with a second walk, kept as a reference: pass 1 is the
    column loop, the stitch chains the segment starts, and pass 2 walks
    the "transfer" winding of every lane from its start."""
    cuts, n_steps, step, _ = _segment_step(V, freq, energies, n)
    (a, b), (c, d) = _column_pass(V, freq, energies, n)
    u0, u1 = np.empty(a.shape), np.empty(a.shape)
    w0, w1 = np.ones(len(energies)), np.zeros(len(energies))
    for s in range(a.shape[0]):
        u0[s], u1[s] = w0, w1
        w0, w1 = a[s] * u0[s] + b[s] * u1[s], c[s] * u0[s] + d[s] * u1[s]
        norm = np.maximum(abs(w0), abs(w1))
        w0, w1 = w0 / norm, w1 / norm
    seg_total = _walk(step, u0, u1, n_steps)[0]
    total = half_total = 0.0
    for s in range(a.shape[0]):
        total = total + seg_total[s]
        if cuts[s + 1] == n // 2:
            half_total = total
    rho = (total / (2.0 * math.pi * n)) % 1.0
    err = dist_to_int(rho - (half_total / (2.0 * math.pi * (n // 2))) % 1.0)
    return np.minimum(rho, 1.0 - rho), err


def _amo_past_the_spectrum(coupling):
    # the spectrum lies in [-2 - 2 coupling, 2 + 2 coupling]
    edge = 2.0 + 2.0 * abs(coupling)
    return amo_potential(coupling), np.linspace(-edge - 1.0, edge + 1.0, 13)


_TWO_PASS_CASES = [
    pytest.param(_duality_potential(), DUALITY_GRID, n, None,
                 id=f"duality-{n}") for n in (100000, 10001)
] + [
    pytest.param(*_amo_past_the_spectrum(lam), n, None, id=f"amo{lam}-{n}")
    for lam in (0.3, 1.5, 10.0) for n in (2, 3, 64, 1001, 4999)
] + [
    pytest.param(cosine_polynomial({(1, 0): 0.4, (0, 1): 0.3}, dim=2),
                 np.linspace(-2.5, 2.5, 11), 4999, (GOLDEN, math.sqrt(2) - 1),
                 id="two_frequencies-4999"),
] + [
    # at E = 0 the free orbit runs through the axes, with -0.0 entries
    pytest.param(_zero_potential(),
                 np.array([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 2.1, -2.1]), n,
                 None, id=f"free-{n}") for n in (3, 4999)
]


@pytest.mark.parametrize("V,energies,n,vec", _TWO_PASS_CASES)
def test_grid_matches_two_pass_walk(freq, V, energies, n, vec):
    # the one pass corrects each segment's start in closed form; the walk
    # from the stitched starts it replaced agrees to rounding
    if vec is not None:
        freq = diophantine_check(vec, 0.03, 2.5, 40)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        rho, err = schrodinger_rotation_grid(V, freq, energies, n_iters=n)
        ref_rho, ref_err = _two_pass_grid(V, freq, energies, n)
    np.testing.assert_allclose(rho, ref_rho, rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(err, ref_err, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("E", [0.25, 3.0, 1e6],
                         ids=["elliptic", "hyperbolic", "far"])
def test_closed_form_start_correction(freq, E):
    # on one segment's product, the winding of e1 corrected in closed form
    # is the transfer walk from every start, either half-plane
    n = 200
    v = _duality_potential().evaluate(freq.orbit(0.0, np.arange(n)))
    mats = np.array([[[E - x, -1.0], [1.0, 0.0]] for x in v])
    P = orbit_product(lambda k, P: mats[k] @ P, np.eye(2), n,
                      abs(E) + 3.0)[0]
    (a, b), (c, d) = P
    if E == 0.25:
        assert (a + d) ** 2 < 4.0 * (a * d - b * c)
    else:
        assert (a + d) ** 2 > 4.0 * (a * d - b * c)
    e1 = _walk(_matrix_step(mats), np.ones(1), np.zeros(1), n)[0][0]
    angle = math.atan2(c, a)
    turns = round((e1 - angle) / (2.0 * math.pi))
    theta = np.random.default_rng(5).uniform(-math.pi, math.pi, 200)
    # and the axes, with both zeros: (-1, -0.0) is e1 turned by pi
    u0 = np.append(np.cos(theta), [1.0, 1.0, -1.0, -1.0, 0.0, -0.0])
    u1 = np.append(np.sin(theta), [0.0, -0.0, 0.0, -0.0, 1.0, -1.0])
    want = _walk(_matrix_step(mats), u0, u1, n)[0]
    w0, w1, got = rotnum._winding_from((a, b, c, d), angle, turns, u0, u1)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
    # the image is P u, up to the sign of the flipped start
    np.testing.assert_array_equal(abs(w0), abs(a * u0 + b * u1))
    np.testing.assert_array_equal(abs(w1), abs(c * u0 + d * u1))


def test_grid_walks_the_orbit_once(freq, monkeypatch):
    products = []

    def spy(*args, **kwargs):
        products.append(args[2])
        return orbit_product(*args, **kwargs)

    monkeypatch.setattr(rotnum, "orbit_product", spy)
    schrodinger_rotation_grid(_duality_potential(), freq, DUALITY_GRID,
                              n_iters=10001)
    # one product of the longest segment's steps, and no second walk
    assert products == [max(np.diff(rotnum._segment_cuts(10001)))]


def _renormalized_product(mats):
    """Product of an (n, [lanes,] 2, 2) stack renormalized by its norm
    every 64 steps and at the end, kept as a reference: (P, log-norm)."""
    n = mats.shape[0]
    prod = np.broadcast_to(np.eye(2), mats.shape[1:]).copy()
    log_scale = np.zeros(mats.shape[1:-2])
    for k in range(n):
        prod = mats[k] @ prod
        if (k + 1) % 64 == 0 or k == n - 1:
            scale = mat2.norm2(prod)
            prod = prod / scale[..., None, None]
            log_scale += np.log(scale)
    return prod, log_scale


def _phase_stack(c, phases, n):
    theta = np.linspace(0.0, 1.0, phases, endpoint=False)
    theta = np.stack([theta] * c.freq.dim, axis=-1)
    return np.moveaxis(c.orbit_matrices(theta, n), 1, 0)


@pytest.mark.parametrize("case", ["amo_near_overflow", "amo_lanes",
                                  "amo_hyperbolic_lanes", "free_elliptic",
                                  "two_d_lanes", "rotation",
                                  "rotation_lanes"])
def test_stack_product_matches_the_renormalized_loop(freq, case):
    f2 = diophantine_check((GOLDEN, math.sqrt(2) - 1), 0.03, 2.5, 40)
    V2 = cosine_polynomial({(1, 0): 0.4, (0, 1): 0.3}, dim=2)
    amo = amo_potential(0.3)
    mats = {
        "amo_near_overflow": lambda: schrodinger_cocycle(
            amo, 5.0, freq).orbit_matrices(0.37, 440),
        "amo_lanes": lambda: _phase_stack(
            schrodinger_cocycle(amo, 0.8, freq), 8, 2000),
        "amo_hyperbolic_lanes": lambda: _phase_stack(
            schrodinger_cocycle(amo, 3.2, freq), 8, 2000),
        "free_elliptic": lambda: schrodinger_cocycle(
            _zero_potential(), 1.0, freq).orbit_matrices(0.3, 2000),
        "two_d_lanes": lambda: _phase_stack(
            schrodinger_cocycle(V2, 0.7, f2), 8, 2000),
        "rotation": lambda: constant_cocycle(
            freq, mat2.rotation(0.17)).orbit_matrices(0.0, 2000),
        "rotation_lanes": lambda: _phase_stack(
            constant_cocycle(freq, mat2.rotation(0.31)), 8, 2000),
    }[case]()
    P, e, log_norm = stack_product(mats)
    want, want_log = _renormalized_product(mats)
    assert P.shape == want.shape and np.shape(e) == np.shape(want_log)

    # directions compared scale-free: each side divided by its largest
    # entry, which is exact for P
    def direction(A):
        return A / np.abs(A).max(axis=(-2, -1))[..., None, None]

    assert np.abs(direction(P) - direction(want)).max() <= 1e-14
    tol = 1e-14 * np.maximum(1.0, np.abs(want_log))
    if case.startswith("rotation"):
        # a product of rotations has norm exactly 1
        assert np.abs(log_norm).max() <= 1e-12
    assert np.all(np.abs(log_norm - want_log) <= tol)


def test_monotone_in_energy(freq):
    V = amo_potential(0.3)
    energies = np.linspace(-3.0, 3.0, 31)
    rho, _ = schrodinger_rotation_grid(V, freq, energies, n_iters=20000)
    diffs = np.diff(rho)
    assert np.all(diffs <= 1e-3)


def test_phase_independence(freq):
    c = schrodinger_cocycle(amo_potential(0.3), 0.5, freq)
    a = rotation_number(c, 0.0, 50000)
    b = rotation_number(c, 0.377, 50000)
    assert a.rho == pytest.approx(b.rho, abs=5e-4)


# ---------------------------------------------------------------------------
# degree


def test_degree_identity(freq):
    b = FourierSeries(1, 0, {(0,): np.eye(2, dtype=complex)}, period=2)
    assert degree(b, freq) == (0,)


def test_degree_half_rotation(freq):
    assert degree(rotation_series((3,)), freq) == (3,)
    assert degree(rotation_series((-2,)), freq) == (-2,)
    assert degree(rotation_series((0,)), freq) == (0,)


def test_degree_with_constant_conjugation(freq):
    c = np.array([[2.0, 0.3], [0.1, 0.6]], dtype=complex)
    base = rotation_series((1,))
    b = FourierSeries.from_arrays(1, base.radius, base.modes,
                                  c @ base.values, period=2)
    assert degree(b, freq) == (1,)


def test_degree_two_dim():
    f2 = diophantine_check((GOLDEN, math.sqrt(2) - 1), 0.03, 2.5, 40)
    assert degree(rotation_series((2, -1)), f2) == (2, -1)


def test_degree_additive(freq):
    # product of half-rotations is the half-rotation of the summed label
    for n, m in ((1, 2), (3, -1), (-2, -2)):
        lhs = rotation_series((n + m,))
        assert degree(lhs, freq) == (n + m,)


def test_degree_error_on_degenerate_column(freq):
    # first column (sin(pi theta), 0) vanishes at theta = 0
    s = np.zeros((2, 2), dtype=complex)
    s[0, 0] = 1.0
    b = FourierSeries(1, 1, {(1,): -0.5j * s, (-1,): 0.5j * s}, period=2)
    with pytest.raises(DegreeError):
        degree(b, freq)


# ---------------------------------------------------------------------------
# conjugation arithmetic


def test_conjugated_rotation_arithmetic(freq):
    assert conjugated_rotation(0.25, (0,), freq) == pytest.approx(0.25)
    assert conjugated_rotation(freq.alpha[0] / 2, (1,), freq) == \
        pytest.approx(0.0, abs=1e-15)
    assert conjugated_rotation(0.4, (2,), freq) == \
        pytest.approx((0.4 - freq.alpha[0]) % 1.0)


def test_conjugation_shift_measured(freq):
    # conjugating the transfer cocycle by R_{<1,theta>/2} shifts the
    # measured rotation number by -alpha/2 mod Z
    alpha = freq.alpha[0]
    c = schrodinger_cocycle(amo_potential(0.3), 0.5, freq)
    n = 40000
    base = rotation_number(c, 0.0, n)

    thetas = (np.arange(n) * alpha)
    mats = c.orbit_matrices(0.0, n)
    b_here = mat2.rotation(thetas / 2.0)
    b_next = mat2.rotation(-(thetas + alpha) / 2.0)
    conj = np.einsum("nij,njk,nkl->nil", b_next, mats, b_here)
    est = rotation_from_orbit(conj)

    want = conjugated_rotation(base.rho, (1,), freq)
    assert dist_to_int(est.rho - want) <= 1e-4


# ---------------------------------------------------------------------------
# perturbation bound


def _perturbation_bound(a, phi, freq, n_iters):
    """(|rho(A) - phi| mod Z, sup distance of A from R_phi): the "mean" walk
    along one orbit of a non-constant cocycle, against the grid sup."""
    est = rotation_from_orbit(a.evaluate(freq.orbit(0.0, np.arange(n_iters))))
    lhs = dist_to_int(est.rho - phi)
    rhs = float(mat2.norm2(a.on_mesh() - mat2.rotation(phi)).max())
    return lhs, rhs


def test_perturbation_bound_exact_rotation(freq):
    a = FourierSeries(1, 0, {(0,): mat2.rotation(0.2).astype(complex)})
    lhs, rhs = _perturbation_bound(a, 0.2, freq, n_iters=2000)
    assert lhs <= rhs + 1e-9
    assert lhs == pytest.approx(0.0, abs=1e-9)
    assert rhs == pytest.approx(0.0, abs=1e-12)


def test_perturbation_bound_small_cosine(freq):
    eps = 0.01
    base = mat2.rotation(0.2).astype(complex)
    bump = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    coeffs = {(0,): base, (1,): 0.5 * eps * bump, (-1,): 0.5 * eps * bump}
    a = FourierSeries(1, 1, coeffs)
    lhs, rhs = _perturbation_bound(a, 0.2, freq, n_iters=40000)
    assert lhs <= rhs + 1e-9
    assert rhs == pytest.approx(eps, rel=1e-6)
    assert lhs <= eps


def test_perturbation_bound_parabolic(freq):
    zeta = 0.1
    a = FourierSeries(1, 0, {(0,): np.array([[1.0, zeta], [0.0, 1.0]],
                                            dtype=complex)})
    lhs, rhs = _perturbation_bound(a, 0.0, freq, n_iters=5000)
    assert lhs <= rhs + 1e-9
    assert lhs == pytest.approx(0.0, abs=1e-3)
    assert rhs == pytest.approx(zeta, rel=1e-9)


# ---------------------------------------------------------------------------
# the one orbit kernel


_TRANSFER_CASES = [
    pytest.param(_zero_potential(), sign * E, 4, 300, id=f"free{sign * E:g}")
    for E in (0.0, 0.5, 1.0, 1.5, 1.9, 2.6, 3.0, 4.0, 6.0, 40.0)
    for sign in (1.0, -1.0)
] + [
    pytest.param(amo_potential(0.3), E, phases, orbit, id=f"amo0.3at{E:g}")
    for E, phases, orbit in ((3.2, 8, 300), (0.0, 4, 400), (-2.75, 4, 300))
] + [
    pytest.param(amo_potential(0.004), 0.724, 8, 2000, id="gap_edge"),
    # a constant potential c with |E - c| < 2: one elliptic matrix, a
    # rotation up to conjugation
    pytest.param(cosine_polynomial({0: 0.3}),
                 0.3 + 2.0 * math.cos(2.0 * math.pi * 0.17), 2, 50,
                 id="rotation"),
]


@pytest.mark.parametrize("V,E,phases,orbit", _TRANSFER_CASES)
def test_transfer_matrices_match_the_matrix_series(freq, V, E, phases,
                                                   orbit):
    # transfer matrices along sampled phase orbits against the matrix
    # series [[E - V, -1], [1, 0]] at the same points: the entry E - V may
    # round once apart, one unit in the last place of a value below 4
    theta = phase_samples(freq.dim, phases)
    got = cocycle.transfer_matrices(
        E, V.evaluate(freq.orbit(theta, np.arange(orbit))))
    want = schrodinger_cocycle(V, E, freq).orbit_matrices(theta, orbit)
    assert got.shape == want.shape == (phases, orbit, 2, 2)
    assert np.abs(got - want).max() <= 4.5e-16


def test_orbit_walk_has_one_owner():
    src = Path(rotnum.__file__).parent
    owners, nested, private = set(), [], []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    nested.append(f"{path.stem}.{fn.name}")
                name = getattr(node, "attr", getattr(node, "id", None))
                if name in ("arctan2", "atan2"):
                    owners.add(f"{path.stem}.{fn.name}")
        private += [f"{path.stem}: {a.name}" for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)
                    for a in node.names if a.name.startswith("_")
                    and not a.name.endswith("__")]
    # the rotation grid takes column e1's principal angle through _lift,
    # and degree steps the angle of a conjugacy's first column
    assert owners == {"rotnum.degree", "rotnum._lift"}
    assert nested == []
    assert private == []


def test_orbit_product_has_one_owner():
    src = Path(rotnum.__file__).parent
    frexp, step_loops, defined = set(), [], []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Attribute) and node.attr == "frexp":
                    frexp.add(f"{path.stem}.{fn.name}")
                if (path.stem == "cocycle" and isinstance(node, ast.For)
                        and isinstance(node.iter, ast.Call)
                        and getattr(node.iter.func, "id", None) == "range"):
                    step_loops.append(f"cocycle.{fn.name}")
        names = {getattr(node, "name", getattr(node, "id", None))
                 for node in ast.walk(tree)}
        defined += sorted(names & {"_RENORM_EVERY", "_rescale"})
    assert frexp == {"mat2.norm2", "rotnum.orbit_product"}
    assert step_loops == []
    assert defined == []
    assert "orbit_product" in rotnum.__all__
