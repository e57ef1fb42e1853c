"""Reducibility engine: steps, runs, edge reduction, and gap-edge data."""

from __future__ import annotations

import ast
import dataclasses
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from _reference import d_of_delta, det_identity_defect
from qpspec import kam
from qpspec.errors import (DivisorError, ReductionError, ResonanceError,
                           SizeError)
from qpspec.kam import (
    KamState,
    MoserPoschelData,
    almost_reducibility_run,
    detect_resonance,
    eigen_rho,
    gap_edge_bound,
    initial_state,
    moser_poschel_step,
    mp_brackets,
    nonresonant_step,
    reduce_to_parabolic,
    resonant_step,
)
from qpspec.mat2 import exp_sl2, log_sl2, norm2, rotation
from qpspec.qpcore import (FourierSeries, ck_norm, diophantine_check,
                           dist_to_int)
from qpspec.rotnum import conjugated_rotation, rotation_series

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@pytest.fixture(scope="module")
def freq():
    return diophantine_check(GOLDEN, gamma=0.1, tau=1.5, cutoff=60)


def _rand_sl2_series(scale, radius, seed):
    rng = np.random.default_rng(seed)
    coeffs = {}
    for n in range(-radius, radius + 1):
        m = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) * scale
        m = m - 0.5 * np.trace(m) * np.eye(2)
        coeffs[(n,)] = m
    return FourierSeries(1, radius, coeffs, 1).symmetrized()


def _zero_f():
    return FourierSeries(1, 0, {(0,): np.zeros((2, 2), complex)}, 1)


def _twist_edge_perturbation(freq, zeta0):
    """Cocycle conjugate, by a degree-one twist, to a parabolic constant."""
    twist = rotation_series((1,))
    jump = np.array([[1.0, zeta0], [0.0, 1.0]])
    g = 64
    pts = (np.arange(g) / g).reshape(-1, 1)
    here = twist.evaluate(pts)
    ahead = twist.evaluate(pts + np.asarray(freq.vec))
    vals = ahead @ (jump @ np.linalg.inv(here))
    base = rotation(0.5 * float(freq.vec[0]))
    logs = log_sl2(np.linalg.inv(base) @ vals)
    return base, kam._extract_series(logs, 1, 5, 1)


# ---------------------------------------------------------------------------
# constant classification and resonance detection


def test_eigen_rho_elliptic():
    out = eigen_rho(rotation(0.17))
    assert out["kind"] == "elliptic"
    assert abs(out["rho"] - 0.17) < 1e-12


def test_eigen_rho_elliptic_sign_fold():
    out = eigen_rho(rotation(-0.2))
    assert out["kind"] == "elliptic"
    assert abs(out["rho"] - 0.2) < 1e-12


def test_eigen_rho_parabolic():
    assert eigen_rho(np.array([[1.0, 1.0], [0.0, 1.0]])) == {
        "kind": "parabolic", "rho": 0.0}
    assert eigen_rho(np.array([[-1.0, 3.0], [0.0, -1.0]])) == {
        "kind": "parabolic", "rho": 0.5}


def test_eigen_rho_hyperbolic():
    out = eigen_rho(np.diag([2.0, 0.5]))
    assert out["kind"] == "hyperbolic"
    assert abs(out["rho"] - math.log(2.0) / (2.0 * math.pi)) < 1e-12


def test_detect_resonance_exact_site(freq):
    assert detect_resonance(GOLDEN / 2.0, freq, 50, 5e-3) == (1,)


def test_detect_resonance_clean_window(freq):
    assert detect_resonance(0.17, freq, 12, 5e-3) is None


def test_detect_resonance_far_site_appears(freq):
    # the denominator 41 of the golden continued fraction dips below the
    # threshold once the window reaches it
    assert detect_resonance(0.17, freq, 50, 5e-3) == (41,)


def test_detect_resonance_two_sites_error(freq):
    with pytest.raises(ResonanceError):
        detect_resonance(GOLDEN / 2.0, freq, 50, 0.4)


def test_detect_resonance_bad_arguments(freq):
    with pytest.raises(ValueError):
        detect_resonance(0.1, freq, 0, 5e-3)
    with pytest.raises(ValueError):
        detect_resonance(0.1, freq, 10, 0.0)


# ---------------------------------------------------------------------------
# grid sampling agrees with pointwise evaluation


def _mesh(dim, g, span):
    """The g^dim equispaced mesh of [0, span)^dim, shape (g ** dim, dim),
    first coordinate slowest, so rows reshape to a (g,) * dim grid."""
    axis = np.arange(g) * (span / g)
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack(grids, axis=-1).reshape(-1, dim)


def test_sample_matches_pointwise_matrix():
    s = _rand_sl2_series(1.0, 4, seed=3)
    g = 32
    direct = s.evaluate(_mesh(1, g, 1)).reshape(g, 2, 2)
    assert float(np.max(np.abs(direct - s.on_mesh(g)))) < 1e-12


def test_sample_matches_pointwise_period_two():
    s = FourierSeries(1, 3, {(-3,): 0.5 + 0j, (3,): 0.5 + 0j,
                             (1,): 1j, (-1,): -1j}, 2)
    direct = s.evaluate(_mesh(1, 16, 2)).reshape(16)
    assert float(np.max(np.abs(direct - s.on_mesh(16)))) < 1e-12


def test_sample_aliases_like_pointwise():
    # support beyond half the grid folds onto the same mesh values
    s = FourierSeries(1, 9, {(9,): 1.0 + 0j, (-9,): 1.0 + 0j}, 1)
    direct = s.evaluate(_mesh(1, 8, 1)).reshape(8)
    assert float(np.max(np.abs(direct - s.on_mesh(8)))) < 1e-12


def _rowwise_sl2_series(scale, radius, seed, dim):
    """The mode-by-mode draw, in ball order, that seeded_sl2_series makes
    in one call."""
    rng = np.random.default_rng(seed)
    coeffs = {}
    for n in itertools.product(range(-radius, radius + 1), repeat=dim):
        m = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) * scale
        coeffs[n] = m - 0.5 * np.trace(m) * np.eye(2)
    return FourierSeries(dim, radius, coeffs, 1).symmetrized()


def _assert_same_bits(got, want):
    """The same modes, in the same order, with bit-equal coefficients."""
    assert np.array_equal(got.modes, want.modes)
    assert got.values.shape == want.values.shape
    assert got.values.tobytes() == want.values.tobytes()


def _coefficient(series, n):
    """The stored coefficient of mode n; the mode must be stored."""
    row, = np.flatnonzero((series.modes == n).all(axis=1))
    return series.values[row]


@pytest.mark.parametrize("seed", [1, 7, 123])
@pytest.mark.parametrize("radius,dim", [(3, 1), (5, 2), (2, 3), (40, 1)])
def test_seeded_series_is_the_rowwise_draw(seed, radius, dim):
    got = kam.seeded_sl2_series(2.5e-4, radius, seed, dim=dim)
    want = _rowwise_sl2_series(2.5e-4, radius, seed, dim)
    _assert_same_bits(got, want)


def test_seeded_series_rejects_an_oversized_ball_before_drawing():
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="2146689 ball rows"):
            kam.seeded_sl2_series(1e-4, 64, 1, dim=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


_TERMS = {(1,): [[1e-4, 2e-4], [-3e-4, -1e-4]],
          (-3,): [[0.0, 5e-5], [5e-5, 0.0]]}


@pytest.mark.parametrize("terms,dim", [
    (_TERMS, 1),
    ({(1, 0): [[1e-4, 0.0], [2e-5, -1e-4]],
      (0, -2): [[0.0, 1e-5], [0.0, 0.0]]}, 2),
])
def test_explicit_series_is_the_symmetrized_input(terms, dim):
    got = kam.explicit_sl2_series(terms, dim)
    radius = max(max(map(abs, n)) for n in terms)
    want = FourierSeries(
        dim, radius,
        {n: np.asarray(m, dtype=float).astype(complex)
         for n, m in terms.items()}, 1).symmetrized()
    assert got.radius == want.radius
    _assert_same_bits(got, want)


@pytest.mark.parametrize("terms,dim,match", [
    ({}, 1, "nonempty"),
    ({(1,): "x"}, 1, "2x2"),
    ({(1,): [[1e-4, 0.0]]}, 1, "2x2"),
    ({(1,): [[0.0, [1.0]], [0.0, 0.0]]}, 1, "2x2"),
    ({(1,): [[0.0, math.inf], [0.0, 0.0]]}, 1, "finite"),
    ({(1,): [[math.nan, 0.0], [0.0, 0.0]]}, 1, "finite"),
    ({(1,): [[1e-4, 0.0], [0.0, 1e-4]]}, 1, "traceless"),
    ({(1, 0): [[0.0, 1e-4], [0.0, 0.0]]}, 1, "needs 1 components"),
    ({(1,): [[0.0, 1e-4], [0.0, 0.0]]}, 2, "needs 2 components"),
])
def test_explicit_series_rejects_what_is_not_sl2(terms, dim, match):
    with pytest.raises(ValueError, match=match):
        kam.explicit_sl2_series(terms, dim)


def _functions(tree, prefix):
    """(qualified name, node) of every function in tree, methods as
    prefix.Class.method."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = f"{scope}.{child.name}"
                if isinstance(child, ast.FunctionDef):
                    out.append((name, child))
                visit(child, name)

    visit(tree, prefix)
    return out


def _builds_phase_matrix(fn):
    # an exp, cos or sin of a (points) @ (modes).T product, taken directly
    # or through a name that fn assigns from one
    def product(node):
        return any(isinstance(op, ast.BinOp)
                   and isinstance(op.op, ast.MatMult)
                   and getattr(op.right, "attr", None) == "T"
                   for op in ast.walk(node))

    phases = {target.id for node in ast.walk(fn)
              if isinstance(node, ast.Assign) and product(node.value)
              for target in node.targets if isinstance(target, ast.Name)}
    return any(isinstance(call, ast.Call)
               and getattr(call.func, "attr", None) in ("exp", "cos", "sin")
               and any(product(arg) or getattr(arg, "id", None) in phases
                       for arg in call.args)
               for call in ast.walk(fn))


def test_mesh_sampling_has_one_owner():
    # the package synthesizes series on meshes in FourierSeries.on_mesh
    # alone and builds a phase matrix in FourierSeries.evaluate alone, a
    # real one; every kam mesh comes from _mesh_values, which reaches
    # values through on_mesh
    src = Path(kam.__file__).parent
    functions = [item for path in sorted(src.glob("*.py"))
                 for item in _functions(ast.parse(path.read_text()),
                                        path.stem)]
    ifftn = {name for name, fn in functions for node in ast.walk(fn)
             if isinstance(node, ast.Attribute) and node.attr == "ifftn"}
    assert ifftn == {"qpcore.FourierSeries.on_mesh"}
    assert {name for name, fn in functions if _builds_phase_matrix(fn)} \
        == {"qpcore.FourierSeries.evaluate"}
    evaluate, = [fn for name, fn in functions
                 if name == "qpcore.FourierSeries.evaluate"]
    complex_makers = [node for node in ast.walk(evaluate)
                      if isinstance(node, ast.Constant)
                      and isinstance(node.value, complex)
                      or getattr(node, "attr", getattr(node, "id", None))
                      in ("complex", "complex128", "exp", "conj", "real",
                          "imag", "astype")]
    assert not complex_makers
    tree = ast.parse(Path(kam.__file__).read_text())
    names = {getattr(node, field) for node in ast.walk(tree)
             for kind, field in ((ast.Attribute, "attr"), (ast.Name, "id"),
                                 (ast.alias, "name"))
             if isinstance(node, kind)}
    assert not names & {"evaluate_complex", "torus_mesh", "_arrays",
                        "ifftn", "_sample"}
    mesh_values, = [fn for name, fn in functions
                    if name == "kam._mesh_values"]
    reads = {node.attr for node in ast.walk(mesh_values)
             if isinstance(node, ast.Attribute)}
    assert reads & {"on_mesh", "evaluate", "evaluate_complex", "coeffs",
                    "fft"} == {"on_mesh"}
    assert "_real_samples" not in {name for name, _ in functions}
    assert not hasattr(kam, "_window_size")


def test_mode_sorting_has_one_owner():
    # qpcore sorts mode rows in FourierSeries._store alone; symmetrized and
    # cosine_polynomial read the half-mode pairing instead of a union sort
    path = Path(kam.__file__).parent / "qpcore.py"
    sorts = {name for name, fn in _functions(ast.parse(path.read_text()),
                                             "qpcore")
             for node in ast.walk(fn)
             if isinstance(node, ast.Attribute) and node.attr == "lexsort"}
    assert sorts == {"qpcore.FourierSeries._store"}
    assert path.read_text().count("lexsort") == 1


def _direct_mesh_values(g, span, s):
    """The direct-evaluation reference: every mesh row through
    evaluate, reshaped to the grid."""
    tail = (2, 2) if s.is_matrix else ()
    vals = s.evaluate(_mesh(s.dim, g, span))
    return vals.reshape((g,) * s.dim + tail)


@pytest.mark.parametrize("dim,g", [(1, 256), (1, 32), (2, 16), (2, 10),
                                   (3, 7), (3, 8)])
@pytest.mark.parametrize("period,span", [(1, 1), (1, 2), (2, 1), (2, 2)])
@pytest.mark.parametrize("radius", ["inside", "past_half"])
def test_mesh_values_match_direct_evaluation(dim, g, period, span, radius):
    # residual meshes are g = 256, 16 and 7; a support past g/2 aliases
    r = g // 2 + 1 if radius == "past_half" else max(1, g // 4 - 1)
    mats = kam.seeded_sl2_series(1.0, r, seed=dim * 100 + g + period, dim=dim)
    s = FourierSeries.from_arrays(dim, r, mats.modes, mats.values, period)
    scalar = FourierSeries.from_arrays(
        dim, r, s.modes, s.values[:, 0, 1] + s.values[:, 1, 0],
        period).symmetrized()
    for series in (s, scalar):
        got, = kam._mesh_values(g, span, series)
        want = _direct_mesh_values(g, span, series)
        assert got.shape == want.shape
        tol = 1e-12 * (1.0 + float(np.max(np.abs(want))))
        assert float(np.max(np.abs(got - want))) <= tol


def _logged_schedule(monkeypatch):
    """Log every resonance scan window and every step of a run."""
    log = []
    scan = kam.detect_resonance

    def scanned(rho, freq, N, threshold):
        log.append(("scan", N))
        return scan(rho, freq, N, threshold)

    monkeypatch.setattr(kam, "detect_resonance", scanned)
    for name in ("nonresonant_step", "resonant_step"):
        step = getattr(kam, name)

        def stepped(state, *args, _step=step, **kwargs):
            radius = max(state.f.support_radius(), 1)
            out = _step(state, *args, **kwargs)
            log.append(("step", radius))
            return out

        monkeypatch.setattr(kam, name, stepped)
    return log


@pytest.mark.parametrize("case", ["1-D", "2-D", "resonant"])
def test_run_window_is_the_capped_solve_band(freq, monkeypatch, case):
    if case == "2-D":
        freq = diophantine_check((GOLDEN, math.sqrt(2.0) - 1.0), gamma=0.01,
                                 tau=2.5, cutoff=10)
        A, f = rotation(0.23), kam.seeded_sl2_series(2.5e-4, 2, 3, dim=2)
    elif case == "resonant":
        A, f = rotation(GOLDEN / 2.0 + 1e-3), _rand_sl2_series(3e-5, 2, 5)
    else:
        A, f = rotation(0.17), kam.seeded_sl2_series(2.5e-4, 3, 11)
    cap = kam._WINDOW_CAP[freq.dim]
    log = _logged_schedule(monkeypatch)
    out = almost_reducibility_run(A, f, freq)
    assert out.norm() <= 1e-12
    kinds = {row.kind for row in out.ledger}
    assert kinds == ({"resonant", "nonresonant"} if case == "resonant"
                     else {"nonresonant"})
    for row in out.ledger:
        if row.kind == "nonresonant":
            assert row.window == min(row.band, cap)
    # every scan of step j (the run's and the step's own) uses the band
    # min(10^(2^(j-1)), 10^6, support radius at the start of step j),
    # capped
    j, windows = 0, []
    for what, value in log:
        if what == "scan":
            windows.append(value)
            continue
        j += 1
        band = min(10 ** 2 ** (j - 1), 10 ** 6, value)
        assert windows and set(windows) == {min(band, cap)}
        windows = []
    assert j == len(out.ledger)


def test_resonance_windows_stay_within_the_ball_cap():
    from qpspec.qpcore import ball_rows

    # ball_rows raises above the cap; 2-D is the tight one
    for dim, window in kam._WINDOW_CAP.items():
        ball_rows(dim, window)
    with pytest.raises(ValueError, match="above the cap"):
        ball_rows(2, kam._WINDOW_CAP[2] + 1)


@pytest.mark.parametrize("dim,g", [(1, 8), (1, 16), (2, 8), (2, 16)])
def test_sample_scatter_matches_the_keywise_loop(dim, g):
    # aliased modes must sum in key order, as the one-key-at-a-time
    # scatter did, so the buffer agrees bit for bit
    s = kam.seeded_sl2_series(1.0, 9 if dim == 1 else 5, seed=dim + g,
                              dim=dim)
    buf = np.zeros((g,) * dim + (2, 2), dtype=complex)
    for k, c in zip(s.modes, s.values):
        buf[tuple(np.mod(k, g))] += c
    ref = np.fft.ifftn(buf, axes=tuple(range(dim))) * float(g ** dim)
    assert np.array_equal(s.on_mesh(g), ref.real)


# ---------------------------------------------------------------------------
# state construction


def test_initial_state_validates(freq):
    with pytest.raises(ValueError):
        initial_state(np.diag([2.0, 1.0]), _zero_f(), freq)
    with pytest.raises(ValueError):
        initial_state(rotation(0.1), FourierSeries(1, 0, {(0,): 1.0 + 0j}),
                      freq)
    lifted = FourierSeries(1, 0, {(0,): np.zeros((2, 2), complex)}, 2)
    with pytest.raises(ValueError):
        initial_state(rotation(0.1), lifted, freq)


def test_initial_state_fields(freq):
    st = initial_state(rotation(0.17), _rand_sl2_series(1e-4, 2, 7), freq)
    assert isinstance(st, KamState)
    assert st.deg_accum == (0,)
    assert st.ledger == ()
    assert eigen_rho(st.A)["kind"] == "elliptic"
    assert st.residual() < 1e-12


# ---------------------------------------------------------------------------
# nonresonant step


def test_nonresonant_step_quadratic_contraction(freq):
    st = initial_state(rotation(0.17), _rand_sl2_series(2.5e-4, 3, 11), freq)
    before = st.norm()
    out = nonresonant_step(st, window=12, threshold=5e-3)
    row = out.ledger[-1]
    assert row.kind == "nonresonant"
    assert row.norm_after <= row.norm_before ** 1.9
    assert row.norm_before == pytest.approx(before)
    assert row.n_star is None
    assert row.inner_passes >= 1
    assert out.residual() <= 1e-9
    assert out.deg_accum == (0,)


def test_nonresonant_step_zero_perturbation_is_noop(freq):
    st = initial_state(rotation(0.17), _zero_f(), freq)
    out = nonresonant_step(st, window=12, threshold=5e-3)
    assert out is st


def test_nonresonant_step_average_absorbed_exactly(freq):
    c0 = np.array([[0.0, 2e-4], [2e-4, 0.0]], dtype=complex)
    f = FourierSeries(1, 0, {(0,): c0}, 1)
    st = initial_state(rotation(0.17), f, freq)
    out = nonresonant_step(st, window=12, threshold=5e-3)
    assert out.norm() <= 1e-15
    expected = rotation(0.17) @ exp_sl2(c0.real)
    assert float(norm2(out.A - expected)) < 1e-12


def test_nonresonant_step_rejects_resonant_constant(freq):
    st = initial_state(rotation(GOLDEN / 2.0),
                       _rand_sl2_series(1e-4, 2, 13), freq)
    with pytest.raises(ResonanceError):
        nonresonant_step(st, window=12, threshold=5e-3)


def test_nonresonant_step_norm_guard(freq):
    st = initial_state(rotation(0.17), _rand_sl2_series(0.2, 1, 17), freq)
    with pytest.raises(ValueError):
        nonresonant_step(st, window=12, threshold=5e-3)


# ---------------------------------------------------------------------------
# resonant step


def test_resonant_step_bookkeeping(freq):
    st = initial_state(rotation(GOLDEN / 2.0), _zero_f(), freq)
    out = resonant_step(st, (1,))
    row = out.ledger[-1]
    assert row.kind == "resonant"
    assert row.n_star == (1,)
    assert out.deg_accum == (1,)
    assert eigen_rho(out.A)["kind"] == "parabolic"
    assert abs(eigen_rho(out.A)["rho"]) < 1e-10
    assert out.residual() < 1e-12


def test_resonant_step_twists_a_clockwise_constant_at_minus_n_star(freq):
    # R_{-rho} resonates at -n*: the twist, the degree and the ledger row
    # take -n*, and the row keeps eigen_rho's rho
    st = initial_state(rotation(-GOLDEN / 2.0), _zero_f(), freq)
    out = resonant_step(st, (1,))
    row = out.ledger[-1]
    assert row.n_star == (-1,)
    assert row.rho == pytest.approx(GOLDEN / 2.0, abs=1e-15)
    assert out.deg_accum == (-1,)
    assert eigen_rho(out.A)["kind"] == "parabolic"
    assert out.residual() < 1e-12


@pytest.mark.parametrize("turn", [0.2, -0.2, 0.4999, -0.4999])
def test_elliptic_conjugator_signs_the_rotation(turn):
    P = np.array([[2.0, 1.0], [0.0, 0.5]])
    A = P @ rotation(turn) @ np.linalg.inv(P)
    rho = eigen_rho(A)["rho"]
    Q, got = kam._elliptic_conjugator(A, rho)
    assert got == (rho if turn > 0.0 else -rho)
    assert got == pytest.approx(turn, abs=1e-12)
    assert float(np.linalg.det(Q)) == pytest.approx(1.0, abs=1e-12)
    assert float(norm2(np.linalg.inv(Q) @ A @ Q - rotation(got))) < 1e-12


def test_resonant_step_degree_additive(freq):
    rho0 = GOLDEN / 2.0 + 0.072949
    st = initial_state(rotation(rho0), _zero_f(), freq)
    st = resonant_step(st, (1,))
    assert st.deg_accum == (1,)
    assert abs(eigen_rho(st.A)["rho"] - 0.072949) < 1e-9
    st = resonant_step(st, (-3,))
    assert st.deg_accum == (-2,)
    assert eigen_rho(st.A)["kind"] == "parabolic"
    assert st.residual() < 1e-10


def test_resonant_step_rotation_shift_rule(freq):
    # the constant rotation moves by half the resonant bracket
    st = initial_state(rotation(GOLDEN / 2.0 + 1e-3),
                       _rand_sl2_series(3e-5, 2, 5), freq)
    out = resonant_step(st, (1,))
    expected = conjugated_rotation(GOLDEN / 2.0 + 1e-3, (1,), freq)
    assert dist_to_int(eigen_rho(out.A)["rho"] - expected) < 1e-3
    assert out.residual() < 1e-9


def test_resonant_step_rejects_zero_site(freq):
    st = initial_state(rotation(GOLDEN / 2.0), _zero_f(), freq)
    with pytest.raises(ValueError):
        resonant_step(st, (0,))


def test_resonant_step_needs_elliptic_constant(freq):
    st = initial_state(np.array([[3.0, -1.0], [1.0, 0.0]]), _zero_f(), freq)
    with pytest.raises(ReductionError):
        resonant_step(st, (1,))


# ---------------------------------------------------------------------------
# the divisor floor


def test_nonresonant_step_divisor_floor_outside_the_window(freq):
    # 2 rho = <2, alpha> mod 1 exactly, but the window only scans |n| <= 1
    m = 1e-4 * np.array([[1.0, 2.0j], [0.5, -1.0]])
    f = FourierSeries(1, 2, {(2,): m, (-2,): np.conj(m)}, 1).symmetrized()
    st = initial_state(rotation((2.0 * GOLDEN % 1.0) / 2.0), f, freq)
    with pytest.raises(DivisorError) as err:
        nonresonant_step(st, window=1, threshold=1e-3, band=2)
    assert err.value.n in {(2,), (-2,)}
    assert err.value.divisor < 1e-12


def test_resonant_step_divisor_floor_at_a_wrong_site(freq):
    # the resonance sits at n = 1; skipping the lines of n = 2 leaves the
    # vanishing divisor of mode +-1 in the solve
    st = initial_state(rotation(GOLDEN / 2.0),
                       _rand_sl2_series(1e-4, 3, 13), freq)
    with pytest.raises(DivisorError) as err:
        resonant_step(st, (2,))
    assert err.value.n in {(1,), (-1,)}
    assert err.value.divisor < 1e-12


def test_modewise_solve_has_one_owner():
    tree = ast.parse(Path(kam.__file__).read_text())
    owners = {"solve": set(), "svd": set(), "DivisorError": set()}
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if (isinstance(node, ast.Attribute) and node.attr in owners
                    and ast.unparse(node.value) == "np.linalg"):
                owners[node.attr].add(fn.name)
            if isinstance(node, ast.Raise) and node.exc is not None \
                    and "DivisorError" in ast.unparse(node.exc):
                owners["DivisorError"].add(fn.name)
    assert owners == {"solve": {"_solve_homological"},
                      "svd": {"_solve_homological"},
                      "DivisorError": {"_check_divisors"}}


# ---------------------------------------------------------------------------
# full runs


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_run_entry_gate_rejects_non_finite(freq, bad):
    c = np.array([[0.0, bad], [0.0, 0.0]], dtype=complex)
    f = FourierSeries(1, 1, {(1,): c, (-1,): c}, 1)
    with pytest.raises(kam._EntryGateError, match="entry gate"):
        almost_reducibility_run(rotation(0.17), f, freq)


@pytest.mark.parametrize("radius,dim", [(16383, 1), (15, 2), (1, 3)])
def test_run_checks_the_first_step_reach_before_any_step(radius, dim):
    # the first step reaches 16 times the start radius, a series grid of
    # (64 radius + 1)^dim points: the largest radius under the element cap
    # meets the entry gate, and one more raises SizeError before it
    freq = diophantine_check(
        [GOLDEN, math.sqrt(2.0) - 1.0, math.sqrt(3.0) - 1.0][:dim], 1e-3,
        3.5, 10)
    mode = np.array([[0.0, 1.0], [0.0, 0.0]])

    def run(r):
        f = kam.explicit_sl2_series({(r,) + (0,) * (dim - 1): mode}, dim)
        return almost_reducibility_run(rotation(0.17), f, freq)

    with pytest.raises(kam._EntryGateError, match="entry gate"):
        run(radius)
    with pytest.raises(SizeError, match=rf"\|n\| = {16 * (radius + 1)} in"):
        run(radius + 1)


def test_run_zero_perturbation_stops_immediately(freq):
    out = almost_reducibility_run(rotation(0.17), _zero_f(), freq)
    assert out.ledger == ()
    assert out.norm() == 0.0


def test_run_nonresonant_schedule(freq):
    out = almost_reducibility_run(rotation(0.17),
                                  _rand_sl2_series(2.5e-4, 3, 11), freq)
    kinds = [row.kind for row in out.ledger]
    assert kinds and set(kinds) == {"nonresonant"}
    assert len(kinds) <= 6
    for row in out.ledger:
        assert row.norm_after <= max(row.norm_before ** 1.9, 1e-15)
    assert out.norm() <= 1e-12
    assert out.residual() <= 1e-9
    assert out.deg_accum == (0,)
    assert out.check_residual() == out.residual()


def test_run_resonant_start(freq):
    out = almost_reducibility_run(rotation(GOLDEN / 2.0 + 1e-3),
                                  _rand_sl2_series(3e-5, 2, 5), freq)
    kinds = [row.kind for row in out.ledger]
    assert kinds[0] == "resonant"
    sites = [row.n_star for row in out.ledger if row.kind == "resonant"]
    assert sites == [(1,)]
    # each row is built once, with its index in the ledger
    assert all(isinstance(row, kam.LedgerStep) for row in out.ledger)
    assert [row.step for row in out.ledger] == list(range(len(kinds)))
    assert out.deg_accum == (1,)
    assert out.norm() <= 1e-12


def test_nonresonant_step_refines_inside_one_step(freq):
    # the second step's first pass more than halves the norm but stays
    # above its square, so the inner refinement runs a second solve
    out = almost_reducibility_run(rotation(0.23),
                                  kam.seeded_sl2_series(2.5e-4, 3, 4), freq)
    assert [row.kind for row in out.ledger] == ["nonresonant"] * 2
    assert [row.inner_passes for row in out.ledger] == [1, 2]
    assert out.norm() == 0.0
    assert out.ledger[-1].residual == out.residual() <= 1e-9


def test_run_rotation_number_bookkeeping(freq):
    rho0 = GOLDEN / 2.0 + 1e-3
    out = almost_reducibility_run(rotation(rho0),
                                  _rand_sl2_series(3e-5, 2, 5), freq)
    expected = conjugated_rotation(rho0, out.deg_accum, freq)
    assert dist_to_int(eigen_rho(out.A)["rho"] - expected) < 1e-4


def test_run_start_guard(freq):
    with pytest.raises(ValueError):
        almost_reducibility_run(rotation(0.17),
                                _rand_sl2_series(0.05, 1, 19), freq)


def test_run_ledger_rows_are_json_ready(freq):
    import json

    out = almost_reducibility_run(rotation(0.17),
                                  _rand_sl2_series(2.5e-4, 3, 11), freq)
    dumped = json.dumps([dataclasses.asdict(row) for row in out.ledger])
    assert "nonresonant" in dumped


# ---------------------------------------------------------------------------
# reduction to the parabolic normal form at gap edges


def test_reduce_right_edge_of_free_spectrum(freq):
    A = np.array([[2.0, -1.0], [1.0, 0.0]])
    out = reduce_to_parabolic(A, _zero_f(), freq, 0)
    assert abs(out["zeta"] + 1.0) < 1e-10
    assert out["sign"] == 1.0
    assert np.allclose(out["H"], A)
    assert out["residual"] < 1e-12
    B0 = _coefficient(out["B"], (0,))
    assert np.allclose(B0, np.array([[1.0, 0.0], [1.0, 1.0]]))


def test_reduce_left_edge_of_free_spectrum(freq):
    A = np.array([[-2.0, -1.0], [1.0, 0.0]])
    out = reduce_to_parabolic(A, _zero_f(), freq, 0)
    assert abs(out["zeta"] - 1.0) < 1e-10
    assert out["sign"] == -1.0
    assert out["residual"] < 1e-12


def test_reduce_constant_parabolic_identity_conjugacy(freq):
    P = np.array([[1.0, 0.3], [0.0, 1.0]])
    out = reduce_to_parabolic(P, _zero_f(), freq, 0)
    assert abs(out["zeta"] - 0.3) < 1e-12
    assert np.allclose(_coefficient(out["B"], (0,)), np.eye(2))


def test_reduce_twisted_edge_recovers_jump(freq):
    base, f = _twist_edge_perturbation(freq, 0.004)
    assert ck_norm(f, 0) < 1e-2
    out = reduce_to_parabolic(base, f, freq, 1)
    assert abs(out["zeta"] - 0.004) < 1e-8
    assert tuple(out["state"].deg_accum) == (1,)
    assert out["residual"] < 1e-10
    assert out["discarded_norm"] < 1e-10


def test_reduce_left_edge_sign_flips(freq):
    base, f = _twist_edge_perturbation(freq, -0.004)
    out = reduce_to_parabolic(base, f, freq, 1)
    assert abs(out["zeta"] + 0.004) < 1e-8


def test_reduce_precheck_rejects_wrong_label(freq):
    from qpspec.qpcore import amo_potential

    # the right edge of the label-1 gap of the gap_edge benchmark config,
    # claimed for label 2: the rotation number there says otherwise
    with pytest.raises(ReductionError, match="rotation number defect"):
        kam.gap_edge_step(amo_potential(0.004), freq, (2,), 0.728833,
                          4.0 / 6000)


def test_edge_admission_accepts_a_true_edge(freq):
    from qpspec.qpcore import amo_potential

    kam._admit_edge(amo_potential(0.004), freq, (1,), 0.728833 - 4.0 / 6000)
    kam._admit_edge(amo_potential(0.004), freq, (-1,), 0.728833 - 4.0 / 6000)


def test_reduce_degree_mismatch_without_precheck(freq):
    base, f = _twist_edge_perturbation(freq, 0.004)
    with pytest.raises(ReductionError):
        reduce_to_parabolic(base, f, freq, 0)


def test_reduce_elliptic_interior_is_not_parabolic(freq):
    with pytest.raises(ReductionError):
        reduce_to_parabolic(rotation(0.17), _zero_f(), freq, 0)


def test_kam_builds_no_general_cocycle():
    # edge admission runs on the exact Schrodinger cocycle, so kam needs
    # neither a general Cocycle nor the one-orbit rotation number, and
    # reduce_to_parabolic carries no precheck switch
    tree = ast.parse(Path(kam.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    assert not names & {"Cocycle", "rotation_number"}
    # no library module defines a general cocycle, the one-orbit walk, a
    # cone certificate or the Moser-Poschel remainder and its step size,
    # and one function makes the transfer matrices for one caller, the
    # gap-edge step
    defined, builds = set(), set()
    for path in sorted(Path(kam.__file__).parent.glob("*.py")):
        module = ast.parse(path.read_text())
        for fn in ast.walk(module):
            if isinstance(fn, (ast.FunctionDef, ast.ClassDef)):
                defined.add(fn.name)
            elif isinstance(fn, ast.Name) and isinstance(fn.ctx, ast.Store):
                defined.add(fn.id)
            if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr",
                                                         None))
                    == "transfer_matrices" for node in ast.walk(fn)):
                builds.add(f"{path.stem}.{fn.name}")
    assert not defined & {"Cocycle", "schrodinger_cocycle", "orbit_matrices",
                          "rotation_number", "uniform_hyperbolicity_test",
                          "HyperbolicityVerdict", "_cone_image_margin",
                          "_CONE_MARGIN", "StepSizeError", "_delta_guard",
                          "_D_TAU", "_solve_parabolic_cohomological",
                          "_modewise_solve", "P1_norm_bound",
                          "cauchy_schwarz_slack"}
    assert builds == {"kam.gap_edge_step"}
    params = {node.name: {a.arg for a in node.args.args
                          + node.args.kwonlyargs}
              for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert "check_inputs" not in params["reduce_to_parabolic"]
    assert "delta" not in params["gap_edge_step"]
    assert "delta" not in params["moser_poschel_step"]


# ---------------------------------------------------------------------------
# Moser-Poschel step and gap-edge data


def test_mp_brackets_identity_conjugacy():
    zeta = 0.01
    b0, b1 = mp_brackets(zeta, 1.0, 0.0, 0.0)
    assert np.allclose(b0, np.array([[0.0, zeta], [0.0, 0.0]]))
    assert np.allclose(b1, np.array([[-zeta / 2.0, 0.0], [-1.0, zeta / 2.0]]))


def test_mp_step_identity_conjugacy():
    X = FourierSeries(1, 0, {(0,): np.eye(2, dtype=complex)}, 2)
    zeta, delta = 0.01, 1e-4
    mp = moser_poschel_step(X, zeta)
    assert mp.x11_sq == pytest.approx(1.0)
    assert mp.x11_x12 == pytest.approx(0.0)
    assert mp.x12_sq == pytest.approx(0.0)
    assert d_of_delta(mp, delta) == pytest.approx(-delta * zeta)
    assert abs(det_identity_defect(mp, delta)) < 1e-15


def test_mp_step_oscillating_conjugacy():
    X = FourierSeries(1, 1, {
        (0,): np.eye(2, dtype=complex),
        (1,): np.array([[0.05, 0.02], [0.0, -0.05]], dtype=complex),
        (-1,): np.array([[0.05, 0.02], [0.0, -0.05]], dtype=complex),
    }, 2)
    mp = moser_poschel_step(X, 0.02)
    assert mp.x11_sq > 0.0
    assert mp.d_quad >= -1e-12
    assert abs(det_identity_defect(mp, 5e-5)) < 1e-14


def test_mp_step_two_dimensional_means_are_the_direct_ones():
    # grid-shaped samples in 2-D: the three averages are the means of
    # the direct evaluation on the plain-torus mesh of the step
    off = np.array([[0.05, 0.02], [0.01, -0.05]], dtype=complex)
    X = FourierSeries(2, 1, {(0, 0): np.eye(2, dtype=complex),
                             (1, 0): off, (-1, 0): off,
                             (0, 1): 0.5j * off.T, (0, -1): -0.5j * off.T,
                             (1, -1): 0.3 * off, (-1, 1): 0.3 * off},
                      2).symmetrized()
    mp = moser_poschel_step(X, 0.02)
    # the step's plain-torus mesh for support radius 1 has 64 points a side
    vals = _direct_mesh_values(64, 1, X)
    x11, x12 = vals[..., 0, 0], vals[..., 0, 1]
    assert x11.ndim == 2
    for got, want in ((mp.x11_sq, np.mean(x11 * x11)),
                      (mp.x11_x12, np.mean(x11 * x12)),
                      (mp.x12_sq, np.mean(x12 * x12))):
        assert abs(got - want) <= 1e-14 * (1.0 + abs(want))
    assert mp.x11_x12 != 0.0


def test_mp_determinant_identity_random_tuples():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        z = rng.uniform(1e-6, 0.49)
        a = rng.uniform(0.1, 3.0)
        b = rng.uniform(-1.0, 1.0)
        c = b * b / a + rng.uniform(0.0, 2.0)
        d = rng.uniform(1e-8, 1e-2)
        b0, b1 = mp_brackets(z, a, b, c)
        direct = float(np.linalg.det(b0 - d * b1)) + 0.25 * d * d * z * z * a * a
        model = -z * a * d + (a * c - b * b) * d * d
        worst = max(worst, abs(direct - model))
    assert worst < 1e-12


def test_mp_step_guards():
    X = FourierSeries(1, 0, {(0,): np.eye(2, dtype=complex)}, 2)
    for zeta in (0.6, 0.5, 0.0, -0.01):
        with pytest.raises(ValueError, match="zeta"):
            moser_poschel_step(X, zeta)
    with pytest.raises(ValueError, match="matrix-valued"):
        moser_poschel_step(FourierSeries(1, 0, {(0,): 1.0 + 0j}, 1), 0.01)


def test_mp_step_rejects_a_nonfinite_conjugacy():
    # a NaN coefficient makes ck_norm NaN: a ReductionError before any
    # average is taken
    bad = np.full((2, 2), math.nan, dtype=complex)
    X = FourierSeries(1, 1, {(0,): np.eye(2, dtype=complex), (1,): bad,
                             (-1,): bad}, 2)
    with pytest.raises(ReductionError, match="not finite"):
        moser_poschel_step(X, 0.01)


def test_mp_data_validation():
    b0, b1 = mp_brackets(0.01, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        MoserPoschelData(zeta=0.01, b0=b0, b1=b1, x11_sq=-1.0, x11_x12=0.0,
                         x12_sq=1.0, d_lin=-0.01, d_quad=1.0, x_norm=1.0)
    with pytest.raises(ValueError, match="Cauchy-Schwarz"):
        MoserPoschelData(zeta=0.01, b0=b0, b1=b1, x11_sq=1.0, x11_x12=0.0,
                         x12_sq=1.0, d_lin=-0.01, d_quad=-1e-6, x_norm=1.0)


def test_gap_edge_bound_all_hypotheses_pass():
    z, a, b, c = 1e-30, 0.05, 0.0, 0.2
    b0, b1 = mp_brackets(z, a, b, c)
    mp = MoserPoschelData(zeta=z, b0=b0, b1=b1, x11_sq=a, x11_x12=b,
                          x12_sq=c, d_lin=-z * a, d_quad=a * c - b * b,
                          x_norm=1.0)
    out = gap_edge_bound(mp)
    assert out["failed"] == []
    assert all(out["hypotheses"].values())
    assert out["predicted_gap_upper"] == pytest.approx(z ** (17.0 / 18.0))
    assert out["hypotheses"]["rotation_positive"] is True


def test_gap_edge_bound_reports_failures_without_raising():
    b0, b1 = mp_brackets(1e-4, 1.0, 0.0, 0.0)
    mp = MoserPoschelData(zeta=1e-4, b0=b0, b1=b1, x11_sq=1.0, x11_x12=0.0,
                          x12_sq=0.0, d_lin=-1e-4, d_quad=0.0, x_norm=1.0)
    out = gap_edge_bound(mp)
    assert "ratio_bound" in out["failed"]
    assert out["hypotheses"]["ratio_bound"] is False


def test_gap_edge_bound_collapsed_edge():
    # a collapsed edge (zeta 0), or the other side of the gap (zeta < 0),
    # has no Moser-Poschel data, so gap_edge_bound never sees one
    b0, b1 = mp_brackets(0.01, 1.0, 0.0, 1.0)
    for zeta in (0.0, -1e-6):
        with pytest.raises(ValueError, match="zeta"):
            MoserPoschelData(zeta=zeta, b0=b0, b1=b1, x11_sq=1.0,
                             x11_x12=0.0, x12_sq=1.0, d_lin=-0.01,
                             d_quad=1.0, x_norm=1.0)


# ---------------------------------------------------------------------------
# gap-edge entry point


def test_gap_edge_step_entry_gate(freq):
    from qpspec.errors import DivergenceError
    from qpspec.qpcore import amo_potential

    # coupling 0.3 puts the edge cocycle far outside the entry gate
    with pytest.raises(DivergenceError, match="entry gate"):
        kam.gap_edge_step(amo_potential(0.3), freq, (1,), 1.0553, 4.0 / 3000)


def test_gap_edge_step_needs_elliptic_average(freq):
    from qpspec.qpcore import cosine_polynomial

    free = cosine_polynomial({0: 0.0})
    with pytest.raises(ReductionError, match="not elliptic"):
        kam.gap_edge_step(free, freq, (1,), 2.5, 1e-3)
