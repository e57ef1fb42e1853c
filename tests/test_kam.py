"""Reducibility engine: steps, runs, edge reduction, and gap-edge data."""

from __future__ import annotations

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from qpspec import kam
from qpspec.errors import DivisorError, ReductionError, ResonanceError
from qpspec.kam import (
    KamState,
    MoserPoschelData,
    almost_reducibility_run,
    bch_log_product,
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
from qpspec.qpcore import FourierSeries, diophantine_check, dist_to_int
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


def test_window_size_example():
    assert kam._window_size(1e-3, 10) == 154


# ---------------------------------------------------------------------------
# grid sampling agrees with pointwise evaluation


def test_sample_matches_pointwise_matrix():
    s = _rand_sl2_series(1.0, 4, seed=3)
    g = 32
    direct = s.evaluate_complex(kam._mesh_points(1, g, 1)).reshape(g, 2, 2)
    assert float(np.max(np.abs(direct - kam._sample(s, g)))) < 1e-12


def test_sample_matches_pointwise_period_two():
    s = FourierSeries(1, 3, {(-3,): 0.5 + 0j, (3,): 0.5 + 0j,
                             (1,): 1j, (-1,): -1j}, 2)
    direct = s.evaluate_complex(kam._mesh_points(1, 16, 2)).reshape(16)
    assert float(np.max(np.abs(direct - kam._sample(s, 16)))) < 1e-12


def test_sample_aliases_like_pointwise():
    # support beyond half the grid folds onto the same mesh values
    s = FourierSeries(1, 9, {(9,): 1.0 + 0j, (-9,): 1.0 + 0j}, 1)
    direct = s.evaluate_complex(kam._mesh_points(1, 8, 1)).reshape(8)
    assert float(np.max(np.abs(direct - kam._sample(s, 8)))) < 1e-12


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
    assert st.rho()["kind"] == "elliptic"
    assert st.residual() < 1e-12


# ---------------------------------------------------------------------------
# nonresonant step


def test_nonresonant_step_quadratic_contraction(freq):
    st = initial_state(rotation(0.17), _rand_sl2_series(2.5e-4, 3, 11), freq)
    before = st.norm()
    out = nonresonant_step(st, window=12, threshold=5e-3)
    row = out.ledger[-1]
    assert row["kind"] == "nonresonant"
    assert row["norm_after"] <= row["norm_before"] ** 1.9
    assert row["norm_before"] == pytest.approx(before)
    assert row["n_star"] is None
    assert row["inner_passes"] >= 1
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
    assert row["kind"] == "resonant"
    assert tuple(row["n_star"]) == (1,)
    assert out.deg_accum == (1,)
    assert out.resonant_sites == ((1,),)
    assert out.rho()["kind"] == "parabolic"
    assert abs(row["rho_after"]) < 1e-10
    assert out.residual() < 1e-12


def test_resonant_step_degree_additive(freq):
    rho0 = GOLDEN / 2.0 + 0.072949
    st = initial_state(rotation(rho0), _zero_f(), freq)
    st = resonant_step(st, (1,))
    assert st.deg_accum == (1,)
    assert abs(st.rho()["rho"] - 0.072949) < 1e-9
    st = resonant_step(st, (-3,))
    assert st.deg_accum == (-2,)
    assert st.rho()["kind"] == "parabolic"
    assert st.residual() < 1e-10


def test_resonant_step_rotation_shift_rule(freq):
    # the constant rotation moves by half the resonant bracket
    st = initial_state(rotation(GOLDEN / 2.0 + 1e-3),
                       _rand_sl2_series(3e-5, 2, 5), freq)
    out = resonant_step(st, (1,))
    expected = conjugated_rotation(GOLDEN / 2.0 + 1e-3, (1,), freq)
    assert dist_to_int(out.rho()["rho"] - expected) < 1e-3
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
    assert owners == {"solve": {"_modewise_solve"},
                      "svd": {"_modewise_solve"},
                      "DivisorError": {"_check_divisors"}}


# ---------------------------------------------------------------------------
# full runs


def test_run_zero_perturbation_stops_immediately(freq):
    out = almost_reducibility_run(rotation(0.17), _zero_f(), freq)
    assert out.ledger == ()
    assert out.norm() == 0.0


def test_run_nonresonant_schedule(freq):
    out = almost_reducibility_run(rotation(0.17),
                                  _rand_sl2_series(2.5e-4, 3, 11), freq,
                                  M=10, max_steps=12)
    kinds = [row["kind"] for row in out.ledger]
    assert kinds and set(kinds) == {"nonresonant"}
    assert len(kinds) <= 6
    for row in out.ledger:
        assert row["norm_after"] <= max(row["norm_before"] ** 1.9, 1e-15)
    assert out.norm() <= 1e-12
    assert out.residual() <= 1e-9
    assert out.deg_accum == (0,)
    assert out.check_residual() is None


def test_run_resonant_start(freq):
    out = almost_reducibility_run(rotation(GOLDEN / 2.0 + 1e-3),
                                  _rand_sl2_series(3e-5, 2, 5), freq,
                                  M=10, max_steps=12)
    kinds = [row["kind"] for row in out.ledger]
    assert kinds[0] == "resonant"
    sites = [tuple(row["n_star"]) for row in out.ledger
             if row["kind"] == "resonant"]
    assert sites == [(1,)]
    assert out.deg_accum == (1,)
    assert out.norm() <= 1e-12


def test_run_rotation_number_bookkeeping(freq):
    rho0 = GOLDEN / 2.0 + 1e-3
    out = almost_reducibility_run(rotation(rho0),
                                  _rand_sl2_series(3e-5, 2, 5), freq,
                                  M=10, max_steps=12)
    expected = conjugated_rotation(rho0, out.deg_accum, freq)
    assert dist_to_int(out.rho()["rho"] - expected) < 1e-4


def test_run_start_guard(freq):
    with pytest.raises(ValueError):
        almost_reducibility_run(rotation(0.17),
                                _rand_sl2_series(0.05, 1, 19), freq)


def test_run_ledger_rows_are_json_ready(freq):
    import json

    out = almost_reducibility_run(rotation(0.17),
                                  _rand_sl2_series(2.5e-4, 3, 11), freq)
    dumped = json.dumps(list(out.ledger))
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
    B0 = out["B"].coeffs[(0,)]
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
    assert np.allclose(out["B"].coeffs[(0,)], np.eye(2))


def test_reduce_twisted_edge_recovers_jump(freq):
    base, f = _twist_edge_perturbation(freq, 0.004)
    assert kam._perturbation_norm(f) < 1e-2
    out = reduce_to_parabolic(base, f, freq, 1, check_inputs=True)
    assert abs(out["zeta"] - 0.004) < 1e-8
    assert tuple(out["state"].deg_accum) == (1,)
    assert out["residual"] < 1e-10
    assert out["discarded_norm"] < 1e-10


def test_reduce_left_edge_sign_flips(freq):
    base, f = _twist_edge_perturbation(freq, -0.004)
    out = reduce_to_parabolic(base, f, freq, 1)
    assert abs(out["zeta"] + 0.004) < 1e-8


def test_reduce_precheck_rejects_wrong_label(freq):
    base, f = _twist_edge_perturbation(freq, 0.004)
    with pytest.raises(ReductionError):
        reduce_to_parabolic(base, f, freq, 2, check_inputs=True)


def test_reduce_precheck_rejects_hyperbolic(freq):
    A = np.array([[3.0, -1.0], [1.0, 0.0]])
    with pytest.raises(ReductionError):
        reduce_to_parabolic(A, _zero_f(), freq, 0, check_inputs=True)


def test_reduce_degree_mismatch_without_precheck(freq):
    base, f = _twist_edge_perturbation(freq, 0.004)
    with pytest.raises(ReductionError):
        reduce_to_parabolic(base, f, freq, 0, check_inputs=False)


def test_reduce_elliptic_interior_is_not_parabolic(freq):
    with pytest.raises(ReductionError):
        reduce_to_parabolic(rotation(0.17), _zero_f(), freq, 0,
                            check_inputs=False)


# ---------------------------------------------------------------------------
# Moser-Poschel step and gap-edge data


def test_mp_brackets_identity_conjugacy():
    zeta = 0.01
    b0, b1 = mp_brackets(zeta, 1.0, 0.0, 0.0)
    assert np.allclose(b0, np.array([[0.0, zeta], [0.0, 0.0]]))
    assert np.allclose(b1, np.array([[-zeta / 2.0, 0.0], [-1.0, zeta / 2.0]]))


def test_mp_step_identity_conjugacy(freq):
    X = FourierSeries(1, 0, {(0,): np.eye(2, dtype=complex)}, 2)
    zeta, delta = 0.01, 1e-4
    mp = moser_poschel_step(X, zeta, delta, freq)
    assert mp.x11_sq == pytest.approx(1.0)
    assert mp.x11_x12 == pytest.approx(0.0)
    assert mp.x12_sq == pytest.approx(0.0)
    assert mp.d_of_delta(delta) == pytest.approx(-delta * zeta)
    assert abs(mp.det_identity_defect(delta)) < 1e-15
    assert mp.P1_norm_bound >= 0.0


def test_mp_step_oscillating_conjugacy(freq):
    X = FourierSeries(1, 1, {
        (0,): np.eye(2, dtype=complex),
        (1,): np.array([[0.05, 0.02], [0.0, -0.05]], dtype=complex),
        (-1,): np.array([[0.05, 0.02], [0.0, -0.05]], dtype=complex),
    }, 2)
    mp = moser_poschel_step(X, 0.02, 5e-5, freq)
    assert mp.x11_sq > 0.0
    assert mp.cauchy_schwarz_slack() >= -1e-12
    assert abs(mp.det_identity_defect(5e-5)) < 1e-14
    assert np.isfinite(mp.P1_norm_bound)


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


def test_mp_step_guards(freq):
    X = FourierSeries(1, 0, {(0,): np.eye(2, dtype=complex)}, 2)
    with pytest.raises(ValueError):
        moser_poschel_step(X, 0.6, 1e-6, freq)
    with pytest.raises(ValueError):
        moser_poschel_step(X, 0.01, 0.0, freq)
    with pytest.raises(ValueError):
        moser_poschel_step(X, 0.01, 1.0, freq)


def test_mp_data_validation():
    b0, b1 = mp_brackets(0.01, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        MoserPoschelData(zeta=0.01, b0=b0, b1=b1, x11_sq=-1.0, x11_x12=0.0,
                         x12_sq=1.0, d_lin=-0.01, d_quad=1.0,
                         P1_norm_bound=1.0, x_norm=1.0)


def test_gap_edge_bound_all_hypotheses_pass():
    z, a, b, c = 1e-30, 0.05, 0.0, 0.2
    b0, b1 = mp_brackets(z, a, b, c)
    mp = MoserPoschelData(zeta=z, b0=b0, b1=b1, x11_sq=a, x11_x12=b,
                          x12_sq=c, d_lin=-z * a, d_quad=a * c - b * b,
                          P1_norm_bound=1.0, x_norm=1.0)
    out = gap_edge_bound(mp, z)
    assert out["failed"] == []
    assert all(out["hypotheses"].values())
    assert out["delta1"] == pytest.approx(z ** (17.0 / 18.0))
    assert out["predicted_gap_upper"] == pytest.approx(z ** (17.0 / 18.0))
    assert out["rotation_positive"] is True


def test_gap_edge_bound_reports_failures_without_raising():
    b0, b1 = mp_brackets(1e-4, 1.0, 0.0, 0.0)
    mp = MoserPoschelData(zeta=1e-4, b0=b0, b1=b1, x11_sq=1.0, x11_x12=0.0,
                          x12_sq=0.0, d_lin=-1e-4, d_quad=0.0,
                          P1_norm_bound=1.0, x_norm=1.0)
    out = gap_edge_bound(mp, 1e-4)
    assert "ratio_bound" in out["failed"]
    assert out["hypotheses"]["ratio_bound"] is False


def test_gap_edge_bound_collapsed_edge():
    b0, b1 = mp_brackets(0.01, 1.0, 0.0, 1.0)
    mp = MoserPoschelData(zeta=0.01, b0=b0, b1=b1, x11_sq=1.0, x11_x12=0.0,
                          x12_sq=1.0, d_lin=-0.01, d_quad=1.0,
                          P1_norm_bound=1.0, x_norm=1.0)
    out = gap_edge_bound(mp, 0.0)
    assert out["collapsed"] is True
    assert out["predicted_gap_upper"] == 0.0
    assert out["hypotheses"] == {}
    with pytest.raises(ValueError):
        gap_edge_bound(mp, -1e-6)


# ---------------------------------------------------------------------------
# truncated log-product expansion


def test_bch_commuting_is_exact():
    S = np.diag([0.1, -0.1])
    L = np.diag([0.2, -0.2])
    assert np.allclose(bch_log_product(S, L, order=3), S + L, atol=1e-14)


def test_bch_orders_against_exact_log():
    S = np.array([[0.0, -0.01], [0.01, 0.0]])
    L = np.array([[0.0, 0.01], [0.0, 0.0]])
    exact = log_sl2(exp_sl2(S) @ exp_sl2(L))
    low = float(norm2(bch_log_product(S, L, order=2) - exact))
    high = float(norm2(bch_log_product(S, L, order=3) - exact))
    assert low < 1e-6
    assert high < 1e-8
    assert high < low


def test_bch_zero_factor():
    S = np.array([[0.0, -0.01], [0.01, 0.0]])
    assert np.allclose(bch_log_product(S, np.zeros((2, 2)), order=3), S)


def test_bch_guards():
    big = np.diag([0.3, -0.3])
    with pytest.raises(ValueError):
        bch_log_product(big, big, order=2)
    small = np.diag([0.01, -0.01])
    with pytest.raises(ValueError):
        bch_log_product(small, small, order=4)


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
