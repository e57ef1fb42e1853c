"""Gap detection, labelling, decay, refinement, homogeneity, separation."""

import math

import numpy as np
import pytest

from qpspec.errors import AmbiguousLabelError, LabelError
from qpspec.gaps import (GapRecord, HomogeneityProfile, decay_profile,
                         detect_gaps, gap_separation_check,
                         holder_modulus, homogeneity_profile, label_all,
                         label_gap, refine_band_edge, refine_gap_edges)
from qpspec.qpcore import Frequency, cosine_polynomial, diophantine_check
from qpspec.spectrum import IdsCurve, ids_curve, spectrum_scan

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@pytest.fixture(scope="module")
def golden():
    return diophantine_check((GOLDEN,), 0.1, 1.5, 60)


@pytest.fixture(scope="module")
def amo(golden):
    """Cosine potential at coupling 0.3, scanned fine enough that every
    mesh cell holds a few eigenvalues per phase (no starvation gaps)."""
    V = cosine_polynomial({1: 0.6})
    scan = spectrum_scan(V, golden, L=6000, phases=8, resolution=2e-3)
    curve = ids_curve(V, golden, np.linspace(-2.8, 2.8, 701), L=1200,
                      phases=8)
    return V, scan, curve


# ---------------------------------------------------------------------------
# detection


def test_detect_synthetic_two_intervals():
    recs, boundary = detect_gaps([(0.0, 1.0), (2.0, 3.0)],
                                 lambda E: 0.5, min_length=0.1)
    assert boundary == (0.0, 3.0)
    assert len(recs) == 1
    g = recs[0]
    assert g.E_minus == 1.0 and g.E_plus == 2.0
    assert g.length == 1.0
    assert g.N_plateau == 0.5
    assert g.m is None and g.label_defect is None


def test_detect_min_length_filter():
    scan = [(0.0, 1.0), (1.004, 2.0), (2.5, 3.0)]
    recs, _ = detect_gaps(scan, lambda E: 0.3, min_length=0.01)
    assert len(recs) == 1
    assert recs[0].E_minus == 2.0


def test_detect_empty_scan_raises():
    with pytest.raises(ValueError):
        detect_gaps([], lambda E: 0.0, 0.01)


def test_gap_record_ordering_enforced():
    with pytest.raises(ValueError):
        GapRecord((1,), 2.0, 1.0, 1.0, 0.5, 0.0)


# ---------------------------------------------------------------------------
# labelling


def test_label_golden_basic(golden):
    assert label_gap(0.618034, golden, 20, 1e-3) == (1,)
    assert label_gap(0.236068, golden, 20, 1e-3) == (2,)
    assert label_gap(0.0, golden, 20, 1e-3) == (0,)
    # complement plateau picks up the opposite sign
    assert label_gap(1.0 - 0.618034, golden, 20, 1e-3) == (-1,)


def test_label_no_candidate(golden):
    with pytest.raises(LabelError):
        label_gap(0.27, golden, 1, 1e-2)


def test_label_ambiguous_tie(golden):
    # brackets come in reflection pairs around 1/2, so N = 0.5 ties the
    # two best candidates exactly; a fat tolerance accepts both
    with pytest.raises(AmbiguousLabelError):
        label_gap(0.5, golden, 20, 0.04)


def test_label_separation_guard():
    # inflated gamma makes the required runner-up separation huge, so
    # even a clean best match must be refused
    fake = Frequency(alpha=(GOLDEN,), gamma=2.0, tau=0.1, cutoff=5)
    with pytest.raises(AmbiguousLabelError):
        label_gap(0.618034, fake, 3, 1e-3)


def test_label_all_distinct_enforced(golden):
    rec = GapRecord(None, 0.4, 1.0, 0.6, 0.618034, None)
    twin = GapRecord(None, 1.5, 1.6, 0.1, 0.618034, None)
    with pytest.raises(AmbiguousLabelError):
        label_all([rec, twin], golden, 20, 1e-3)
    out = label_all([rec], golden, 20, 1e-3)
    assert out[0].m == (1,)
    assert out[0].label_defect <= 1e-3
    assert label_all([], golden, 20, 1e-3) == []


def test_amo_gap_table(golden, amo):
    V, scan, curve = amo
    recs, boundary = detect_gaps(scan, curve, min_length=5e-3)
    assert len(recs) == 6
    labelled = label_all(recs, golden, M_max=20, tol=1e-3)
    assert {r.m[0] for r in labelled} == {-3, -2, -1, 1, 2, 3}
    assert all(r.label_defect <= 5e-4 for r in labelled)

    by_m = {r.m[0]: r for r in labelled}
    main = by_m[1]
    assert main.E_minus == pytest.approx(0.464, abs=3e-3)
    assert main.E_plus == pytest.approx(1.054, abs=3e-3)
    assert main.N_plateau == pytest.approx(0.618034, abs=1e-4)
    # energy reflection swaps the label sign on the main pair
    mirror = by_m[-1]
    assert mirror.E_minus == pytest.approx(-main.E_plus, abs=3e-3)
    assert mirror.N_plateau == pytest.approx(1.0 - main.N_plateau, abs=1e-4)
    assert boundary[0] == pytest.approx(-2.052, abs=5e-3)
    assert boundary[1] == pytest.approx(2.052, abs=5e-3)


# ---------------------------------------------------------------------------
# decay


def _labelled(m, lo, hi):
    return GapRecord((m,), lo, hi, hi - lo, 0.0, 0.0)


def test_decay_pass_and_slope():
    gaps = [_labelled(m, 0.0, 0.5 * abs(m) ** -3.0) for m in (1, 2, 3, -4)]
    report = decay_profile(gaps, eps=1.0, k=9)
    # bound is |m|^(-1); lengths 0.5 |m|^(-3) stay strictly below
    assert report["all_pass"]
    assert report["log_slope"] == pytest.approx(-3.0, abs=1e-9)
    assert len(report["rows"]) == 4


def test_decay_strict_inequality():
    eps, k = 0.01, 6
    bound = eps ** 0.25 * 2.0 ** (-k / 9.0)
    at_bound = _labelled(2, 0.0, bound)
    report = decay_profile([at_bound], eps, k)
    assert not report["all_pass"]


def test_decay_sign_invariance():
    eps, k = 0.04, 7
    a = decay_profile([_labelled(3, 0.0, 1e-3)], eps, k)
    b = decay_profile([_labelled(-3, 0.0, 1e-3)], eps, k)
    assert a["rows"][0]["bound"] == b["rows"][0]["bound"]
    assert a["all_pass"] == b["all_pass"]


def test_decay_skips_zero_label_and_requires_labels():
    zero = GapRecord((0,), -3.0, -2.9, 0.1, 0.0, 0.0)
    report = decay_profile([zero, _labelled(1, 0.0, 1e-4)], 0.01, 6)
    assert len(report["rows"]) == 1
    with pytest.raises(ValueError):
        decay_profile([GapRecord(None, 0.0, 0.1, 0.1, 0.3, None)], 0.01, 6)


# ---------------------------------------------------------------------------
# edge refinement


def test_refine_free_band_edges(golden):
    V0 = cosine_polynomial({0: 0.0})
    up = refine_band_edge(V0, golden, 2.01, "upper", L=2000,
                          edge_tol=1e-4, phases=4)
    lo = refine_band_edge(V0, golden, -2.01, "lower", L=2000,
                          edge_tol=1e-4, phases=4)
    assert up == pytest.approx(2.0, abs=1e-4)
    assert lo == pytest.approx(-2.0, abs=1e-4)


def test_refine_band_edge_rejects_bad_input(golden):
    V0 = cosine_polynomial({0: 0.0})
    with pytest.raises(ValueError):
        refine_band_edge(V0, golden, 2.0, "sideways", L=300, edge_tol=1e-3)
    with pytest.raises(ValueError):
        # far above the spectrum: no presence within the walk budget
        refine_band_edge(V0, golden, 5.0, "upper", L=300, edge_tol=1e-3)


def test_refine_amo_gap_contained_and_stable(golden, amo):
    V, scan, curve = amo
    recs, _ = detect_gaps(scan, curve, min_length=5e-3)
    main = max(recs, key=lambda r: r.length)
    ra = refine_gap_edges(V, golden, main, L=1200, edge_tol=2e-4, phases=8)
    rb = refine_gap_edges(V, golden, main, L=2400, edge_tol=2e-4, phases=8)
    for r in (ra, rb):
        assert main.E_minus <= r.E_minus <= r.E_plus <= main.E_plus
        assert r.length > 0.5
    assert abs(ra.E_minus - rb.E_minus) <= 2e-3
    assert abs(ra.E_plus - rb.E_plus) <= 2e-3
    assert ra.m == main.m and ra.N_plateau == main.N_plateau


def _counting_kernel(monkeypatch):
    import qpspec.spectrum

    passes = []
    kernel = qpspec.spectrum._pivot_counts

    def counted(diags, energies):
        passes.append(len(energies))
        return kernel(diags, energies)

    monkeypatch.setattr(qpspec.spectrum, "_pivot_counts", counted)
    return passes


def test_refine_amo_gap_pass_budget_and_pinned_edges(golden, amo,
                                                     monkeypatch):
    V, scan, curve = amo
    recs, _ = detect_gaps(scan, curve, min_length=5e-3)
    main = max(recs, key=lambda r: r.length)
    passes = _counting_kernel(monkeypatch)
    out = refine_gap_edges(V, golden, main, L=1200, edge_tol=2e-4, phases=8)
    # one pass per round: probe and spectrum ladders, flip ladders,
    # then two rounds of four bisection levels (one by one: 17 passes)
    assert len(passes) <= 5
    assert out.E_minus.hex() == "-0x1.0dd2f1a9fbe77p+0"
    assert out.E_plus.hex() == "-0x1.db22d0e560418p-2"


@pytest.mark.parametrize("coarse, side, want", [
    (1.9, "upper", "0x1.fffe8f5c28f5cp+0"),
    (-2.01, "lower", "-0x1.fffd70a3d70a4p+0"),
])
def test_refine_band_edge_pinned(golden, monkeypatch, coarse, side, want):
    V0 = cosine_polynomial({0: 0.0})
    passes = _counting_kernel(monkeypatch)
    got = refine_band_edge(V0, golden, coarse, side, L=800, edge_tol=1e-4,
                           phases=4)
    assert got.hex() == want
    assert len(passes) <= 6


def test_refine_gap_reports_lower_edge_failure_first(golden):
    V0 = cosine_polynomial({0: 0.0})
    above = GapRecord(None, 2.5, 3.5, 1.0, 1.0, None)
    with pytest.raises(ValueError, match="no spectrum found near 2.500000"):
        refine_gap_edges(V0, golden, above, L=600, edge_tol=1e-3, phases=4)


def test_refine_collapses_fake_gap(golden):
    # an interval in the middle of the free band is not a gap; the
    # presence probe sees spectrum at the midpoint and collapses it
    V0 = cosine_polynomial({0: 0.0})
    fake = GapRecord(None, -0.05, 0.05, 0.1, 0.5, None)
    out = refine_gap_edges(V0, golden, fake, L=600, edge_tol=1e-3, phases=4)
    assert out.length == 0.0
    assert out.E_minus == out.E_plus == pytest.approx(0.0)


def test_refine_collapses_subwindow_gap(golden):
    V0 = cosine_polynomial({0: 0.0})
    slim = GapRecord(None, 0.1, 0.101, 0.001, 0.5, None)
    out = refine_gap_edges(V0, golden, slim, L=600, edge_tol=1e-3, phases=4)
    assert out.length == 0.0


def test_refine_rejects_zero_phases(golden):
    V0 = cosine_polynomial({0: 0.0})
    gap = GapRecord(None, 2.1, 2.5, 0.4, 1.0, None)
    with pytest.raises(ValueError, match="phases"):
        refine_gap_edges(V0, golden, gap, L=600, edge_tol=1e-3, phases=0)


# ---------------------------------------------------------------------------
# homogeneity


def test_homogeneity_single_interval():
    prof = homogeneity_profile([(-2.0, 2.0)], [0.1, 0.5], E_samples=50)
    assert prof.mu == pytest.approx([1.0, 1.0])
    assert sorted(np.abs(prof.attaining_E)) == pytest.approx([2.0, 2.0])
    assert prof.min_mu() == pytest.approx(1.0)


def test_homogeneity_two_intervals():
    prof = homogeneity_profile([(0.0, 1.0), (2.0, 3.0)], [0.25, 0.5],
                               E_samples=40)
    assert prof.mu == pytest.approx([1.0, 1.0])


def test_homogeneity_outer_edge_attains():
    # interior edges lose only the 0.05 gap (ratio 1.9); the outer
    # edges see half a window and set the minimum
    prof = homogeneity_profile([(0.0, 1.0), (1.05, 2.05)], [0.5],
                               E_samples=40)
    assert prof.mu[0] == pytest.approx(1.0, abs=1e-12)
    assert prof.attaining_E[0] in (0.0, 2.05)


def test_homogeneity_interior_ratio_is_two():
    prof = homogeneity_profile([(0.0, 10.0)], [0.5], E_samples=5)
    # the minimum sits at the boundary, but interior samples reach 2
    assert prof.min_mu() == pytest.approx(1.0)
    assert np.all(prof.mu <= 2.0 + 1e-12)


def test_homogeneity_eps_validation():
    with pytest.raises(ValueError):
        homogeneity_profile([(0.0, 1.0)], [2.0], E_samples=10)
    with pytest.raises(ValueError):
        homogeneity_profile([(0.0, 1.0)], [0.0, 0.1], E_samples=10)


def test_homogeneity_profile_invariant():
    with pytest.raises(ValueError):
        HomogeneityProfile(np.array([0.1]), np.array([2.5]),
                           np.array([0.0]))


def test_homogeneity_amo(amo):
    V, scan, curve = amo
    eps = [0.01, 0.02, 0.05, 0.1]
    prof = homogeneity_profile(scan, eps, E_samples=200)
    assert prof.min_mu() >= 0.5
    assert np.all(prof.mu <= 2.0 + 1e-12)


# ---------------------------------------------------------------------------
# Holder modulus


def _dyadic(lo, n):
    return [lo * 2 ** k for k in range(n)]


def test_holder_linear_curve():
    E = np.linspace(0.0, 1.0, 2001)
    curve = IdsCurve(E, E.copy(), L=1000, phases=1)
    eps = _dyadic(0.0125, 4)
    rep = holder_modulus(curve, eps)
    # symmetric increment of a linear curve is 2 eps, ratio 2 sqrt(eps)
    assert rep["C0_hat"] == pytest.approx(2.0 * math.sqrt(0.1), rel=1e-9)
    assert not rep["holder_violation"]


def test_holder_free_curve_flat_ratio():
    E = np.linspace(-2.0, 2.0, 4001)
    N = 1.0 - np.arccos(np.clip(E / 2.0, -1.0, 1.0)) / math.pi
    curve = IdsCurve(E, N, L=1000, phases=1)
    rep = holder_modulus(curve, _dyadic(0.0125, 5))
    # square-root edges keep the ratio pinned near sqrt(2)/pi
    assert 0.40 <= rep["C0_hat"] <= 0.47
    ratios = [r["max_ratio"] for r in rep["per_eps"]]
    assert max(ratios) <= 1.2 * min(ratios)
    assert not rep["holder_violation"]


def test_holder_jump_flagged():
    E = np.linspace(0.0, 1.0, 4001)
    N = (E >= 0.5).astype(float)
    curve = IdsCurve(E, N, L=1000, phases=1)
    rep = holder_modulus(curve, _dyadic(0.0125, 4))
    assert rep["holder_violation"]
    assert rep["C0_hat"] == pytest.approx(1.0 / math.sqrt(0.0125), rel=1e-6)
    assert rep["eps_star"] == pytest.approx(0.0125)


def test_holder_rejects_empty_grid():
    E = np.linspace(0.0, 1.0, 101)
    curve = IdsCurve(E, E.copy(), L=1000, phases=1)
    with pytest.raises(ValueError):
        holder_modulus(curve, [0.8])


# ---------------------------------------------------------------------------
# separation


def test_separation_synthetic_pass(golden):
    g1 = GapRecord((1,), 0.46, 1.05, 0.59, 0.618, 1e-5)
    g2 = GapRecord((-1,), -1.05, -0.46, 0.59, 0.382, 1e-5)
    rep = gap_separation_check([g1, g2], (-2.05, 2.05), golden, C0_hat=0.5)
    assert rep["all_pass"]
    kinds = [r["kind"] for r in rep["rows"]]
    assert kinds.count("pair") == 1
    assert kinds.count("boundary_min") == 2
    assert kinds.count("boundary_max") == 2


def test_separation_violation_listed(golden):
    g1 = GapRecord((1,), 0.0, 0.5, 0.5, 0.618, 1e-5)
    g2 = GapRecord((2,), 0.5000001, 0.6, 0.1, 0.236, 1e-5)
    rep = gap_separation_check([g1, g2], (-2.0, 2.0), golden, C0_hat=0.5)
    pair = [r for r in rep["rows"] if r["kind"] == "pair"][0]
    expected = (golden.gamma / 0.5) ** 2 * 1.0 ** (-2.0 * golden.tau)
    assert pair["bound"] == pytest.approx(expected)
    assert not pair["pass"]
    assert not rep["all_pass"]


def test_separation_requires_positive_modulus(golden):
    with pytest.raises(ValueError):
        gap_separation_check([], (-2.0, 2.0), golden, C0_hat=0.0)


def test_separation_amo(golden, amo):
    V, scan, curve = amo
    recs, boundary = detect_gaps(scan, curve, min_length=5e-3)
    labelled = label_all(recs, golden, M_max=20, tol=1e-3)
    rep = holder_modulus(curve, [0.0125, 0.025, 0.05, 0.1])
    sep = gap_separation_check(labelled, boundary, golden, rep["C0_hat"])
    assert sep["all_pass"]
    assert len(sep["rows"]) == 15 + 12
