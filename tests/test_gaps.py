"""Gap detection, labelling, decay, re-check, homogeneity, separation."""

import math

import numpy as np
import pytest

from qpspec.errors import AmbiguousLabelError, EdgeSearchError, LabelError
from qpspec.gaps import (GapRecord, HomogeneityProfile, confirm_gap,
                         decay_profile, detect_gaps, gap_separation_check,
                         holder_modulus, homogeneity_profile, label_all)
from qpspec.qpcore import Frequency, cosine_polynomial, diophantine_check
from qpspec.spectrum import (IdsCurve, TruncatedOperator, ids_curve,
                             spectrum_scan)

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


def test_two_cell_gap_is_kept_however_its_length_rounds():
    # a scan's edges lie on a mesh: a two-cell gap whose lo - hi rounds
    # below 2 * resolution is as long as min_length, and a one-cell and a
    # just-short gap are not
    resolution = 2e-3
    edges = -2.3 + resolution * np.arange(2000)
    short = np.flatnonzero(edges[2:] - edges[:-2] < 2 * resolution)
    assert short.size
    i = int(short[0])
    scan = [(float(edges[0]), float(edges[i])),
            (float(edges[i + 2]), float(edges[i + 3])),
            (float(edges[i + 4]), float(edges[i + 5]))]
    recs, _ = detect_gaps(scan, lambda E: 0.5, min_length=2 * resolution)
    assert [r.E_minus for r in recs] == [edges[i]]
    assert recs[0].length < 2 * resolution
    recs, _ = detect_gaps(scan, lambda E: 0.5,
                          min_length=2 * resolution * (1 + 1e-6))
    assert recs == []


def test_batched_plateaus_equal_the_scalar_recounts(golden):
    V = cosine_polynomial({1: 0.6})
    H = TruncatedOperator.sampled(V, golden, 1500, 8)
    scan = spectrum_scan(V, golden, 1500, 8, 5e-3, operator=H)
    asked = []

    def recount(E):
        asked.append(np.shape(E))
        return H.ids(E)

    recs, _ = detect_gaps(scan, recount, min_length=1e-2)
    assert len(recs) >= 4
    # one pass over every midpoint, each plateau bit for bit the scalar one
    assert asked == [(len(recs),)]
    for rec in recs:
        assert rec.N_plateau == float(H.ids(rec.midpoint)[0])


def test_detect_empty_scan_raises():
    with pytest.raises(ValueError):
        detect_gaps([], lambda E: 0.0, 0.01)


def test_gap_record_ordering_enforced():
    with pytest.raises(ValueError):
        GapRecord((1,), 2.0, 1.0, 1.0, 0.5, 0.0)


# ---------------------------------------------------------------------------
# labelling


def _lone_label(N_plateau, freq, M_max, tol):
    """The label label_all gives a lone gap with this plateau."""
    rec = GapRecord(None, 0.0, 1.0, 1.0, N_plateau, None)
    return label_all([rec], freq, M_max, tol)[0].m


def test_label_golden_basic(golden):
    assert _lone_label(0.618034, golden, 20, 1e-3) == (1,)
    assert _lone_label(0.236068, golden, 20, 1e-3) == (2,)
    assert _lone_label(0.0, golden, 20, 1e-3) == (0,)
    # complement plateau picks up the opposite sign
    assert _lone_label(1.0 - 0.618034, golden, 20, 1e-3) == (-1,)


def test_label_no_candidate(golden):
    with pytest.raises(LabelError):
        _lone_label(0.27, golden, 1, 1e-2)


def test_label_ambiguous_tie(golden):
    # brackets come in reflection pairs around 1/2, so N = 0.5 ties the
    # two best candidates exactly; a fat tolerance accepts both
    with pytest.raises(AmbiguousLabelError):
        _lone_label(0.5, golden, 20, 0.04)


def test_label_separation_guard():
    # inflated gamma makes the required runner-up separation huge, so
    # even a clean best match must be refused
    fake = Frequency(alpha=(GOLDEN,), gamma=2.0, tau=0.1, cutoff=5)
    with pytest.raises(AmbiguousLabelError):
        _lone_label(0.618034, fake, 3, 1e-3)


def test_label_all_distinct_enforced(golden):
    rec = GapRecord(None, 0.4, 1.0, 0.6, 0.618034, None)
    twin = GapRecord(None, 1.5, 1.6, 0.1, 0.618034, None)
    with pytest.raises(AmbiguousLabelError):
        label_all([rec, twin], golden, 20, 1e-3)
    out = label_all([rec], golden, 20, 1e-3)
    assert out[0].m == (1,)
    assert out[0].label_defect <= 1e-3
    assert label_all([], golden, 20, 1e-3) == []


@pytest.mark.parametrize("freq", [
    diophantine_check((GOLDEN,), 0.1, 1.5, 60),
    diophantine_check((GOLDEN, math.sqrt(2.0) - 1.0), 0.01, 2.5, 20)],
    ids=["1-D", "2-D"])
def test_label_all_builds_the_ball_once(freq, monkeypatch):
    import qpspec.gaps as gaps_module

    plateaus = [float(x) % 1.0 for x in (freq.vec[0], -freq.vec[0],
                                         2.0 * freq.vec[-1])]
    recs = [GapRecord(None, float(i), i + 0.5, 0.5, N, None)
            for i, N in enumerate(plateaus)]
    want = [_lone_label(N, freq, 6, 1e-3) for N in plateaus]
    radii = []
    ball = gaps_module.integer_ball
    monkeypatch.setattr(gaps_module, "integer_ball",
                        lambda dim, r: radii.append(r) or ball(dim, r))
    got = label_all(recs, freq, 6, 1e-3)
    assert radii == [6]
    assert [g.m for g in got] == want


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
# gap re-check


def _counting_kernel(monkeypatch):
    import qpspec.spectrum

    passes = []
    kernel = qpspec.spectrum._pivot_counts

    def counted(diags, energies):
        passes.append(len(energies))
        return kernel(diags, energies)

    monkeypatch.setattr(qpspec.spectrum, "_pivot_counts", counted)
    return passes


def _main_gap(amo):
    V, scan, curve = amo
    recs, _ = detect_gaps(scan, curve, min_length=5e-3)
    return V, max(recs, key=lambda r: r.length)


def test_refine_amo_gap_contained_and_stable(golden, amo):
    # the scan's widest gap is confirmed at a coarser and at a finer
    # truncation, and the check leaves its record as it was
    V, main = _main_gap(amo)
    before = (main.E_minus, main.E_plus, main.m, main.N_plateau)
    assert main.length > 0.5
    for L in (1200, 2400):
        assert confirm_gap(V, golden, main.E_minus, main.E_plus, L,
                           max(2e-4, 4.0 / L), 8) is None
    assert (main.E_minus, main.E_plus, main.m, main.N_plateau) == before


def test_refine_amo_gap_pass_budget_and_pinned_edges(golden, amo,
                                                     monkeypatch):
    # one Sturm pass over the 20 windows (40 energies); the edges that
    # edge writes are the scan's cells, pinned bit for bit
    V, main = _main_gap(amo)
    passes = _counting_kernel(monkeypatch)
    assert confirm_gap(V, golden, main.E_minus, main.E_plus, 1200,
                       4.0 / 1200, 8) is None
    assert passes == [40]
    assert main.E_minus.hex() == "-0x1.0dd2f1a9fbe77p+0"
    assert main.E_plus.hex() == "-0x1.db22d0e560418p-2"


def test_confirm_rejects_a_gap_off_the_spectrum(golden, amo):
    V0 = cosine_polynomial({0: 0.0})
    with pytest.raises(EdgeSearchError, match="no spectrum found near 5.0"):
        # far above the spectrum: no presence beyond either edge
        confirm_gap(V0, golden, 5.0, 6.0, 300, 4.0 / 300, 8)
    # the widest gap widened by 0.02 per side reaches into both bands
    V, main = _main_gap(amo)
    lo = main.E_minus - 0.02
    with pytest.raises(EdgeSearchError,
                       match=f"presence never flips near {lo:.6f}"):
        confirm_gap(V, golden, lo, main.E_plus + 0.02, 1200, 4.0 / 1200, 8)


def test_confirm_reports_lower_edge_failure_first(golden):
    V0 = cosine_polynomial({0: 0.0})
    with pytest.raises(ValueError, match="no spectrum found near 2.500000"):
        confirm_gap(V0, golden, 2.5, 3.5, 600, 4.0 / 600, 4)


def test_confirm_rejects_fake_gap(golden):
    # an interval in the middle of the free band is not a gap; the
    # midpoint windows see spectrum
    V0 = cosine_polynomial({0: 0.0})
    with pytest.raises(EdgeSearchError, match="midpoint 0.000000"):
        confirm_gap(V0, golden, -0.05, 0.05, 600, 4.0 / 600, 4)


def test_confirm_rejects_subwindow_gap(golden):
    V0 = cosine_polynomial({0: 0.0})
    with pytest.raises(EdgeSearchError, match="not wider than two windows"):
        confirm_gap(V0, golden, 0.1, 0.101, 600, 4.0 / 600, 4)


def test_confirm_rejects_zero_phases(golden):
    V0 = cosine_polynomial({0: 0.0})
    with pytest.raises(ValueError, match="phases"):
        confirm_gap(V0, golden, 2.1, 2.5, 600, 4.0 / 600, 0)


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


@pytest.mark.parametrize("call", [
    lambda: detect_gaps([], lambda mids: 0.5, 1e-3),
    lambda: homogeneity_profile([], [0.1], E_samples=5),
], ids=["detect_gaps", "homogeneity_profile"])
def test_empty_scan_is_rejected(call):
    with pytest.raises(ValueError, match="empty scan"):
        call()


def test_homogeneity_leaves_numpy_ma_unimported():
    # a fresh interpreter: deduplicating the centres (touching intervals
    # share one) must not import numpy.ma, which costs more than the
    # profile itself
    import os
    import subprocess
    import sys
    from pathlib import Path

    import qpspec

    code = ("import sys; from qpspec.gaps import homogeneity_profile; "
            "homogeneity_profile([(0.0, 1.0), (1.0, 2.5)], [0.1], 50); "
            "print('numpy.ma' in sys.modules)")
    env = dict(os.environ,
               PYTHONPATH=str(Path(qpspec.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                         capture_output=True, text=True)
    assert out.stdout.split() == ["False"]


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
    curve = IdsCurve(E, E.copy())
    eps = _dyadic(0.0125, 4)
    rep = holder_modulus(curve, eps)
    # symmetric increment of a linear curve is 2 eps, ratio 2 sqrt(eps)
    assert rep["C0_hat"] == pytest.approx(2.0 * math.sqrt(0.1), rel=1e-9)
    assert not rep["holder_violation"]


def test_holder_free_curve_flat_ratio():
    E = np.linspace(-2.0, 2.0, 4001)
    N = 1.0 - np.arccos(np.clip(E / 2.0, -1.0, 1.0)) / math.pi
    curve = IdsCurve(E, N)
    rep = holder_modulus(curve, _dyadic(0.0125, 5))
    # square-root edges keep the ratio pinned near sqrt(2)/pi
    assert 0.40 <= rep["C0_hat"] <= 0.47
    ratios = [r["max_ratio"] for r in rep["per_eps"]]
    assert max(ratios) <= 1.2 * min(ratios)
    assert not rep["holder_violation"]


def test_holder_jump_flagged():
    E = np.linspace(0.0, 1.0, 4001)
    N = (E >= 0.5).astype(float)
    curve = IdsCurve(E, N)
    rep = holder_modulus(curve, _dyadic(0.0125, 4))
    assert rep["holder_violation"]
    assert rep["C0_hat"] == pytest.approx(1.0 / math.sqrt(0.0125), rel=1e-6)
    assert rep["eps_star"] == pytest.approx(0.0125)


def test_holder_rejects_empty_grid():
    E = np.linspace(0.0, 1.0, 101)
    curve = IdsCurve(E, E.copy())
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
