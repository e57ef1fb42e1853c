"""End-to-end acceptance gate, one test per criterion, stated tolerances.

Each test prints a single pass line with its measured numbers; under
plain ``pytest -v`` the per-test PASSED/FAILED verdict is the per-
criterion verdict.
"""

import json
import math
import time

import numpy as np
import pytest

from qpspec.cli import main as cli_main
from qpspec.gaps import (decay_profile, detect_gaps, gap_separation_check,
                         holder_modulus, homogeneity_profile, label_all)
from qpspec.kam import (almost_reducibility_run, mp_brackets,
                        reduce_to_parabolic, seeded_sl2_series)
from qpspec.mat2 import rotation
from qpspec.qpcore import (FourierSeries, ck_norm, cosine_polynomial,
                           diophantine_check, dist_to_int)
from qpspec.rotnum import schrodinger_rotation_grid
from qpspec.spectrum import TruncatedOperator, ids_curve, spectrum_scan

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@pytest.fixture(scope="module")
def golden():
    return diophantine_check((GOLDEN,), 0.1, 1.5, 60)


@pytest.fixture(scope="module")
def amo_labelled(golden):
    """AMO at coupling 0.3: scan, labelled gaps, spectrum boundary."""
    V = cosine_polynomial({1: 0.6})
    H = TruncatedOperator.sampled(V, golden, 6000, 8)
    scan = spectrum_scan(V, golden, L=6000, phases=8, resolution=2e-3,
                         operator=H)
    records, boundary = detect_gaps(scan, H.ids, min_length=4e-3)
    labelled = label_all(records, golden, 20, 1e-3)
    return V, labelled, boundary


@pytest.fixture(scope="module")
def holder_report(golden):
    """Symmetric-increment ratios of the AMO IDS on a dyadic eps grid.

    The grid spacing equals the smallest eps, so every query E +- eps
    lands on a node and no interpolation error enters the increments."""
    V = cosine_polynomial({1: 0.6})
    h = 2.0 ** -12
    grid = -2.7 + np.arange(22119) * h
    curve = ids_curve(V, golden, grid, 2500, 8)
    return holder_modulus(curve, [2.0 ** -p for p in range(12, 3, -1)])


def test_criterion_01_free_ids(golden):
    t0 = time.perf_counter()
    V = cosine_polynomial({0: 0.0})
    E = np.linspace(-2.5, 2.5, 201)
    curve = ids_curve(V, golden, E, 5000, 8)
    exact = 1.0 - np.arccos(np.clip(E / 2.0, -1.0, 1.0)) / math.pi
    err = float(np.max(np.abs(curve.values - exact)))
    elapsed = time.perf_counter() - t0
    assert err <= 2e-3
    assert elapsed <= 60.0
    print(f"criterion 01 (free IDS vs closed form): PASS "
          f"max_err={err:.2e} time={elapsed:.1f}s")


def test_criterion_02_ids_rotation_duality(golden):
    V = cosine_polynomial({1: 0.6})
    E = np.linspace(-2.6, 2.6, 50)
    curve = ids_curve(V, golden, E, 5000, 8)
    rho, _ = schrodinger_rotation_grid(V, golden, E, n_iters=100000)
    defect = dist_to_int(curve.values - (1.0 - 2.0 * rho))
    worst = float(np.max(defect))
    assert worst <= 5e-3
    print(f"criterion 02 (N = 1 - 2 rho mod Z at 50 energies): PASS "
          f"max_defect={worst:.2e}")


def test_criterion_03_gap_labelling(golden, amo_labelled):
    _, labelled, _ = amo_labelled
    found = {g.m[0]: g for g in labelled}
    assert {1, -1, 2, -2, 3, -3} <= set(found)
    margin = golden.gamma / (2.0 * 20) ** golden.tau
    worst_defect = 0.0
    for m, g in found.items():
        defect = float(dist_to_int(g.N_plateau - m * GOLDEN))
        assert defect <= 1e-3
        worst_defect = max(worst_defect, defect)
        others = min(
            float(dist_to_int(g.N_plateau - mm * GOLDEN))
            for mm in range(-20, 21) if mm != m)
        assert others >= margin
    print(f"criterion 03 (labels +-1,+-2,+-3 within 1e-3): PASS "
          f"worst_defect={worst_defect:.1e} margin={margin:.1e}")


def test_criterion_04_gap_decay_bound(golden):
    eps, k = 0.01, 6
    V = cosine_polynomial({n: eps * float(n) ** -k for n in range(1, 9)})
    unit = cosine_polynomial({n: float(n) ** -k for n in range(1, 9)})
    c_norm = ck_norm(unit, k)
    H = TruncatedOperator.sampled(V, golden, 6000, 8)
    scan = spectrum_scan(V, golden, L=6000, phases=8, resolution=2e-3,
                         operator=H)
    records, _ = detect_gaps(scan, H.ids, min_length=4e-3)
    labelled = label_all(records, golden, 20, 1e-3)
    small = [g for g in labelled if g.abs_label() <= k]
    assert small
    report = decay_profile(small, eps * c_norm, k)
    assert report["all_pass"]
    slack = min(r["bound"] / r["length"] for r in report["rows"])
    assert slack >= 10.0
    print(f"criterion 04 (length <= (eps C)^(1/4) |m|^(-k/9)): PASS "
          f"gaps={sorted(g.m[0] for g in small)} min_slack={slack:.0f}x")


def test_criterion_05_kam_contraction(golden):
    t0 = time.perf_counter()
    f0 = seeded_sl2_series(2.5e-4, 3, 11)
    scale = 1e-3 / ck_norm(f0, 0)
    f = FourierSeries.from_arrays(1, f0.support_radius(), f0.modes,
                                  scale * f0.values, 1)
    state = almost_reducibility_run(rotation(0.17), f, golden)
    elapsed = time.perf_counter() - t0
    assert len(state.ledger) <= 6
    assert state.norm() <= 1e-12
    for row in state.ledger:
        assert row.norm_after <= row.norm_before ** 1.9
        assert row.residual <= 1e-7
    assert elapsed <= 5.0
    print(f"criterion 05 (quadratic KAM contraction): PASS "
          f"steps={len(state.ledger)} final={state.norm():.1e} "
          f"time={elapsed:.2f}s")


def test_criterion_06_parabolic_closed_form(golden):
    zero = FourierSeries(1, 0, {(0,): np.zeros((2, 2), complex)}, 1)
    right = reduce_to_parabolic(
        np.array([[2.0, -1.0], [1.0, 0.0]]), zero, golden, 0)
    left = reduce_to_parabolic(
        np.array([[-2.0, -1.0], [1.0, 0.0]]), zero, golden, 0)
    assert abs(right["zeta"] + 1.0) <= 1e-10
    assert abs(left["zeta"] - 1.0) <= 1e-10
    assert right["B"].support_radius() == 0
    assert left["B"].support_radius() == 0
    print(f"criterion 06 (zeta(+2) = -1, zeta(-2) = +1): PASS "
          f"zeta_right={right['zeta']:.12f} zeta_left={left['zeta']:.12f}")


def test_criterion_07_moser_poschel_identity():
    rng = np.random.default_rng(7)
    worst = 0.0
    worst_cs = 0.0
    for _ in range(1000):
        x11 = rng.normal(size=64)
        x12 = rng.normal(size=64)
        a = float(np.mean(x11 * x11))
        b = float(np.mean(x11 * x12))
        c = float(np.mean(x12 * x12))
        cs = a * c - b * b
        assert cs >= -1e-15
        worst_cs = min(worst_cs, cs)
        zeta = float(rng.uniform(0.01, 0.49))
        delta = float(rng.uniform(1e-4, 0.5))
        b0, b1 = mp_brackets(zeta, a, b, c)
        det_side = float(np.linalg.det(b0 - delta * b1))
        closed = -zeta * a * delta \
            + (cs - 0.25 * zeta * zeta * a * a) * delta * delta
        worst = max(worst, abs(det_side - closed))
    assert worst <= 1e-12
    print(f"criterion 07 (d(delta) two-sided on 1000 tuples): PASS "
          f"max_gap={worst:.1e} min_cs={worst_cs:.1e}")


def test_criterion_08_homogeneity(golden):
    V = cosine_polynomial({1: 0.6})
    scan = spectrum_scan(V, golden, L=5000, phases=8, resolution=2.5e-3)
    eps = [1e-3, 3e-3, 1e-2, 3e-2, 1e-1]
    profile = homogeneity_profile(scan, eps, 200)
    assert all(m >= 0.5 for m in profile.mu)
    print(f"criterion 08 (mu(eps) >= 0.5 at L=5000): PASS "
          f"min_mu={profile.min_mu():.3f}")


def test_criterion_09_holder_modulus(holder_report):
    ratios = [r["max_ratio"] for r in holder_report["per_eps"]]
    assert len(ratios) == 9
    variation = max(ratios) / min(ratios)
    assert variation <= 2.0
    assert not holder_report["holder_violation"]
    print(f"criterion 09 (sqrt-modulus ratio flat on dyadic grid): PASS "
          f"C0_hat={holder_report['C0_hat']:.4f} variation={variation:.3f}x")


def test_criterion_10_gap_separation(golden, amo_labelled, holder_report):
    _, labelled, boundary = amo_labelled
    report = gap_separation_check(labelled, boundary, golden,
                                  holder_report["C0_hat"])
    assert report["all_pass"]
    pairs = [r for r in report["rows"] if r["kind"] == "pair"]
    assert len(pairs) == len(labelled) * (len(labelled) - 1) // 2
    print(f"criterion 10 (dist >= (gamma/C0)^2 |m-m'|^(-2 tau)): PASS "
          f"pairs={len(pairs)} C0_hat={holder_report['C0_hat']:.4f}")


def test_criterion_11_determinism(tmp_path):
    base = {
        "frequency": {"components": [GOLDEN], "gamma": 0.1, "tau": 1.5,
                      "cutoff": 60},
        "numerics": {"L": 5000, "phases": 8,
                     "energy": {"min": -2.5, "max": 2.5, "points": 201}},
    }
    runs = [
        ("ids", dict(base, potential={"family": "free"}), "ids.csv"),
        ("kam", dict(base, potential={"family": "free"},
                     kam={"rho0": 0.17,
                          "perturbation": {"scale": 2.5e-4, "radius": 3,
                                           "seed": 11}}), "kam.csv"),
    ]
    for command, cfg, data_name in runs:
        blobs = []
        for tag in ("r1", "r2"):
            out = tmp_path / f"{command}_{tag}"
            cfg_path = tmp_path / f"{command}_{tag}.json"
            cfg_path.write_text(json.dumps(
                dict(cfg, output={"dir": str(out), "format": "csv"})))
            assert cli_main([command, "--config", str(cfg_path)]) == 0
            blobs.append((out / data_name).read_bytes())
        assert blobs[0] == blobs[1]
    print("criterion 11 (byte-identical reruns): PASS commands=ids,kam")
