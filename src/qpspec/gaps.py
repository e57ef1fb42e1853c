"""Spectral gaps: detection, Diophantine labelling, decay and regularity checks.

A bounded component of the complement of the spectrum carries a constant
IDS value; that plateau equals <m, alpha> mod Z for a unique integer
vector m, which labels the gap.  Gap lengths of small smooth potentials
decay in |m|; the spectrum itself is homogeneous in the sense that every
small window around a spectrum point contains a definite fraction of
spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import AmbiguousLabelError, EdgeSearchError, LabelError
from .qpcore import FourierSeries, Frequency, dist_to_int, integer_ball
from .spectrum import IdsCurve, TruncatedOperator

__all__ = [
    "GapRecord",
    "HomogeneityProfile",
    "detect_gaps",
    "label_all",
    "decay_profile",
    "confirm_gap",
    "homogeneity_profile",
    "holder_modulus",
    "gap_separation_check",
]


@dataclass(frozen=True)
class GapRecord:
    m: tuple | None
    E_minus: float
    E_plus: float
    length: float
    N_plateau: float
    label_defect: float | None

    def __post_init__(self):
        if self.E_minus > self.E_plus:
            raise ValueError("gap edges out of order")

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.E_minus + self.E_plus)

    def abs_label(self) -> int:
        if self.m is None:
            raise ValueError("gap is unlabelled")
        return max(abs(x) for x in self.m)


def detect_gaps(scan, ids_curve, min_length: float):
    """Bounded complement intervals of the scan, with IDS plateaus.

    ids_curve receives the array of every gap midpoint at once and returns
    the IDS there (a scalar holds at every midpoint), so the plateaus are
    recounted in one pass.  Returns (records, (E_min, E_max)): the
    unlabelled gap records of length at least min_length, and the outer
    spectrum boundary for the label-0 unbounded components.
    """
    if not scan:
        raise ValueError("empty scan")
    intervals = sorted((float(a), float(b)) for a, b in scan)
    # lo - hi of two mesh points rounds; a slack far below a cell absorbs it
    gaps = [(hi, lo) for (_, hi), (lo, _) in zip(intervals, intervals[1:])
            if lo - hi >= min_length * (1.0 - 1e-9)]
    records = []
    if gaps:
        mids = np.array([0.5 * (hi + lo) for hi, lo in gaps])
        plateaus = np.broadcast_to(np.asarray(ids_curve(mids), dtype=float),
                                   mids.shape).tolist()
        records = [GapRecord(None, hi, lo, lo - hi, plateau, None)
                   for (hi, lo), plateau in zip(gaps, plateaus)]
    boundary = (intervals[0][0], intervals[-1][1])
    return records, boundary


def _label(N_plateau: float, cands: np.ndarray, pairing: np.ndarray,
           freq: Frequency, M_max: int, tol: float) -> tuple:
    """Unique m in the ball cands with N = <m, alpha> mod Z within tol;
    pairing is cands @ freq.vec."""
    defects = dist_to_int(N_plateau - pairing)
    order = np.argsort(defects)
    best, runner = order[0], order[1]
    m_best, m_runner = (tuple(cands[i].tolist()) for i in (best, runner))
    if defects[best] > tol:
        raise LabelError(
            f"no label within tol={tol:.1e}: best candidate "
            f"m={m_best} has defect {defects[best]:.3e}")
    if defects[runner] <= tol:
        raise AmbiguousLabelError(
            f"labels {m_best} and {m_runner} both match plateau "
            f"{N_plateau:.6f} within {tol:.1e}")
    separation = freq.gamma / float(2 * M_max) ** freq.tau - tol
    if defects[runner] < separation:
        raise AmbiguousLabelError(
            f"runner-up defect {defects[runner]:.3e} below the Diophantine "
            f"separation {separation:.3e}")
    return m_best


def _label_ball(freq: Frequency, M_max: int):
    """The candidate labels |m| <= M_max and their pairing with alpha."""
    if M_max < 1:
        raise ValueError("M_max >= 1 required")
    cands = integer_ball(freq.dim, M_max)
    return cands, cands @ freq.vec


def label_all(records, freq: Frequency, M_max: int, tol: float):
    """Label every record; distinct gaps must get distinct labels.

    The candidate ball and its pairing are built once for all records.
    """
    cands, pairing = _label_ball(freq, M_max)
    labelled = []
    seen = {}
    for rec in records:
        m = _label(rec.N_plateau, cands, pairing, freq, M_max, tol)
        if m in seen:
            raise AmbiguousLabelError(
                f"label {m} assigned to two gaps (midpoints "
                f"{seen[m]:.4f} and {rec.midpoint:.4f}); the scan is "
                "over-resolved or the gap list contains fragments")
        seen[m] = rec.midpoint
        defect = float(dist_to_int(rec.N_plateau - np.dot(m, freq.vec)))
        labelled.append(replace(rec, m=m, label_defect=defect))
    return labelled


def decay_profile(gaps, eps: float, k: int) -> dict:
    """Check measured gap lengths against the eps^(1/4) |m|^(-k/9) bound.

    The comparison is strict; a length exactly at the bound fails.  A
    log-log slope of length against |m| is reported for trend reading.
    """
    rows = []
    pts = []
    for rec in gaps:
        if rec.m is None:
            raise ValueError("decay_profile needs labelled gaps")
        size = rec.abs_label()
        if size == 0:
            continue
        bound = eps ** 0.25 * float(size) ** (-k / 9.0)
        ok = rec.length < bound
        rows.append({
            "m": rec.m,
            "abs_m": size,
            "length": rec.length,
            "bound": bound,
            "pass": bool(ok),
        })
        if rec.length > 0:
            pts.append((math.log(size), math.log(rec.length)))
    slope = None
    if len(pts) >= 2:
        xs = np.array([p[0] for p in pts])
        ys = np.array([p[1] for p in pts])
        if np.ptp(xs) > 0:
            slope = float(np.polyfit(xs, ys, 1)[0])
    return {
        "rows": rows,
        "all_pass": all(r["pass"] for r in rows),
        "log_slope": slope,
        "eps": eps,
        "k": k,
    }


# ---------------------------------------------------------------------------
# gap re-check


def confirm_gap(V: FourierSeries, freq: Frequency, E_minus: float,
                E_plus: float, L: int, window: float, phases: int) -> None:
    """Check that [E_minus, E_plus] is still a gap of the truncation.

    One Sturm pass asks for presence (an eigenvalue at every phase) in 20
    windows of width window: 8 stepping outward from each edge, of which
    some must hold spectrum; 1 just inside each edge and 2 at the
    midpoint, which must not.  EdgeSearchError names the first failure
    in this order: a gap not wider than two windows, spectrum at the
    midpoint, no spectrum beyond an edge, spectrum just inside an edge;
    the lower edge is reported before the upper one.
    """
    H = TruncatedOperator.sampled(V, freq, L, phases)
    w = window
    if E_plus - E_minus <= 2.0 * w:
        raise EdgeSearchError(
            f"gap [{E_minus:.6f}, {E_plus:.6f}] is not wider than two "
            f"windows of {w:.3g}")
    mid = 0.5 * (E_minus + E_plus)
    below, above = [E_minus], [E_plus]
    for _ in range(7):
        below.append(below[-1] - w)
        above.append(above[-1] + w)
    windows = ([(x - w, x) for x in below] + [(x, x + w) for x in above]
               + [(E_minus, E_minus + w), (E_plus - w, E_plus),
                  (mid - w, mid), (mid, mid + w)])
    hits = H.present([x for pair in windows for x in pair])[::2].tolist()
    if any(hits[18:]):
        raise EdgeSearchError(f"spectrum at the gap midpoint {mid:.6f}")
    for edge, outer in ((E_minus, hits[:8]), (E_plus, hits[8:16])):
        if not any(outer):
            raise EdgeSearchError(f"no spectrum found near {edge:.6f}")
    for edge, inner in zip((E_minus, E_plus), hits[16:18]):
        if inner:
            raise EdgeSearchError(f"presence never flips near {edge:.6f}")


# ---------------------------------------------------------------------------
# homogeneity and regularity


@dataclass(frozen=True)
class HomogeneityProfile:
    eps: np.ndarray
    mu: np.ndarray
    attaining_E: np.ndarray

    def __post_init__(self):
        if np.any(self.mu < 0) or np.any(self.mu > 2 + 1e-12):
            raise ValueError("mu escapes [0, 2]")

    def min_mu(self) -> float:
        return float(self.mu.min())


def _window_measure(intervals, centers, eps):
    lo = centers - eps
    hi = centers + eps
    total = np.zeros_like(centers)
    for a, b in intervals:
        total += np.clip(np.minimum(hi, b) - np.maximum(lo, a), 0.0, None)
    return total


def homogeneity_profile(scan, eps_grid, E_samples: int) -> HomogeneityProfile:
    """mu(eps) = min over sampled E in the spectrum of |window cap Sigma|/eps.

    Sampling is edge-biased: every interval endpoint participates, plus a
    uniform fill proportional to interval length, because the minimum of
    the window ratio over a finite union of intervals is attained at an
    edge.
    """
    if not scan:
        raise ValueError("empty scan")
    intervals = sorted((float(a), float(b)) for a, b in scan)
    diam = intervals[-1][1] - intervals[0][0]
    eps_grid = np.asarray(sorted(float(e) for e in eps_grid))
    if eps_grid[0] <= 0 or eps_grid[-1] >= diam:
        raise ValueError("eps values must lie in (0, diam)")

    pts = []
    total_len = sum(b - a for a, b in intervals)
    for a, b in intervals:
        pts.extend((a, b))
        n_fill = int(round(E_samples * (b - a) / max(total_len, 1e-300)))
        if n_fill > 0:
            pts.extend(np.linspace(a, b, n_fill + 2)[1:-1])
    # sorted and deduplicated; np.unique would import numpy.ma
    centers = np.sort(np.asarray(pts, dtype=float))
    centers = centers[np.append(True, centers[1:] != centers[:-1])]

    mus = []
    attain = []
    for eps in eps_grid:
        ratio = _window_measure(intervals, centers, eps) / eps
        j = int(np.argmin(ratio))
        mus.append(float(ratio[j]))
        attain.append(float(centers[j]))
    return HomogeneityProfile(eps_grid, np.asarray(mus), np.asarray(attain))


def holder_modulus(curve: IdsCurve, eps_grid) -> dict:
    """Largest symmetric-increment ratio (N(E+e) - N(E-e)) / sqrt(e).

    A square-root modulus keeps the ratio bounded across a dyadic eps
    grid; a jump in the curve instead makes the ratio grow like
    eps^(-1/2), which is flagged as a violation when the smallest-eps
    ratio dominates the largest-eps one by more than 2x.
    """
    eps_grid = np.asarray(sorted(float(e) for e in eps_grid))
    energies = curve.energies
    per_eps = []
    c0 = 0.0
    e_star = None
    eps_star = None
    for eps in eps_grid:
        ok = (energies - eps >= energies[0]) & (energies + eps <= energies[-1])
        if not np.any(ok):
            continue
        cc = energies[ok]
        ratio = (curve(cc + eps) - curve(cc - eps)) / math.sqrt(eps)
        j = int(np.argmax(ratio))
        per_eps.append({"eps": float(eps), "max_ratio": float(ratio[j]),
                        "at_E": float(cc[j])})
        if ratio[j] > c0:
            c0 = float(ratio[j])
            e_star = float(cc[j])
            eps_star = float(eps)
    if not per_eps:
        raise ValueError("eps grid leaves no interior energies")
    violation = (len(per_eps) >= 2
                 and per_eps[0]["max_ratio"] > 2.0 * per_eps[-1]["max_ratio"])
    return {
        "C0_hat": c0,
        "E_star": e_star,
        "eps_star": eps_star,
        "per_eps": per_eps,
        "holder_violation": bool(violation),
    }


def gap_separation_check(gaps, boundary, freq: Frequency,
                         C0_hat: float) -> dict:
    """Pairwise gap distances against (gamma/C0)^2 |m - m'|^(-2 tau).

    Also checks each gap's distance to the outer spectrum boundary with
    the gap's own label size.  Violations are rows, not errors.
    """
    if C0_hat <= 0:
        raise ValueError("C0_hat must be positive")
    base = (freq.gamma / C0_hat) ** 2
    rows = []

    def _bound(dm) -> float:
        size = max(abs(int(x)) for x in np.atleast_1d(dm))
        return base * float(size) ** (-2.0 * freq.tau) if size else math.inf

    for i, g1 in enumerate(gaps):
        for g2 in gaps[i + 1:]:
            dist = max(0.0, max(g2.E_minus - g1.E_plus,
                                g1.E_minus - g2.E_plus))
            dm = np.subtract(g1.m, g2.m)
            bound = _bound(dm)
            rows.append({
                "kind": "pair",
                "m": g1.m,
                "m_prime": g2.m,
                "dist": dist,
                "bound": bound,
                "pass": bool(dist >= bound),
            })
    e_min, e_max = boundary
    for g in gaps:
        bound = _bound(g.m)
        for kind, dist in (("boundary_min", g.E_minus - e_min),
                           ("boundary_max", e_max - g.E_plus)):
            rows.append({
                "kind": kind,
                "m": g.m,
                "m_prime": (0,) * freq.dim,
                "dist": dist,
                "bound": bound,
                "pass": bool(dist >= bound),
            })
    return {
        "rows": rows,
        "all_pass": all(r["pass"] for r in rows),
        "C0_hat": C0_hat,
        "base": base,
    }
