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
from itertools import product

import numpy as np

from .errors import AmbiguousLabelError, LabelError
from .qpcore import FourierSeries, Frequency, dist_to_int
from .spectrum import IdsCurve, TruncatedOperator

__all__ = [
    "GapRecord",
    "HomogeneityProfile",
    "detect_gaps",
    "label_gap",
    "label_all",
    "decay_profile",
    "refine_gap_edges",
    "refine_band_edge",
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

    Returns (records, (E_min, E_max)): the unlabelled gap records of length
    at least min_length, and the outer spectrum boundary for the label-0
    unbounded components.
    """
    if not scan:
        raise ValueError("empty scan")
    intervals = sorted((float(a), float(b)) for a, b in scan)
    records = []
    for (_, hi), (lo, _) in zip(intervals, intervals[1:]):
        length = lo - hi
        if length < min_length:
            continue
        mid = 0.5 * (hi + lo)
        plateau = float(ids_curve(mid))
        records.append(GapRecord(None, hi, lo, length, plateau, None))
    boundary = (intervals[0][0], intervals[-1][1])
    return records, boundary


def _label_candidates(dim: int, M_max: int):
    ranges = [range(-M_max, M_max + 1)] * dim
    return list(product(*ranges))


def label_gap(N_plateau: float, freq: Frequency, M_max: int,
              tol: float) -> tuple:
    """Unique m with |m| <= M_max and N = <m, alpha> mod Z within tol."""
    if M_max < 1:
        raise ValueError("M_max >= 1 required")
    cands = _label_candidates(freq.dim, M_max)
    brackets = np.array([float(np.dot(m, freq.vec)) for m in cands])
    defects = dist_to_int(N_plateau - brackets)
    order = np.argsort(defects)
    best, runner = order[0], order[1]
    if defects[best] > tol:
        raise LabelError(
            f"no label within tol={tol:.1e}: best candidate "
            f"m={cands[best]} has defect {defects[best]:.3e}")
    if defects[runner] <= tol:
        raise AmbiguousLabelError(
            f"labels {cands[best]} and {cands[runner]} both match plateau "
            f"{N_plateau:.6f} within {tol:.1e}")
    separation = freq.gamma / float(2 * M_max) ** freq.tau - tol
    if defects[runner] < separation:
        raise AmbiguousLabelError(
            f"runner-up defect {defects[runner]:.3e} below the Diophantine "
            f"separation {separation:.3e}")
    return tuple(int(x) for x in cands[best])


def label_all(records, freq: Frequency, M_max: int, tol: float):
    """Label every record; distinct gaps must get distinct labels."""
    labelled = []
    seen = {}
    for rec in records:
        m = label_gap(rec.N_plateau, freq, M_max, tol)
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
# edge refinement


# Edge searches run in lockstep: each round of every open search is one
# Sturm pass over interleaved windows [lo0, hi0, lo1, hi1, ...].  Ladders
# are asked in chunks, one round each: 8 steps looking for spectrum near
# the coarse edge, then 8 + 56 looking for the presence flip.
_TRUE_CHUNKS = (8,)
_FALSE_CHUNKS = (8, 56)
_BISECT_STEPS = 200
_LEVELS = 4          # dyadic bisection levels evaluated per round


def _present(H: TruncatedOperator, groups):
    """Presence in every window of every group, from one counting pass."""
    edges = [x for group in groups for window in group for x in window]
    cells = H.present(edges)[::2].tolist() if edges else []
    out, k = [], 0
    for group in groups:
        out.append(cells[k:k + len(group)])
        k += len(group)
    return out


def _lockstep(H: TruncatedOperator, searches, probe=()):
    """Run edge searches together, one presence pass per round.

    Each search is a generator that yields its windows and receives their
    presence.  The probe windows ride along in the first pass; if any of
    them holds spectrum, returns None.  A search that fails raises after
    the others finish, the first in order winning, as if run one by one.
    """
    windows = [next(s) for s in searches]
    probe_hits, *hits = _present(H, [probe, *windows])
    if any(probe_hits):
        return None
    results, failed = [None] * len(searches), {}
    pending = range(len(searches))
    while pending:
        asked = []
        for i, got in zip(pending, hits):
            try:
                windows[i] = searches[i].send(got)
                asked.append(i)
            except StopIteration as stop:
                results[i] = stop.value
            except ValueError as err:
                failed[i] = err
        pending = asked
        hits = _present(H, [windows[i] for i in pending])
    if failed:
        raise failed[min(failed)]
    return results


def _bisection(window, x_true, x_false, tol: float):
    """Shrink [x_true, x_false] (pred true/false at ends) to width tol.

    Each round yields the midpoints of the next _LEVELS dyadic levels; the
    walk down that tree repeats the one-step bisection float for float.
    A midpoint equal to an end is a fixed point and ends the search.
    """
    done = 0
    while True:
        # heap order: node i splits into 2i (pred true) and 2i + 1 (false)
        bounds, mids = {1: (x_true, x_false)}, {}
        for i in range(1, 2 ** _LEVELS):
            if i not in bounds:
                continue
            a, b = bounds[i]
            m = 0.5 * (a + b)
            if done + i.bit_length() > _BISECT_STEPS or abs(b - a) <= tol \
                    or m in (a, b):
                continue
            mids[i] = m
            bounds[2 * i], bounds[2 * i + 1] = (m, b), (a, m)
        if not mids:
            return 0.5 * (x_true + x_false)
        hits = yield [window(m) for m in mids.values()]
        hit = dict(zip(mids, hits))
        i = 1
        while i in mids:
            i = 2 * i + (not hit[i])
            done += 1
        x_true, x_false = bounds[i]


def _first(window, x, step: float, want: bool, chunks):
    """First of x, x + step, ... whose presence is want, or None.

    Each chunk of the ladder is one round, so a flip near the start costs
    no pass over the rest of the ladder.
    """
    for size in chunks:
        ladder = [x]
        for _ in range(size - 1):
            ladder.append(ladder[-1] + step)
        hits = yield [window(x) for x in ladder]
        if want in hits:
            return ladder[hits.index(want)]
        x = ladder[-1] + step
    return None


def _edge_search(coarse: float, side: str, w: float, tol: float):
    """Search generator for one edge (see _lockstep)."""
    if side == "upper":
        step, window = -w, lambda x: (x - w, x)
    elif side == "lower":
        step, window = w, lambda x: (x, x + w)
    else:
        raise ValueError("side must be 'upper' or 'lower'")
    x_true = yield from _first(window, coarse, step, True, _TRUE_CHUNKS)
    if x_true is None:
        raise ValueError(f"no spectrum found near {coarse:.6f} to refine")
    x_false = yield from _first(window, x_true - 2.0 * step, -2.0 * step,
                                False, _FALSE_CHUNKS)
    if x_false is None:
        raise ValueError(f"presence never flips near {coarse:.6f}")
    flip = yield from _bisection(window, x_true, x_false, tol)
    return flip + step


def refine_band_edge(V: FourierSeries, freq: Frequency, coarse: float,
                     side: str, L: int, edge_tol: float,
                     phases: int = 8) -> float:
    """Sharpen one spectrum edge by bisecting a windowed presence flip.

    side 'upper': coarse is a band top (spectrum below, gap above); the
    predicate asks for an eigenvalue in (x - w, x) at every phase.  side
    'lower' mirrors it.  The window w = max(edge_tol, 4/L) keeps a few
    mean level spacings inside, so presence is statistically reliable.
    """
    H = TruncatedOperator.sampled(V, freq, L, phases)
    search = _edge_search(coarse, side, max(edge_tol, 4.0 / L), edge_tol)
    return _lockstep(H, [search])[0]


def refine_gap_edges(V: FourierSeries, freq: Frequency, gap: GapRecord,
                     L: int, edge_tol: float, phases: int = 8) -> GapRecord:
    """Refine both edges of a detected gap; collapsed gaps are kept.

    Both edges and the collapse probe at the midpoint advance in lockstep,
    one Sturm pass per round.  The refined record is clamped inside the
    coarse record (containment contract).
    """
    H = TruncatedOperator.sampled(V, freq, L, phases)
    w = max(edge_tol, 4.0 / L)
    mid = gap.midpoint
    collapsed = replace(gap, E_minus=mid, E_plus=mid, length=0.0)
    if gap.length <= 2.0 * w:
        return collapsed
    edges = _lockstep(H, [_edge_search(gap.E_minus, "upper", w, edge_tol),
                          _edge_search(gap.E_plus, "lower", w, edge_tol)],
                      probe=[(mid - w, mid), (mid, mid + w)])
    if edges is None:
        return collapsed
    lo = max(edges[0], gap.E_minus)
    hi = min(edges[1], gap.E_plus)
    if lo >= hi:
        return collapsed
    return replace(gap, E_minus=lo, E_plus=hi, length=hi - lo)


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
    centers = np.unique(np.asarray(pts, dtype=float))

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
