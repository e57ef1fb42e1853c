"""Workloads: seeded configs, independent references and output checks.

Nothing here imports qpspec.  Every check reads the data files a command
wrote and compares them with numbers computed from first principles
(the golden-mean frequency, periodic approximants, the closed interval
[0, 1/2] of folded rotation numbers), so a wrong estimator inside qpspec
cannot also pass its own check.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
FREQUENCY = {"components": [GOLDEN], "gamma": 0.1, "tau": 1.5, "cutoff": 60}

# relative half-width of the seeded coupling perturbation; within it the
# labelled-gap set, the coarse gap cells and the edge reduction stay fixed
COUPLING_SPREAD = 0.01

LABEL_TOL = 1e-3
DUAL_TOL = 5e-3          # acceptance criterion 2
HOMOG_MIN_MU = 0.5       # acceptance criterion 8
KAM_STOP_TOL = 1e-12
KAM_RESIDUAL_TOL = 1e-7

# Fibonacci approximants p/q of the golden mean for the gap-edge reference
APPROXIMANTS = ((377, 610), (610, 987))
APPROXIMANT_PHASES = 4       # phases per period 1/q of the approximant
APPROXIMANT_AGREE = 1e-4     # both approximants must agree on the edges


@dataclass
class Inputs:
    """Generated inputs of one seed: the config and what the checks need."""

    config: dict
    params: dict
    reference: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple
    make: object       # seed -> Inputs
    check: object      # (out_dir, Inputs) -> (failures by command, accuracy)
    accuracy: str      # name of the accuracy figure reported as ref_err
    reference: object = None   # Inputs -> reference dict, computed untimed


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _perturbed(rng: random.Random, base: float) -> float:
    return base * (1.0 + COUPLING_SPREAD * (2.0 * rng.random() - 1.0))


def _dist_to_int(x):
    x = np.asarray(x, dtype=float)
    frac = x - np.floor(x)
    return np.minimum(frac, 1.0 - frac)


def read_rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _floats(rows, column) -> np.ndarray:
    return np.array([float(r[column]) for r in rows])


class _Failures:
    """Per-command failure messages collected by one check."""

    def __init__(self, commands):
        self.by_command = {c: [] for c in commands}

    def require(self, command: str, ok, message: str) -> bool:
        if not bool(ok):
            self.by_command[command].append(message)
        return bool(ok)


def _guarded(fails: _Failures, command: str, fn):
    """Run one command's check; a missing or malformed file is a failure."""
    try:
        return fn()
    except (OSError, KeyError, ValueError, IndexError) as exc:
        fails.require(command, False, f"unreadable output: {exc!r}")
        return None


def _check_labels(fails, command, rows, expected):
    """Labels present and their plateau defects recomputed from alpha."""
    labels = [int(r["m"]) for r in rows]
    fails.require(command, set(expected) <= set(labels),
                  f"labels {sorted(expected)} not all in {sorted(labels)}")
    plateau = _floats(rows, "N_plateau")
    defects = _dist_to_int(plateau - np.array(labels) * GOLDEN)
    fails.require(command, np.all(np.isfinite(defects)), "non-finite plateau")
    fails.require(command, np.all(defects <= LABEL_TOL),
                  f"label defect {defects.max():.3e} above {LABEL_TOL:.0e}")
    wanted = [d for m, d in zip(labels, defects) if m in expected]
    return float(max(wanted)) if wanted else math.inf


def _check_ids_file(fails, command, path, grid):
    rows = read_rows(path)
    E = _floats(rows, "E")
    N = _floats(rows, "N")
    fails.require(command, len(rows) == grid["points"],
                  f"ids has {len(rows)} rows, expected {grid['points']}")
    fails.require(command, np.allclose(
        E, np.linspace(grid["min"], grid["max"], grid["points"]),
        rtol=0.0, atol=1e-12), "ids energies are not the configured grid")
    fails.require(command, np.all(np.diff(N) >= 0.0), "ids decreases")
    fails.require(command, N.min() >= 0.0 and N.max() <= 1.0,
                  "ids escapes [0, 1]")
    return E, N


# ---------------------------------------------------------------------------
# spectrum_map: scan, gaps, homog, ids on the almost Mathieu operator


def _make_spectrum_map(seed: int) -> Inputs:
    rng = _rng("spectrum_map", seed)
    coupling = _perturbed(rng, 0.3)
    grid = {"min": -2.5, "max": 2.5, "points": 201}
    config = {
        "potential": {"family": "amo", "coupling": coupling},
        "frequency": FREQUENCY,
        "numerics": {"L": 3000, "phases": 8, "resolution": 2e-3,
                     "energy": grid},
        "output": {"format": "csv"},
    }
    return Inputs(config, {"coupling": coupling, "grid": grid,
                           "labels": [-3, -2, -1, 1, 2, 3]})


def _check_spectrum_map(out: Path, inputs: Inputs):
    commands = ("scan", "gaps", "homog", "ids")
    fails = _Failures(commands)
    acc = {"label_defect_max": math.inf}

    def scan():
        rows = read_rows(out / "scan.csv")
        lo, hi = _floats(rows, "E_lo"), _floats(rows, "E_hi")
        fails.require("scan", len(rows) >= 7, f"only {len(rows)} intervals")
        fails.require("scan", np.all(np.isfinite(lo)) and np.all(hi > lo)
                      and np.all(lo[1:] > hi[:-1]),
                      "scan intervals are not sorted and disjoint")

    def gaps():
        rows = read_rows(out / "gaps.csv")
        acc["label_defect_max"] = _check_labels(
            fails, "gaps", rows, inputs.params["labels"])

    def homog():
        mu = _floats(read_rows(out / "homog.csv"), "mu")
        acc["homog_min_mu"] = float(mu.min())
        fails.require("homog", mu.min() >= HOMOG_MIN_MU,
                      f"homogeneity {mu.min():.3f} below {HOMOG_MIN_MU}")

    def ids():
        _check_ids_file(fails, "ids", out / "ids.csv", inputs.params["grid"])

    for cmd, fn in zip(commands, (scan, gaps, homog, ids)):
        _guarded(fails, cmd, fn)
    return fails.by_command, acc


# ---------------------------------------------------------------------------
# gap_edge: gaps then edge on a weakly coupled almost Mathieu operator


def approximant_gap(coupling: float, p: int, q: int, label: int,
                    phases: int = APPROXIMANT_PHASES):
    """Gap of IDS label `label` for the p/q periodic approximant.

    For each phase the q-periodic operator has q bands whose edges are
    the periodic and antiperiodic eigenvalues; band j spans the sorted
    pair (e_2j, e_2j+1), and the gap above band k-1 carries IDS k/q.
    The spectrum is the union over the phase, so the gap edges are the
    extremes over the sampled phases.  The phase enters only through
    theta mod 1/q, and the sample includes 0 and 1/(2q).
    """
    k = (label * p) % q
    n = np.arange(q)
    off = np.ones(q - 1)
    lo, hi = -math.inf, math.inf
    for j in range(phases):
        theta = j / (phases * q)
        phase = 2.0 * math.pi * (theta + n * p / q)
        h = np.diag(2.0 * coupling * np.cos(phase))
        h += np.diag(off, 1) + np.diag(off, -1)
        eig = []
        for corner in (1.0, -1.0):
            h[0, -1] = h[-1, 0] = corner
            eig.append(np.linalg.eigvalsh(h))
        e = np.sort(np.concatenate(eig))
        lo = max(lo, float(e[2 * k - 1]))
        hi = min(hi, float(e[2 * k]))
    return lo, hi


def _make_gap_edge(seed: int) -> Inputs:
    rng = _rng("gap_edge", seed)
    coupling = _perturbed(rng, 0.004)
    config = {
        "potential": {"family": "amo", "coupling": coupling},
        "frequency": FREQUENCY,
        "numerics": {"L": 6000, "phases": 8, "resolution": 2e-3},
        "edge": {"gaps_file": "gaps.csv", "label": [1]},
        "output": {"format": "csv"},
    }
    return Inputs(config, {"coupling": coupling, "label": 1,
                           "resolution": 2e-3, "labels": [-1, 1]})


def gap_edge_reference(inputs: Inputs) -> dict:
    """Approximant edges of the label-1 gap, from both approximants."""
    edges = [approximant_gap(inputs.params["coupling"], p, q,
                             inputs.params["label"])
             for p, q in APPROXIMANTS]
    return {"approximants": [list(pq) for pq in APPROXIMANTS],
            "edges": [list(e) for e in edges]}


def _check_gap_edge(out: Path, inputs: Inputs):
    commands = ("gaps", "edge")
    fails = _Failures(commands)
    acc = {"edge_len_err": math.inf}
    res = inputs.params["resolution"]

    def gaps():
        rows = read_rows(out / "gaps.csv")
        acc["label_defect_max"] = _check_labels(
            fails, "gaps", rows, inputs.params["labels"])

    def edge():
        row = read_rows(out / "edge.csv")[0]
        zeta = float(row["zeta"])
        length = float(row["measured_length"])
        e_plus = float(row["E_plus"])
        acc["zeta"] = zeta
        fails.require("edge", 0.0 < zeta < 0.5, f"zeta {zeta} not in (0, 1/2)")
        fails.require("edge", math.isfinite(length) and length > 0.0,
                      f"measured length {length}")
        (lo_a, hi_a), (lo_b, hi_b) = inputs.reference["edges"]
        fails.require("edge", max(abs(lo_a - lo_b), abs(hi_a - hi_b))
                      <= APPROXIMANT_AGREE, "approximants disagree")
        ref_len = hi_b - lo_b
        err = abs(length - ref_len)
        acc["edge_len_err"] = err
        acc["reference_length"] = ref_len
        acc["measured_length"] = length
        # the measured gap may miss up to one scan cell at each edge
        fails.require("edge", err <= 2.0 * res,
                      f"gap length off the approximant by {err:.3e}")
        fails.require("edge", abs(e_plus - hi_b) <= res,
                      f"upper edge {e_plus} off the approximant {hi_b}")

    for cmd, fn in zip(commands, (gaps, edge)):
        _guarded(fails, cmd, fn)
    return fails.by_command, acc


# ---------------------------------------------------------------------------
# duality: rotation, ids, kam on the cosine potential of criterion 2


def _make_duality(seed: int) -> Inputs:
    # the operator stays exactly that of acceptance criterion 2; the seed
    # picks the KAM perturbation
    amplitude = 0.6
    kam_seed = _rng("duality", seed).randrange(1, 201)
    grid = {"min": -2.6, "max": 2.6, "points": 201}
    config = {
        "potential": {"family": "cosine", "terms": {"1": amplitude}},
        "frequency": FREQUENCY,
        "numerics": {"L": 5000, "phases": 8, "rotation_iterations": 100000,
                     "energy": grid},
        "kam": {"rho0": 0.17,
                "perturbation": {"scale": 2.5e-4, "radius": 3,
                                 "seed": kam_seed}},
        "output": {"format": "csv"},
    }
    return Inputs(config, {"amplitude": amplitude, "kam_seed": kam_seed,
                           "grid": grid})


def _check_duality(out: Path, inputs: Inputs):
    commands = ("rotation", "ids", "kam")
    fails = _Failures(commands)
    acc = {"dual_defect_max": math.inf}
    rho = {}

    def rotation():
        rows = read_rows(out / "rotation.csv")
        r = _floats(rows, "rho")
        fails.require("rotation", len(rows) == inputs.params["grid"]["points"],
                      f"rotation has {len(rows)} rows")
        fails.require("rotation", np.all((r >= 0.0) & (r <= 0.5)),
                      "folded rotation number outside [0, 1/2]")
        rho["values"] = r

    def ids():
        _, N = _check_ids_file(fails, "ids", out / "ids.csv",
                               inputs.params["grid"])
        defect = _dist_to_int(N - (1.0 - 2.0 * rho["values"]))
        worst = float(defect.max())
        acc["dual_defect_max"] = worst
        fails.require("ids", worst <= DUAL_TOL,
                      f"N = 1 - 2 rho defect {worst:.3e} above {DUAL_TOL}")

    def kam():
        rows = read_rows(out / "kam.csv")
        before = _floats(rows, "norm_before")
        after = _floats(rows, "norm_after")
        fails.require("kam", np.all(after < before),
                      "a KAM step did not contract")
        fails.require("kam", after[-1] <= KAM_STOP_TOL,
                      f"final perturbation {after[-1]:.3e}")
        residual = _floats(rows, "residual")
        fails.require("kam", residual.max() <= KAM_RESIDUAL_TOL,
                      f"conjugation residual {residual.max():.3e}")
        acc["kam_steps"] = len(rows)

    for cmd, fn in zip(commands, (rotation, ids, kam)):
        if cmd == "ids" and "values" not in rho:
            fails.require(cmd, False, "no rotation numbers to compare with")
            continue
        _guarded(fails, cmd, fn)
    return fails.by_command, acc


WORKLOADS = {
    w.name: w for w in (
        Workload("spectrum_map",
                 "wide Sturm passes: scan, gaps, homog and a 201-point IDS "
                 "on the almost Mathieu operator at coupling 0.3",
                 ("scan", "gaps", "homog", "ids"),
                 _make_spectrum_map, _check_spectrum_map,
                 "label_defect_max"),
        Workload("gap_edge",
                 "narrow Sturm passes in edge refinement, a single-lane "
                 "orbit and the KAM reduction at a weak-coupling gap edge",
                 ("gaps", "edge"),
                 _make_gap_edge, _check_gap_edge, "edge_len_err",
                 gap_edge_reference),
        Workload("duality",
                 "many-lane rotation orbit against the IDS (N = 1 - 2 rho) "
                 "and a KAM run; the Sturm kernel does little",
                 ("rotation", "ids", "kam"),
                 _make_duality, _check_duality, "dual_defect_max"),
    )
}
