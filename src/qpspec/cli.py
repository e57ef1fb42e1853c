"""Command-line front end for the spectral pipeline.

Every subcommand reads one structured JSON config, runs its module
pipeline deterministically, writes plot-ready CSV or JSON rows, and
records a manifest with the config digest and the output inventory.
Wall-times live only in the manifest; the data files depend on nothing
but the config.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import kam
from .errors import (
    ConfigError,
    DiophantineRejection,
    DivergenceError,
    LabelError,
    ReductionError,
    StaleArtifactError,
)
from .gaps import (
    GapRecord,
    decay_profile,
    detect_gaps,
    homogeneity_profile,
    label_all,
    refine_gap_edges,
)
from .mat2 import rotation
from .qpcore import (
    FourierSeries,
    amo_potential,
    ck_norm,
    cosine_polynomial,
    diophantine_check,
)
from .rotnum import schrodinger_rotation_grid
from .spectrum import ids, ids_curve, spectrum_scan

_FLOAT_FMT = "%.17g"

_DEFAULT_NUMERICS = {
    "L": 3000,
    "phases": 8,
    "resolution": 2e-3,
    "energy": {"min": -2.5, "max": 2.5, "points": 201},
    "min_gap_length": None,
    "M_max": 20,
    "label_tol": 1e-3,
    "rotation_iterations": 20000,
    "homog_eps": [1e-3, 3e-3, 1e-2, 3e-2, 1e-1],
    "homog_samples": 200,
}

# the type every numerics field is converted to once, at admission
_NUMERICS_TYPES = {
    "L": int,
    "phases": int,
    "resolution": float,
    "min_gap_length": float,
    "M_max": int,
    "label_tol": float,
    "rotation_iterations": int,
    "homog_samples": int,
}
_ENERGY_TYPES = {"min": float, "max": float, "points": int}


# ---------------------------------------------------------------------------
# config loading and validation


def load_config(path) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        cfg = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    for field in ("potential", "frequency"):
        if field not in cfg:
            raise ConfigError(f"config is missing the '{field}' section")
    return cfg


def build_potential(spec) -> FourierSeries:
    if not isinstance(spec, dict) or "family" not in spec:
        raise ConfigError("potential section needs a 'family' field")
    family = spec["family"]
    if family == "free":
        return cosine_polynomial({0: 0.0})
    if family == "amo":
        if "coupling" not in spec:
            raise ConfigError("amo potential needs a 'coupling' field")
        return amo_potential(_typed("potential.coupling", spec["coupling"],
                                    float))
    if family == "ck":
        for field in ("epsilon", "k", "modes"):
            if field not in spec:
                raise ConfigError(f"ck potential needs a '{field}' field")
        eps, k, modes = _ck_spec(spec)
        if eps <= 0:
            raise ConfigError("ck potential needs epsilon > 0")
        return cosine_polynomial({n: eps * float(n) ** (-k) for n in modes})
    if family == "cosine":
        if "terms" not in spec:
            raise ConfigError("cosine potential needs a 'terms' field")
        if not isinstance(spec["terms"], dict):
            raise ConfigError("potential.terms must be an object")
        terms = {}
        for key, amp in spec["terms"].items():
            parts = _mode_key("potential.terms", key)
            terms[parts if len(parts) > 1 else parts[0]] = _typed(
                f"potential.terms.{key}", amp, float)
        return cosine_polynomial(
            terms, dim=_typed("potential.dim", spec.get("dim", 1), int))
    raise ConfigError(f"unknown potential family '{family}'")


def build_frequency(spec):
    if not isinstance(spec, dict) or "components" not in spec:
        raise ConfigError("frequency section needs a 'components' field")
    comps = tuple(_typed("frequency.components", x, float)
                  for x in _listed("frequency.components",
                                   spec["components"]))
    gamma = _typed("frequency.gamma", spec.get("gamma", 0.1), float)
    tau = _typed("frequency.tau", spec.get("tau", 1.5), float)
    cutoff = _typed("frequency.cutoff", spec.get("cutoff", 60), int)
    if gamma <= 0 or tau <= 0 or cutoff < 1:
        raise ConfigError("frequency gamma, tau, cutoff must be positive")
    return diophantine_check(comps, gamma=gamma, tau=tau, cutoff=cutoff)


def _typed(name: str, val, kind):
    """kind(val), or a ConfigError naming the section-qualified field."""
    try:
        return kind(val)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(
            f"{name} must be {kind.__name__}, got {val!r}") from exc


def _listed(name: str, val) -> list:
    if not isinstance(val, list):
        raise ConfigError(f"{name} must be a list, got {val!r}")
    return val


def _mode_key(name: str, key) -> tuple:
    """Integer mode vector from a "n" or "n1,n2" key."""
    return tuple(_typed(name, tok, int) for tok in str(key).split(","))


def _ck_spec(spec: dict):
    """(epsilon, k, modes) of a ck potential section, typed."""
    return (_typed("potential.epsilon", spec["epsilon"], float),
            _typed("potential.k", spec["k"], int),
            [_typed("potential.modes", n, int)
             for n in _listed("potential.modes", spec["modes"])])


def numerics_of(cfg: dict) -> dict:
    """Numerics with defaults filled in, each field converted to its type."""
    out = json.loads(json.dumps(_DEFAULT_NUMERICS))
    user = cfg.get("numerics", {})
    if not isinstance(user, dict):
        raise ConfigError("numerics section must be an object")
    for key, val in user.items():
        if key == "energy":
            if not isinstance(val, dict):
                raise ConfigError("numerics.energy must be an object")
            out["energy"].update(val)
        else:
            out[key] = val
    if out["min_gap_length"] is None:
        out["min_gap_length"] = 2.0 * _typed("numerics.resolution",
                                             out["resolution"], float)
    for key, kind in _NUMERICS_TYPES.items():
        out[key] = _typed(f"numerics.{key}", out[key], kind)
    grid = out["energy"]
    for key, kind in _ENERGY_TYPES.items():
        grid[key] = _typed(f"numerics.energy.{key}", grid[key], kind)
    if not isinstance(out["homog_eps"], list):
        raise ConfigError("numerics.homog_eps must be a list")
    out["homog_eps"] = [_typed("numerics.homog_eps", e, float)
                        for e in out["homog_eps"]]

    if out["L"] < 100:
        raise ConfigError("numerics.L must be at least 100")
    if out["phases"] < 1:
        raise ConfigError("numerics.phases must be positive")
    if out["resolution"] <= 0:
        raise ConfigError("numerics.resolution must be positive")
    if out["label_tol"] <= 0:
        raise ConfigError("numerics.label_tol must be positive")
    if out["M_max"] < 1:
        raise ConfigError("numerics.M_max must be at least 1")
    # the half-orbit error estimate divides by n // 2
    if out["rotation_iterations"] < 2:
        raise ConfigError("numerics.rotation_iterations must be at least 2")
    if any(e <= 0 for e in out["homog_eps"]):
        raise ConfigError("numerics.homog_eps must be positive")
    degenerate = grid["min"] == grid["max"] and grid["points"] == 1
    if not degenerate and (grid["min"] >= grid["max"] or grid["points"] < 1):
        raise ConfigError("numerics.energy grid must be sorted and nonempty")
    return out


def energy_grid(num: dict) -> np.ndarray:
    grid = num["energy"]
    return np.linspace(grid["min"], grid["max"], grid["points"])


# ---------------------------------------------------------------------------
# emitters


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return _FLOAT_FMT % float(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (tuple, list, np.ndarray)):
        return ";".join(_cell(v) for v in value)
    return str(value)


def emit_rows(rows, columns, out_dir: Path, stem: str, fmt: str) -> str:
    name = f"{stem}.{fmt}"
    path = out_dir / name
    if fmt == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(_cell(row.get(col)) for col in columns))
        path.write_text("\n".join(lines) + "\n")
    else:
        path.write_text(json.dumps(_jsonable(rows), sort_keys=True,
                                   indent=2) + "\n")
    return name


def config_digest(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def write_manifest(out_dir: Path, command: str, cfg: dict, outputs,
                   wall_times: dict, summary=None) -> str:
    name = f"{command}_manifest.json"
    body = {
        "command": command,
        "config_digest": config_digest(cfg),
        "version": __version__,
        "outputs": sorted(outputs),
        "wall_times": {k: round(float(v), 6) for k, v in wall_times.items()},
    }
    if summary is not None:
        body["summary"] = _jsonable(summary)
    (out_dir / name).write_text(json.dumps(body, sort_keys=True, indent=2)
                                + "\n")
    return name


# ---------------------------------------------------------------------------
# shared pipeline stages


def _scan_and_label(V, freq, num):
    scan = spectrum_scan(V, freq, num["L"], num["phases"], num["resolution"])
    records, boundary = detect_gaps(
        scan, lambda E: ids(V, freq, float(E), num["L"], num["phases"]),
        num["min_gap_length"])
    labelled = label_all(records, freq, num["M_max"], num["label_tol"])
    return scan, labelled, boundary


def _gap_rows(labelled):
    return [{
        "m": rec.m,
        "E_minus": rec.E_minus,
        "E_plus": rec.E_plus,
        "length": rec.length,
        "N_plateau": rec.N_plateau,
        "label_defect": rec.label_defect,
    } for rec in labelled]


_GAP_COLUMNS = ["m", "E_minus", "E_plus", "length", "N_plateau",
                "label_defect"]


# ---------------------------------------------------------------------------
# subcommands


def cmd_ids(cfg, V, freq, num, out_dir, fmt):
    curve = ids_curve(V, freq, energy_grid(num), num["L"], num["phases"])
    rows = [{"E": float(e), "N": float(n)}
            for e, n in zip(curve.energies, curve.values)]
    return [emit_rows(rows, ["E", "N"], out_dir, "ids", fmt)], None


def cmd_scan(cfg, V, freq, num, out_dir, fmt):
    scan = spectrum_scan(V, freq, num["L"], num["phases"], num["resolution"])
    rows = [{"E_lo": a, "E_hi": b} for a, b in scan]
    return [emit_rows(rows, ["E_lo", "E_hi"], out_dir, "scan", fmt)], {
        "intervals": len(rows)}


def cmd_gaps(cfg, V, freq, num, out_dir, fmt):
    _, labelled, boundary = _scan_and_label(V, freq, num)
    rows = _gap_rows(labelled)
    name = emit_rows(rows, _GAP_COLUMNS, out_dir, "gaps", fmt)
    return [name], {"gaps": len(rows), "boundary": list(boundary)}


def cmd_decay(cfg, V, freq, num, out_dir, fmt):
    spec = cfg["potential"]
    if spec.get("family") != "ck":
        raise ConfigError("decay command needs the 'ck' potential family")
    eps, k, modes = _ck_spec(spec)
    unit_profile = cosine_polynomial({n: float(n) ** (-k) for n in modes})
    c_norm = ck_norm(unit_profile, k).upper
    _, labelled, _ = _scan_and_label(V, freq, num)
    report = decay_profile([g for g in labelled if g.abs_label() <= k],
                           eps * c_norm, k)
    name = emit_rows(report["rows"],
                     ["m", "abs_m", "length", "bound", "pass"],
                     out_dir, "decay", fmt)
    summary = {"all_pass": report["all_pass"],
               "log_slope": report["log_slope"],
               "eps": eps, "k": k, "c_norm_upper": c_norm,
               "effective_eps": eps * c_norm}
    return [name], summary


def cmd_homog(cfg, V, freq, num, out_dir, fmt):
    scan = spectrum_scan(V, freq, num["L"], num["phases"], num["resolution"])
    profile = homogeneity_profile(scan, np.asarray(num["homog_eps"]),
                                  num["homog_samples"])
    rows = [{"eps": float(e), "mu": float(m), "attaining_E": float(a)}
            for e, m, a in zip(profile.eps, profile.mu, profile.attaining_E)]
    name = emit_rows(rows, ["eps", "mu", "attaining_E"], out_dir, "homog",
                     fmt)
    return [name], {"min_mu": profile.min_mu()}


def cmd_rotation(cfg, V, freq, num, out_dir, fmt):
    energies = energy_grid(num)
    rho, err = schrodinger_rotation_grid(
        V, freq, energies, n_iters=num["rotation_iterations"])
    rows = [{"E": float(e), "rho": float(r), "error": float(x),
             "N_dual": 1.0 - 2.0 * float(r)}
            for e, r, x in zip(energies, rho, err)]
    name = emit_rows(rows, ["E", "rho", "error", "N_dual"], out_dir,
                     "rotation", fmt)
    return [name], None


def cmd_kam(cfg, V, freq, num, out_dir, fmt):
    spec = cfg.get("kam")
    if not isinstance(spec, dict):
        raise ConfigError("kam command needs a 'kam' config section")
    if "rho0" not in spec:
        raise ConfigError("kam section needs a 'rho0' field")
    A = rotation(_typed("kam.rho0", spec["rho0"], float))
    pert = spec.get("perturbation")
    if not isinstance(pert, dict):
        raise ConfigError("kam section needs a 'perturbation' object")
    if "terms" in pert:
        f = _explicit_sl2_series(pert["terms"], freq.dim)
    else:
        for field in ("scale", "radius", "seed"):
            if field not in pert:
                raise ConfigError(f"kam perturbation needs a '{field}' field")
        f = kam.seeded_sl2_series(
            _typed("kam.perturbation.scale", pert["scale"], float),
            _typed("kam.perturbation.radius", pert["radius"], int),
            _typed("kam.perturbation.seed", pert["seed"], int),
            dim=freq.dim)
    state = kam.almost_reducibility_run(
        A, f, freq,
        M=_typed("kam.M", spec.get("M", 10), int),
        sigma=_typed("kam.sigma", spec.get("sigma", 0.1), float),
        stop_tol=_typed("kam.stop_tol", spec.get("stop_tol", 1e-12), float),
        max_steps=_typed("kam.max_steps", spec.get("max_steps", 12), int),
        residual_tol=_typed("kam.residual_tol",
                            spec.get("residual_tol", 1e-7), float))
    columns = ["step", "kind", "norm_before", "norm_after", "rho",
               "window", "threshold", "band", "n_star", "inner_passes",
               "residual", "bch_defect"]
    rows = []
    for i, row in enumerate(state.ledger):
        full = {"step": i}
        full.update(row)
        rows.append(full)
    name = emit_rows(rows, columns, out_dir, "kam", fmt)
    summary = {"final_norm": state.norm(),
               "degree": list(state.deg_accum),
               "steps": len(rows),
               "residual": state.residual(),
               "conjugacy_norm": state.conjugacy_norm()}
    return [name], summary


def _explicit_sl2_series(terms, dim: int) -> FourierSeries:
    coeffs = {}
    radius = 0
    if not isinstance(terms, dict) or not terms:
        raise ConfigError("kam.perturbation.terms must be a nonempty object")
    for key, entries in terms.items():
        parts = _mode_key("kam.perturbation.terms", key)
        if len(parts) != dim:
            raise ConfigError(f"kam.perturbation.terms key {key!r} needs "
                              f"{dim} components, one per frequency")
        try:
            mat = np.asarray(entries, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigError("perturbation terms must be 2x2 matrices") \
                from exc
        if mat.shape != (2, 2):
            raise ConfigError("perturbation terms must be 2x2 matrices")
        coeffs[parts] = mat.astype(complex)
        radius = max(radius, max(abs(x) for x in parts))
    return FourierSeries(dim, radius, coeffs, 1).symmetrized()


def _load_gap_inventory(path: Path):
    if not path.is_file():
        raise StaleArtifactError(f"gap inventory not found: {path}")
    try:
        return _read_gap_inventory(path)
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise StaleArtifactError(
            f"gap inventory {path} is unreadable: {exc!r}") from exc


def _read_gap_inventory(path: Path):
    if path.suffix == ".json":
        rows = json.loads(path.read_text())
        return [(tuple(int(x) for x in np.atleast_1d(r["m"])),
                 float(r["E_minus"]), float(r["E_plus"]), float(r["length"]))
                for r in rows]
    out = []
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    idx = {col: j for j, col in enumerate(header)}
    for line in lines[1:]:
        cells = line.split(",")
        m = tuple(int(tok) for tok in cells[idx["m"]].split(";"))
        out.append((m, float(cells[idx["E_minus"]]),
                    float(cells[idx["E_plus"]]),
                    float(cells[idx["length"]])))
    return out


def cmd_edge(cfg, V, freq, num, out_dir, fmt):
    spec = cfg.get("edge")
    if not isinstance(spec, dict):
        raise ConfigError("edge command needs an 'edge' config section")
    for field in ("gaps_file", "label"):
        if field not in spec:
            raise ConfigError(f"edge section needs a '{field}' field")
    label = tuple(_typed("edge.label", x, int)
                  for x in np.atleast_1d(spec["label"]))
    inventory = _load_gap_inventory(Path(spec["gaps_file"]))
    match = [row for row in inventory if row[0] == label]
    if not match:
        raise StaleArtifactError(
            f"gap label {label} not present in {spec['gaps_file']}")
    _, e_minus, e_plus, coarse_length = match[0]

    # re-resolve both edges: the inventory carries scan-cell estimates,
    # and the parabolic gate needs the edge to window accuracy
    window = max(_typed("edge.edge_tol", spec.get("edge_tol", 1e-6), float),
                 4.0 / num["L"])
    gap = GapRecord(label, e_minus, e_plus, e_plus - e_minus, 0.0, None)
    refined = refine_gap_edges(V, freq, gap, num["L"], window, num["phases"])
    if refined.length == 0.0:
        raise StaleArtifactError(
            f"gap {label} from {spec['gaps_file']} vanished on "
            "re-measurement; the inventory is stale")
    step = kam.gap_edge_step(V, freq, label, refined.E_plus, window,
                             delta=_typed("edge.delta", spec.get("delta", 0.0),
                                          float) or None)
    mp, bound = step["mp"], step["bound"]
    row = {
        "m": label,
        "E_plus": refined.E_plus,
        "zeta": step["zeta"],
        "delta": step["delta"],
        "delta1": bound["delta1"],
        "predicted_gap_upper": bound["predicted_gap_upper"],
        "measured_length": refined.length,
        "coarse_length": coarse_length,
        "d_lin": mp.d_lin,
        "d_quad": mp.d_quad,
        "hypotheses_failed": ";".join(bound["failed"]),
    }
    name = emit_rows([row], list(row.keys()), out_dir, "edge", fmt)
    return [name], {"ratio": (bound["predicted_gap_upper"] / refined.length
                              if refined.length > 0 else None)}


_COMMANDS = {
    "ids": cmd_ids,
    "scan": cmd_scan,
    "gaps": cmd_gaps,
    "decay": cmd_decay,
    "homog": cmd_homog,
    "rotation": cmd_rotation,
    "kam": cmd_kam,
    "edge": cmd_edge,
}


# ---------------------------------------------------------------------------
# entry point


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qpspec",
        description="spectral pipeline for quasi-periodic Schrodinger "
                    "operators")
    p.add_argument("command", choices=sorted(_COMMANDS))
    p.add_argument("--config", required=True, help="path to the JSON config")
    p.add_argument("--format", choices=("csv", "json"), default=None,
                   help="output format (overrides the config)")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--threads", type=int, default=0,
                   help="accepted for compatibility; qpspec runs "
                        "single-threaded, so it never affects values")
    p.add_argument("--seed", type=int, default=None,
                   help="reserved; affects nothing numeric")
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        t0 = time.perf_counter()
        cfg = load_config(args.config)
        output_cfg = cfg.get("output", {})
        fmt = args.format or output_cfg.get("format", "csv")
        if fmt not in ("csv", "json"):
            raise ConfigError(f"unknown output format '{fmt}'")
        out_dir = Path(args.out or output_cfg.get("dir", "."))
        out_dir.mkdir(parents=True, exist_ok=True)
        V = build_potential(cfg["potential"])
        freq = build_frequency(cfg["frequency"])
        num = numerics_of(cfg)
        t1 = time.perf_counter()
        outputs, summary = _COMMANDS[args.command](cfg, V, freq, num,
                                                   out_dir, fmt)
        t2 = time.perf_counter()
        manifest = write_manifest(out_dir, args.command, cfg,
                                  outputs, {"load": t1 - t0,
                                            "compute": t2 - t1},
                                  summary)
        print(f"{args.command}: wrote {', '.join(outputs)} and {manifest} "
              f"in {out_dir}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DiophantineRejection as exc:
        print(f"frequency rejected: {exc}", file=sys.stderr)
        return 3
    except StaleArtifactError as exc:
        print(f"stale artifact: {exc}", file=sys.stderr)
        return 4
    except (DivergenceError, ReductionError) as exc:
        print(f"reduction failed: {exc}", file=sys.stderr)
        return 5
    except LabelError as exc:
        print(f"gap labelling failed: {exc}", file=sys.stderr)
        return 6


if __name__ == "__main__":
    sys.exit(main())
