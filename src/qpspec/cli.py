"""Command-line front end for the spectral pipeline.

Every subcommand reads one structured JSON config, runs its module
pipeline deterministically, writes plot-ready CSV or JSON rows, and
records a manifest with the config digest and the output inventory.
Wall-times live only in the manifest; the data files depend on nothing
but the config.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
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
    EdgeSearchError,
    LabelError,
    QpspecError,
    SizeError,
    StaleArtifactError,
    StepSizeError,
)
from .gaps import (
    GapRecord,
    confirm_gap,
    decay_profile,
    detect_gaps,
    homogeneity_profile,
    label_all,
)
from .mat2 import rotation
from .qpcore import (
    FourierSeries,
    amo_potential,
    array_elements,
    ball_rows,
    ck_norm,
    ck_potential,
    cosine_polynomial,
    diophantine_check,
)
from .rotnum import schrodinger_rotation_grid
from .spectrum import TruncatedOperator, ids_curve, spectrum_scan

_FLOAT_FMT = "%.17g"
_ROWS_PER_WRITE = 4096

# every numerics field as (type, default); a nested table is a subsection.
# min_gap_length defaults to twice the resolution
_NUMERICS = {
    "L": (int, 3000),
    "phases": (int, 8),
    "resolution": (float, 2e-3),
    "energy": {"min": (float, -2.5), "max": (float, 2.5),
               "points": (int, 201)},
    "min_gap_length": (float, None),
    "M_max": (int, 20),
    "label_tol": (float, 1e-3),
    "rotation_iterations": (int, 20000),
    "homog_eps": ([float], [1e-3, 3e-3, 1e-2, 3e-2, 1e-1]),
    "homog_samples": (int, 200),
}
# run options of the kam section; unset ones keep the engine's defaults
_KAM_OPTION_TYPES = {"M": int, "sigma": float, "stop_tol": float,
                     "max_steps": int, "residual_tol": float}
# lower bound of a field as (bound, whether the bound itself is admitted)
_LOWER_BOUNDS = {
    "numerics.L": (100, True),
    "numerics.phases": (1, True),
    "numerics.resolution": (0.0, False),
    "numerics.label_tol": (0.0, False),
    "numerics.M_max": (1, True),
    # the half-orbit error estimate divides by n // 2
    "numerics.rotation_iterations": (2, True),
    "numerics.homog_eps": (0.0, False),
    "numerics.homog_samples": (0, True),
    "kam.M": (1, True),
    # the run stops once the perturbation norm is at most stop_tol
    "kam.stop_tol": (0.0, True),
    "kam.max_steps": (1, True),
    "kam.residual_tol": (0.0, False),
    # 0 (the default) lets the edge step pick delta inside its guard
    "edge.delta": (0.0, True),
}
_REQUIRED = object()


# ---------------------------------------------------------------------------
# config loading and validation


def load_config(path) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        cfg = _object("config", json.loads(p.read_text(encoding="utf-8"),
                                           object_pairs_hook=_unique_keys))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    for name in ("potential", "frequency"):
        _field(cfg, "", name, dict)
    return cfg


def _unique_keys(pairs: list) -> dict:
    """The object's pairs as a dict, or a ConfigError naming a repeated
    key (plain json silently keeps the last value)."""
    keys = [key for key, _ in pairs]
    if len(set(keys)) < len(keys):
        key = next(k for k in keys if keys.count(k) > 1)
        raise ConfigError(f"config repeats the key {key!r} in one object")
    return dict(pairs)


def _object(name: str, val) -> dict:
    if not isinstance(val, dict):
        raise ConfigError(f"{name} section must be an object, got {val!r}")
    return val


def _typed(name: str, val, kind):
    """kind(val), finite if a float, or a ConfigError naming the field.

    A one-element list [t] is a list of t; str admits only strings, int
    and float admit no bool, and int admits only an integral number.
    """
    if isinstance(kind, list):
        if not isinstance(val, list):
            raise ConfigError(f"{name} must be a list, got {val!r}")
        return [_typed(name, x, kind[0]) for x in val]
    try:
        if kind is str and not isinstance(val, str) or isinstance(val, bool):
            raise TypeError(val)
        out = kind(val)
        if kind is int and isinstance(val, float) and out != val:
            raise ValueError(val)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(
            f"{name} must be {kind.__name__}, got {val!r}") from exc
    if kind is float and not math.isfinite(out):
        raise ConfigError(f"{name} must be a finite float, got {val!r}")
    return out


def _field(spec: dict, section: str, name: str, kind,
           default=_REQUIRED):
    """spec[name] converted by _typed (an object if kind is dict), or
    default when absent.

    section is the dotted path of spec ("" for the config root).  A
    ConfigError names section and field when the field is required and
    absent, or below its _LOWER_BOUNDS entry.
    """
    path = f"{section}.{name}".lstrip(".")
    if name not in spec:
        if default is _REQUIRED:
            raise ConfigError(f"{section or 'config'} needs a '{name}' field")
        return default
    if kind is dict:
        return _object(path, spec[name])
    val = _typed(path, spec[name], kind)
    if path in _LOWER_BOUNDS:
        bound, closed = _LOWER_BOUNDS[path]
        for x in val if isinstance(val, list) else [val]:
            if x < bound or x == bound and not closed:
                raise ConfigError(f"{path} must be {'>=' if closed else '>'}"
                                  f" {bound}, got {x!r}")
    return val


def _fields(spec: dict, section: str, table: dict) -> dict:
    """Every field of table read from spec; a nested table is a subsection."""
    return {name: _fields(_field(spec, section, name, dict, {}),
                          f"{section}.{name}", entry)
            if isinstance(entry, dict) else _field(spec, section, name, *entry)
            for name, entry in table.items()}


def _admitted(section: str, build, *args, **kwargs):
    """build(*args, **kwargs); the ValueError of a library constructor
    that rejects a value becomes a ConfigError naming the section."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def build_potential(spec) -> FourierSeries:
    spec = _object("potential", spec)
    family = _field(spec, "potential", "family", str)
    if family == "free":
        return cosine_polynomial({0: 0.0})
    if family == "amo":
        return amo_potential(_field(spec, "potential", "coupling", float))
    if family == "ck":
        return _admitted("potential", ck_potential, *_ck_spec(spec))
    if family == "cosine":
        return _admitted("potential", cosine_polynomial,
                         _mode_table(spec, "potential", "terms", float),
                         dim=_field(spec, "potential", "dim", int, 1))
    raise ConfigError(f"unknown potential family '{family}'")


def build_frequency(spec):
    spec = _object("frequency", spec)
    return _admitted(
        "frequency", diophantine_check,
        _field(spec, "frequency", "components", [float]),
        gamma=_field(spec, "frequency", "gamma", float, 0.1),
        tau=_field(spec, "frequency", "tau", float, 1.5),
        cutoff=_field(spec, "frequency", "cutoff", int, 60))


def _mode_table(spec: dict, section: str, name: str, kind=None) -> dict:
    """spec[name] keyed by the mode vectors of its "n" or "n1,n2" keys, each
    value _typed when kind is given; two keys for one mode: ConfigError."""
    path = f"{section}.{name}"
    table = {}
    for key, val in _field(spec, section, name, dict).items():
        mode = tuple(_typed(path, tok, int) for tok in key.split(","))
        if mode in table:
            raise ConfigError(f"{path}: key {key!r} repeats the mode "
                              f"{list(mode)}")
        table[mode] = val if kind is None else _typed(f"{path}.{key}", val,
                                                      kind)
    return table


def _ck_spec(spec: dict):
    """(epsilon, k, modes) of a ck potential section, typed."""
    return (_field(spec, "potential", "epsilon", float),
            _field(spec, "potential", "k", int),
            _field(spec, "potential", "modes", [int]))


def numerics_of(cfg: dict) -> dict:
    """Numerics with defaults filled in, each field converted to its type."""
    out = _fields(_field(cfg, "", "numerics", dict, {}), "numerics",
                  _NUMERICS)
    if out["min_gap_length"] is None:
        out["min_gap_length"] = 2.0 * out["resolution"]
    if not out["homog_eps"]:
        raise ConfigError("numerics.homog_eps must be a nonempty list")
    grid = out["energy"]
    degenerate = grid["min"] == grid["max"] and grid["points"] == 1
    if not degenerate and (grid["min"] >= grid["max"] or grid["points"] < 1):
        raise ConfigError("numerics.energy grid must be sorted and nonempty")
    # the fields that are array lengths, before anything runs; sizes that
    # follow from the other fields are checked where they are derived
    for name, count in (("energy.points", grid["points"]),
                        ("rotation_iterations", out["rotation_iterations"]),
                        ("homog_samples", out["homog_samples"])):
        array_elements(f"numerics.{name}", count)
    return out


def energy_grid(num: dict) -> np.ndarray:
    grid = num["energy"]
    return np.linspace(grid["min"], grid["max"], grid["points"])


# ---------------------------------------------------------------------------
# emitters


def _json_default(obj):
    """json's hook for what it cannot encode: numpy scalars and arrays."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


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


def emit_rows(names, columns, out_dir: Path, stem: str, fmt: str) -> str:
    """Write out_dir/stem.fmt from one column per name, _ROWS_PER_WRITE rows
    at a time: the CSV lines through _cell, or the bytes of json.dumps(rows,
    sort_keys=True, indent=2) + "\\n" for rows keyed by name.

    The rows go to a partial file beside it, which replaces out_dir/stem.fmt
    only once every row is written; on any error it is removed, and an
    earlier out_dir/stem.fmt stays as it was."""
    n_rows = len(columns[0]) if len(columns) else 0
    if len(columns) != len(names) or any(len(c) != n_rows for c in columns):
        raise ValueError(f"{stem}: one column of one length per name")
    encoder = json.JSONEncoder(sort_keys=True, indent=2, default=_json_default)
    name = f"{stem}.{fmt}"
    partial = out_dir / f"{name}.partial"
    try:
        with open(partial, "w") as fh:
            fh.write(",".join(names) + "\n" if fmt == "csv" else "[")
            for at in range(0, n_rows, _ROWS_PER_WRITE):
                parts = [c[at:at + _ROWS_PER_WRITE] for c in columns]
                rows = zip(*(p.tolist() if isinstance(p, np.ndarray) else p
                             for p in parts))
                if fmt == "csv":
                    fh.writelines(",".join(map(_cell, r)) + "\n"
                                  for r in rows)
                else:  # the chunk's items, spliced inside one pair of brackets
                    text = encoder.encode([dict(zip(names, r)) for r in rows])
                    fh.write(("," if at else "") + text[1:-2])
            fh.write("" if fmt == "csv" else "\n]\n" if n_rows else "]\n")
        partial.replace(out_dir / name)
    finally:  # no partial file left after a replace; after an error, drop it
        partial.unlink(missing_ok=True)
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
        body["summary"] = summary
    (out_dir / name).write_text(json.dumps(body, sort_keys=True, indent=2,
                                           default=_json_default) + "\n")
    return name


# ---------------------------------------------------------------------------
# shared pipeline stages


def _scan_digest(V, freq, num) -> str:
    """sha256 over every admitted value that decides the scan intervals."""
    coeffs = [[n, [c.real, c.imag]] for n, c
              in zip(V.modes.tolist(), V.values.tolist())]
    return config_digest({
        "potential": [V.dim, V.radius, V.period, coeffs],
        "frequency": freq.vec.tolist(),
        "L": num["L"], "phases": num["phases"],
        "resolution": num["resolution"],
        "version": __version__,
    })


def _stored_scan(out_dir: Path, digest: str):
    """Intervals of the scan recorded in out_dir, or None.

    They are read back only when the scan manifest carries this digest and
    the data file still hashes as the manifest recorded; %.17g and JSON
    floats round-trip, so they equal the intervals the scan computed.
    """
    try:
        manifest = json.loads((out_dir / "scan_manifest.json").read_text())
        summary = manifest["summary"]
        name, = manifest["outputs"]
        if (summary["spectral_digest"] != digest
                or name not in ("scan.csv", "scan.json")):
            return None
        data = (out_dir / name).read_bytes()
        if hashlib.sha256(data).hexdigest() != summary["scan_sha256"]:
            return None
        rows = _parse_rows(data.decode(), Path(name).suffix)
        return [(float(r["E_lo"]), float(r["E_hi"])) for r in rows]
    except (OSError, LookupError, TypeError, ValueError):
        return None


def _scan_intervals(V, freq, num, out_dir: Path, operator=None):
    """Scan intervals, reused from out_dir when current, and their provenance
    for the manifest summary.  A computed scan counts on operator, the
    sampled truncation, when the caller passes it.  A scan with no
    interval is a ConfigError: no command can work on it."""
    digest = _scan_digest(V, freq, num)
    scan = _stored_scan(out_dir, digest)
    source = "reused"
    if scan is None:
        scan = spectrum_scan(V, freq, num["L"], num["phases"],
                             num["resolution"], operator=operator)
        source = "computed"
    if not scan:
        # a cell counts only when every phase puts an eigenvalue in it
        raise ConfigError(
            f"numerics: the scan at L={num['L']}, phases={num['phases']} "
            f"and resolution={num['resolution']:g} finds no spectrum; "
            "raise L or coarsen the resolution")
    return scan, {"scan": source, "spectral_digest": digest}


def _scan_and_label(V, freq, num, out_dir: Path):
    # one sampled truncation serves the scan and the plateau recount
    H = TruncatedOperator.sampled(V, freq, num["L"], num["phases"])
    scan, provenance = _scan_intervals(V, freq, num, out_dir, operator=H)
    records, boundary = detect_gaps(scan, H.ids, num["min_gap_length"])
    labelled = label_all(records, freq, num["M_max"], num["label_tol"])
    return labelled, boundary, provenance


# ---------------------------------------------------------------------------
# subcommands


def cmd_ids(cfg, V, freq, num, out_dir, fmt):
    curve = ids_curve(V, freq, energy_grid(num), num["L"], num["phases"])
    return [emit_rows(["E", "N"], [curve.energies, curve.values], out_dir,
                      "ids", fmt)], None


def cmd_scan(cfg, V, freq, num, out_dir, fmt):
    scan, provenance = _scan_intervals(V, freq, num, out_dir)
    name = emit_rows(["E_lo", "E_hi"], np.reshape(scan, (-1, 2)).T, out_dir,
                     "scan", fmt)
    sha = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
    return [name], {"intervals": len(scan), "scan_sha256": sha,
                    **provenance}


def cmd_gaps(cfg, V, freq, num, out_dir, fmt):
    labelled, boundary, provenance = _scan_and_label(V, freq, num, out_dir)
    names = [f.name for f in dataclasses.fields(GapRecord)]
    name = emit_rows(names, _columns(labelled, names), out_dir, "gaps", fmt)
    return [name], {"gaps": len(labelled), "boundary": list(boundary),
                    **provenance}


def cmd_decay(cfg, V, freq, num, out_dir, fmt):
    spec = cfg["potential"]
    if spec.get("family") != "ck":
        raise ConfigError("decay command needs the 'ck' potential family")
    eps, k, modes = _ck_spec(spec)
    # the C^k norm sums over the multi-index ball of radius k
    c_norm = _admitted("potential.k", ck_norm, ck_potential(1.0, k, modes), k)
    labelled, _, provenance = _scan_and_label(V, freq, num, out_dir)
    report = decay_profile([g for g in labelled if g.abs_label() <= k],
                           eps * c_norm, k)
    names = ["m", "abs_m", "length", "bound", "pass"]
    name = emit_rows(names, _columns(report["rows"], names, dict.__getitem__),
                     out_dir, "decay", fmt)
    summary = {"all_pass": report["all_pass"],
               "log_slope": report["log_slope"],
               "eps": eps, "k": k, "c_norm_upper": c_norm,
               "effective_eps": eps * c_norm, **provenance}
    return [name], summary


def cmd_homog(cfg, V, freq, num, out_dir, fmt):
    scan, provenance = _scan_intervals(V, freq, num, out_dir)
    try:
        profile = homogeneity_profile(scan, np.asarray(num["homog_eps"]),
                                      num["homog_samples"])
    except ValueError as exc:
        # every eps must lie below the diameter of this scan
        raise ConfigError(f"numerics.homog_eps: {exc}") from exc
    name = emit_rows(["eps", "mu", "attaining_E"],
                     [profile.eps, profile.mu, profile.attaining_E],
                     out_dir, "homog", fmt)
    return [name], {"min_mu": profile.min_mu(), **provenance}


def cmd_rotation(cfg, V, freq, num, out_dir, fmt):
    energies = energy_grid(num)
    rho, err = schrodinger_rotation_grid(
        V, freq, energies, n_iters=num["rotation_iterations"])
    name = emit_rows(["E", "rho", "error", "N_dual"],
                     [energies, rho, err, 1.0 - 2.0 * rho], out_dir,
                     "rotation", fmt)
    summary = {"iterations": num["rotation_iterations"],
               "max_error": float(err.max())}
    return [name], summary


def _columns(records, names, get=getattr) -> list:
    """One column per name: get(record, name) of every record."""
    return [[get(rec, name) for rec in records] for name in names]


def _emit_ledger(ledger, out_dir, fmt):
    names = [f.name for f in dataclasses.fields(kam.LedgerStep)]
    return emit_rows(names, _columns(ledger, names), out_dir, "kam", fmt)


def cmd_kam(cfg, V, freq, num, out_dir, fmt):
    spec = _field(cfg, "", "kam", dict)
    A = rotation(_field(spec, "kam", "rho0", float))
    pert = _field(spec, "kam", "perturbation", dict)
    if "terms" in pert:
        section = "kam.perturbation.terms"
        f = _admitted(section, kam.explicit_sl2_series,
                      _mode_table(pert, "kam.perturbation", "terms"),
                      dim=freq.dim)
    else:
        section = "kam.perturbation"
        f = _admitted(section, kam.seeded_sl2_series,
                      _field(pert, "kam.perturbation", "scale", float),
                      _field(pert, "kam.perturbation", "radius", int),
                      _field(pert, "kam.perturbation", "seed", int),
                      dim=freq.dim)
    options = {key: _field(spec, "kam", key, kind)
               for key, kind in _KAM_OPTION_TYPES.items() if key in spec}
    try:
        state = kam.almost_reducibility_run(A, f, freq, **options)
    except SizeError as exc:
        # the run's series outgrow the cap from the perturbation's radius
        raise ConfigError(f"{section}: {exc}") from exc
    except DivergenceError as exc:
        # the steps taken before the scheme stopped contracting
        _emit_ledger(exc.ledger, out_dir, fmt)
        raise
    name = _emit_ledger(state.ledger, out_dir, fmt)
    summary = {"final_norm": state.norm(),
               "degree": list(state.deg_accum),
               "steps": len(state.ledger),
               "residual": state.residual(),
               "conjugacy_norm": state.conjugacy_norm()}
    return [name], summary


def _load_gap_inventory(path: Path):
    if not path.is_file():
        raise StaleArtifactError(f"gap inventory not found: {path}")
    try:
        return _read_gap_inventory(path)
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise StaleArtifactError(
            f"gap inventory {path} is unreadable: {exc!r}") from exc


def _parse_rows(text: str, suffix: str) -> list:
    """Rows of an emitted data file: JSON objects, or CSV cells by header."""
    if suffix == ".json":
        return json.loads(text)
    lines = text.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _read_gap_inventory(path: Path):
    rows = []
    for r in _parse_rows(path.read_text(), path.suffix):
        m = r["m"].split(";") if isinstance(r["m"], str) else r["m"]
        row = (tuple(int(x) for x in np.atleast_1d(m)), float(r["E_minus"]),
               float(r["E_plus"]), float(r["length"]))
        if not all(map(math.isfinite, row[1:])):
            raise ValueError(f"gap {row[0]} has a non-finite entry")
        if row[1] > row[2]:
            raise ValueError(f"gap {row[0]} has E_minus > E_plus")
        rows.append(row)
    return rows


def cmd_edge(cfg, V, freq, num, out_dir, fmt):
    spec = _field(cfg, "", "edge", dict)
    gaps_file = _field(spec, "edge", "gaps_file", str)
    label = tuple(_field(spec, "edge", "label", [int]))
    if len(label) != freq.dim:
        raise ConfigError(f"edge.label {list(label)} needs {freq.dim} "
                          "components, one per frequency")
    delta = _field(spec, "edge", "delta", float, 0.0)
    # edge_tol only floors the window: the width of the re-check's
    # windows and how far into the gap the reduction runs
    window = max(_field(spec, "edge", "edge_tol", float, 1e-6), 4.0 / num["L"])
    inventory = _load_gap_inventory(Path(gaps_file))
    match = [row for row in inventory if row[0] == label]
    if not match:
        raise StaleArtifactError(
            f"gap label {label} not present in {gaps_file}")
    if len(match) > 1:
        raise StaleArtifactError(
            f"gap label {label} is listed {len(match)} times in {gaps_file}")
    (_, e_minus, e_plus, coarse_length), = match

    # the inventory's edges are scan cells; one Sturm pass checks that
    # they still bound a gap of this truncation before the reduction
    try:
        confirm_gap(V, freq, e_minus, e_plus, num["L"], window,
                    num["phases"])
    except EdgeSearchError as exc:
        raise StaleArtifactError(
            f"gap {label} from {gaps_file} could not be re-found on "
            f"re-measurement ({exc}); the inventory is stale") from exc
    length = e_plus - e_minus
    try:
        step = kam.gap_edge_step(V, freq, label, e_plus, window,
                                 delta=delta or None)
    except StepSizeError as exc:
        raise ConfigError(f"edge.delta: {exc}") from exc
    mp, bound = step["mp"], step["bound"]
    names, values = zip(
        ("m", label),
        ("E_plus", e_plus),
        ("zeta", step["zeta"]),
        ("delta", step["delta"]),
        ("delta1", bound["delta1"]),
        ("predicted_gap_upper", bound["predicted_gap_upper"]),
        ("measured_length", length),
        ("coarse_length", coarse_length),
        ("d_lin", mp.d_lin),
        ("d_quad", mp.d_quad),
        ("hypotheses_failed", ";".join(bound["failed"])))
    name = emit_rows(names, [[v] for v in values], out_dir, "edge", fmt)
    return [name], {"ratio": bound["predicted_gap_upper"] / length}


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
    return p


def _output_of(cfg: dict, args):
    """(format, created output directory); the flags override the config."""
    section = _field(cfg, "", "output", dict, {})
    fmt = args.format or _field(section, "output", "format", str, "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown output format '{fmt}'")
    out_dir = Path(args.out or _field(section, "output", "dir", str, "."))
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {out_dir} cannot be created: "
                          f"{exc.strerror}") from exc
    return fmt, out_dir


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        t0 = time.perf_counter()
        cfg = load_config(args.config)
        fmt, out_dir = _output_of(cfg, args)
        V = build_potential(cfg["potential"])
        freq = build_frequency(cfg["frequency"])
        # kam reads no potential; every other command samples V along freq
        if args.command != "kam" and V.dim != freq.dim:
            raise ConfigError(f"potential dim {V.dim} differs from the "
                              f"frequency dimension {freq.dim}")
        num = numerics_of(cfg)
        # gap labels search the ball |m| <= M_max in the frequency's dim
        _admitted("numerics.M_max", ball_rows, freq.dim, num["M_max"])
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
    except (ConfigError, SizeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DiophantineRejection as exc:
        print(f"frequency rejected: {exc}", file=sys.stderr)
        return 3
    except StaleArtifactError as exc:
        print(f"stale artifact: {exc}", file=sys.stderr)
        return 4
    except LabelError as exc:
        print(f"gap labelling failed: {exc}", file=sys.stderr)
        return 6
    except QpspecError as exc:
        # every other engine failure: divergence, reduction, resonance
        # isolation, the divisor floor, a logarithm or degree off its domain
        print(f"reduction failed: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
