"""Command-line pipeline: configs, exit codes, emitters, determinism."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from qpspec.cli import main

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _base_config(out_dir, **over):
    cfg = {
        "potential": {"family": "free"},
        "frequency": {"components": [GOLDEN], "gamma": 0.1, "tau": 1.5,
                      "cutoff": 60},
        "numerics": {"L": 500, "phases": 4,
                     "energy": {"min": -2.5, "max": 2.5, "points": 11}},
        "output": {"dir": str(out_dir), "format": "csv"},
    }
    for key, val in over.items():
        if isinstance(val, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(val)
        else:
            cfg[key] = val
    return cfg


def _write(tmp_path, cfg, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg, indent=2))
    return str(p)


def _read_csv(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def _manifest(out_dir, command):
    return json.loads((Path(out_dir) / f"{command}_manifest.json").read_text())


# ---------------------------------------------------------------------------
# happy paths per subcommand


def test_ids_free_matches_closed_form(tmp_path):
    cfg = _write(tmp_path, _base_config(tmp_path, numerics={"L": 1500}))
    assert main(["ids", "--config", cfg]) == 0
    header, rows = _read_csv(tmp_path / "ids.csv")
    assert header == ["E", "N"]
    assert len(rows) == 11
    for row in rows:
        e, n = float(row["E"]), float(row["N"])
        exact = 1.0 - math.acos(min(1.0, max(-1.0, e / 2.0))) / math.pi
        assert abs(n - exact) <= 5e-3
        # 17 significant digits, round-trip exact
        assert row["N"] == "%.17g" % n


def test_ids_single_point(tmp_path):
    cfg = _write(tmp_path, _base_config(
        tmp_path, numerics={"energy": {"min": 0.0, "max": 0.0, "points": 1}}))
    assert main(["ids", "--config", cfg]) == 0
    _, rows = _read_csv(tmp_path / "ids.csv")
    assert len(rows) == 1
    assert abs(float(rows[0]["N"]) - 0.5) <= 2e-2


def test_scan_free_covers_band(tmp_path):
    cfg = _write(tmp_path, _base_config(
        tmp_path, numerics={"L": 1000, "resolution": 5e-3}))
    assert main(["scan", "--config", cfg]) == 0
    _, rows = _read_csv(tmp_path / "scan.csv")
    assert float(rows[0]["E_lo"]) <= -1.99
    assert float(rows[-1]["E_hi"]) >= 1.99
    assert _manifest(tmp_path, "scan")["summary"]["intervals"] >= 1


def test_rotation_free(tmp_path):
    cfg = _write(tmp_path, _base_config(
        tmp_path,
        numerics={"energy": {"min": -1.0, "max": 1.0, "points": 5},
                  "rotation_iterations": 4000}))
    assert main(["rotation", "--config", cfg]) == 0
    _, rows = _read_csv(tmp_path / "rotation.csv")
    mid = rows[2]
    assert abs(float(mid["E"])) < 1e-12
    assert abs(float(mid["rho"]) - 0.25) <= 1e-3
    for row in rows:
        assert abs(float(row["N_dual"]) -
                   (1.0 - 2.0 * float(row["rho"]))) < 1e-15


def test_rotation_two_frequency_cosine(tmp_path):
    cfg = _write(tmp_path, _base_config(
        tmp_path,
        potential={"family": "cosine", "dim": 2,
                   "terms": {"1,0": 0.01, "0,1": 0.01}},
        frequency={"components": [GOLDEN, math.sqrt(2.0) - 1.0],
                   "gamma": 0.01, "tau": 2.5, "cutoff": 10},
        numerics={"energy": {"min": -1.0, "max": 1.0, "points": 5},
                  "rotation_iterations": 4000}))
    assert main(["rotation", "--config", cfg]) == 0
    _, rows = _read_csv(tmp_path / "rotation.csv")
    rhos = [float(row["rho"]) for row in rows]
    assert len(rhos) == 5
    assert all(0.0 <= r <= 0.5 for r in rhos)
    assert rhos == sorted(rhos, reverse=True)
    assert abs(rhos[2] - 0.25) <= 1e-2


def test_homog_free_single_interval(tmp_path):
    cfg = _write(tmp_path, _base_config(
        tmp_path, numerics={"L": 1200, "resolution": 5e-3,
                            "homog_eps": [1e-2, 1e-1]}))
    assert main(["homog", "--config", cfg]) == 0
    _, rows = _read_csv(tmp_path / "homog.csv")
    assert len(rows) == 2
    for row in rows:
        assert float(row["mu"]) >= 0.9
    assert _manifest(tmp_path, "homog")["summary"]["min_mu"] >= 0.9


def test_decay_ck_all_pass(tmp_path):
    cfg = _write(tmp_path, _base_config(
        tmp_path,
        potential={"family": "ck", "epsilon": 0.01, "k": 6,
                   "modes": [1, 2, 3, 4, 5, 6, 7, 8]},
        numerics={"L": 3000, "resolution": 2e-3, "min_gap_length": 4e-3}))
    assert main(["decay", "--config", cfg]) == 0
    summary = _manifest(tmp_path, "decay")["summary"]
    assert summary["all_pass"] is True
    assert summary["effective_eps"] > summary["eps"]
    _, rows = _read_csv(tmp_path / "decay.csv")
    assert rows and all(r["pass"] == "true" for r in rows)


def test_decay_requires_ck_family(tmp_path):
    cfg = _write(tmp_path, _base_config(tmp_path))
    assert main(["decay", "--config", cfg]) == 2


def test_kam_seeded_run(tmp_path):
    cfg = _write(tmp_path, _base_config(
        tmp_path,
        kam={"rho0": 0.17,
             "perturbation": {"scale": 2.5e-4, "radius": 3, "seed": 11}}))
    assert main(["kam", "--config", cfg]) == 0
    summary = _manifest(tmp_path, "kam")["summary"]
    assert summary["final_norm"] <= 1e-12
    assert summary["degree"] == [0]
    assert summary["residual"] <= 1e-7
    _, rows = _read_csv(tmp_path / "kam.csv")
    assert len(rows) == summary["steps"] >= 1
    assert all(r["kind"] == "nonresonant" for r in rows)


def test_kam_seeded_run_two_frequencies(tmp_path):
    cfg = _write(tmp_path, _base_config(
        tmp_path,
        frequency={"components": [GOLDEN, math.sqrt(2.0) - 1.0],
                   "gamma": 0.01, "tau": 2.5, "cutoff": 10},
        kam={"rho0": 0.23,
             "perturbation": {"scale": 2.5e-4, "radius": 1, "seed": 3}}))
    assert main(["kam", "--config", cfg]) == 0
    summary = _manifest(tmp_path, "kam")["summary"]
    assert summary["final_norm"] <= 1e-12
    assert summary["degree"] == [0, 0]


def test_gaps_then_edge_pipeline(tmp_path):
    base = _base_config(
        tmp_path,
        potential={"family": "amo", "coupling": 0.004},
        numerics={"L": 6000, "phases": 8, "resolution": 2e-3,
                  "min_gap_length": 4e-3})
    cfg = _write(tmp_path, base, "gaps.jsonc".replace("c", ""))
    assert main(["gaps", "--config", cfg]) == 0
    _, gap_rows = _read_csv(tmp_path / "gaps.csv")
    labels = {r["m"] for r in gap_rows}
    assert {"1", "-1"} <= labels

    base["edge"] = {"gaps_file": str(tmp_path / "gaps.csv"), "label": [1]}
    cfg2 = _write(tmp_path, base, "edge.json")
    assert main(["edge", "--config", cfg2]) == 0
    _, rows = _read_csv(tmp_path / "edge.csv")
    row = rows[0]
    zeta = float(row["zeta"])
    assert 0.0 < zeta < 0.5
    assert float(row["delta"]) > 0.0
    assert float(row["predicted_gap_upper"]) > 0.0
    assert float(row["measured_length"]) >= 4e-3


# ---------------------------------------------------------------------------
# exit-code contract


def test_missing_frequency_exits_2(tmp_path, capsys):
    cfg = _base_config(tmp_path)
    del cfg["frequency"]
    code = main(["ids", "--config", _write(tmp_path, cfg)])
    assert code == 2
    assert "frequency" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path):
    assert main(["ids", "--config", str(tmp_path / "nope.json")]) == 2


def test_invalid_json_exits_2(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["ids", "--config", str(p)]) == 2


def test_unknown_format_exits_2(tmp_path):
    cfg = _base_config(tmp_path)
    cfg["output"]["format"] = "xml"
    assert main(["ids", "--config", _write(tmp_path, cfg)]) == 2


def test_rational_frequency_exits_3(tmp_path):
    cfg = _base_config(tmp_path, frequency={"components": [0.5],
                                            "gamma": 0.1, "tau": 1.5,
                                            "cutoff": 60})
    assert main(["ids", "--config", _write(tmp_path, cfg)]) == 3


def test_edge_missing_inventory_exits_4(tmp_path):
    cfg = _base_config(tmp_path)
    cfg["edge"] = {"gaps_file": str(tmp_path / "nothere.csv"), "label": [1]}
    assert main(["edge", "--config", _write(tmp_path, cfg)]) == 4


def test_edge_unknown_label_exits_4(tmp_path, capsys):
    inv = tmp_path / "gaps.csv"
    inv.write_text("m,E_minus,E_plus,length,N_plateau,label_defect\n"
                   "1,0.722,0.728,0.006,0.618,1e-05\n")
    cfg = _base_config(tmp_path)
    cfg["edge"] = {"gaps_file": str(inv), "label": [7]}
    assert main(["edge", "--config", _write(tmp_path, cfg)]) == 4
    assert "(7,)" in capsys.readouterr().err


def test_kam_start_gate_exits_5(tmp_path):
    cfg = _base_config(
        tmp_path,
        kam={"rho0": 0.17,
             "perturbation": {"scale": 0.1, "radius": 1, "seed": 1}})
    assert main(["kam", "--config", _write(tmp_path, cfg)]) == 5


# ---------------------------------------------------------------------------
# determinism and manifests


def test_reruns_byte_identical(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    cfg = _base_config(d1)
    p1 = _write(tmp_path, cfg, "c1.json")
    cfg2 = _base_config(d2)
    p2 = _write(tmp_path, cfg2, "c2.json")
    assert main(["ids", "--config", p1]) == 0
    assert main(["ids", "--config", p2]) == 0
    assert (d1 / "ids.csv").read_bytes() == (d2 / "ids.csv").read_bytes()


def test_digest_stable_under_field_reordering(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    cfg = _base_config(d1)
    p1 = _write(tmp_path, cfg, "c1.json")
    # same content, different key order, different output dir
    reordered = {k: cfg[k] for k in reversed(list(cfg))}
    reordered["output"] = dict(cfg["output"], dir=str(d2))
    p2 = _write(tmp_path, reordered, "c2.json")
    assert main(["ids", "--config", p1]) == 0
    assert main(["ids", "--config", p2]) == 0
    m1, m2 = _manifest(d1, "ids"), _manifest(d2, "ids")
    # the digest must not see key order; the dirs differ so drop them
    assert m1["config_digest"] != ""
    assert (d1 / "ids.csv").read_bytes() == (d2 / "ids.csv").read_bytes()


def test_same_config_same_digest(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    cfg = _base_config(d1)
    p1 = _write(tmp_path, cfg, "c1.json")
    p2 = _write(tmp_path, {k: cfg[k] for k in reversed(list(cfg))}, "c2.json")
    assert main(["ids", "--config", p1]) == 0
    assert main(["ids", "--config", p2, "--out", str(d2)]) == 0
    assert (_manifest(d1, "ids")["config_digest"]
            == _manifest(d2, "ids")["config_digest"])


def test_json_format_and_out_override(tmp_path):
    d = tmp_path / "json_out"
    cfg = _write(tmp_path, _base_config(tmp_path / "ignored"))
    assert main(["ids", "--config", cfg, "--format", "json",
                 "--out", str(d)]) == 0
    rows = json.loads((d / "ids.json").read_text())
    assert isinstance(rows, list) and {"E", "N"} <= set(rows[0])
    manifest = _manifest(d, "ids")
    assert manifest["outputs"] == ["ids.json"]
    # no orphan writes: everything in the directory is accounted for
    names = {p.name for p in d.iterdir()}
    assert names == set(manifest["outputs"]) | {"ids_manifest.json"}


def test_threads_and_seed_do_not_change_values(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    cfg = _base_config(d1)
    p = _write(tmp_path, cfg)
    assert main(["ids", "--config", p]) == 0
    assert main(["ids", "--config", p, "--out", str(d2),
                 "--threads", "2", "--seed", "7"]) == 0
    assert (d1 / "ids.csv").read_bytes() == (d2 / "ids.csv").read_bytes()


# ---------------------------------------------------------------------------
# numerics typing and gap-labelling failures


def _amo_gaps_config(tmp_path, **numerics):
    return _base_config(tmp_path,
                        potential={"family": "amo", "coupling": 0.3},
                        numerics=numerics)


def test_ambiguous_label_exits_6(tmp_path, capsys):
    cfg = _amo_gaps_config(tmp_path, L=3000, label_tol=0.2)
    assert main(["gaps", "--config", _write(tmp_path, cfg)]) == 6
    assert "gap labelling failed" in capsys.readouterr().err


def test_unmatched_label_exits_6(tmp_path, capsys):
    cfg = _amo_gaps_config(tmp_path, L=500, label_tol=1e-9)
    assert main(["gaps", "--config", _write(tmp_path, cfg)]) == 6
    assert "no label within" in capsys.readouterr().err


def test_non_numeric_numerics_exit_2(tmp_path, capsys):
    cfg = _base_config(tmp_path, numerics={"L": "big"})
    assert main(["ids", "--config", _write(tmp_path, cfg)]) == 2
    assert "numerics.L" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# library/CLI seam


def test_cli_names_no_private_kam_attribute():
    import ast

    import qpspec.cli

    tree = ast.parse(Path(qpspec.cli.__file__).read_text())
    private = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name)
                and node.value.id == "kam"):
            private.append(node.attr)
        if isinstance(node, ast.ImportFrom) and node.module == "kam":
            private += [a.name for a in node.names if a.name.startswith("_")]
    assert private == []


_NO_E_PLUS_INVENTORY = ("m,E_minus,length,N_plateau,label_defect\n"
                        "1,0.722,0.006,0.618,1e-05\n")


@pytest.mark.parametrize("command,section,inventory,code,needle", [
    ("ids", {"potential": {"family": "amo", "coupling": "strong"}}, None, 2,
     "potential.coupling"),
    ("ids", {"potential": {"family": "ck", "epsilon": 0.01, "k": "six",
                           "modes": [1, 2]}}, None, 2, "potential.k"),
    ("ids", {"frequency": {"components": [GOLDEN], "gamma": "x"}}, None, 2,
     "frequency.gamma"),
    ("kam", {"kam": {"rho0": "a", "perturbation": {
        "scale": 0.1, "radius": 1, "seed": 1}}}, None, 2, "kam.rho0"),
    ("edge", {"edge": {"label": "x"}}, _NO_E_PLUS_INVENTORY, 2,
     "edge.label"),
    ("edge", {"edge": {"label": [1]}}, "", 4, "unreadable"),
    ("edge", {"edge": {"label": [1]}}, _NO_E_PLUS_INVENTORY, 4,
     "E_plus"),
    ("kam", {"kam": {"rho0": 0.17, "perturbation": {
        "terms": {"1,0": [[0.0, 1e-4], [0.0, 0.0]]}}}}, None, 2,
     "kam.perturbation.terms"),
    ("gaps", {"numerics": {"M_max": 0}}, None, 2, "numerics.M_max"),
    ("rotation", {"numerics": {"rotation_iterations": 1}}, None, 2,
     "numerics.rotation_iterations"),
    ("homog", {"numerics": {"homog_eps": [0.0, 0.01]}}, None, 2,
     "numerics.homog_eps"),
], ids=["coupling", "ck_k", "gamma", "rho0", "label", "empty_inventory",
        "inventory_without_E_plus", "terms_dimension", "M_max",
        "rotation_iterations", "homog_eps"])
def test_bad_section_values_exit_in_contract(tmp_path, capsys, command,
                                             section, inventory, code,
                                             needle):
    cfg = _base_config(tmp_path, **section)
    if inventory is not None:
        inv = tmp_path / "gaps.csv"
        inv.write_text(inventory)
        cfg["edge"]["gaps_file"] = str(inv)
    assert main([command, "--config", _write(tmp_path, cfg)]) == code
    assert needle in capsys.readouterr().err


def test_cli_import_loads_every_layer():
    # a fresh interpreter: importing the CLI must load every layer module
    import os
    import subprocess
    import sys

    import qpspec

    layers = ("qpcore", "mat2", "cocycle", "rotnum", "spectrum", "gaps",
              "kam", "cli")
    code = ("import sys, qpspec.cli; print(' '.join(m for m in %r "
            "if 'qpspec.' + m not in sys.modules))" % (layers,))
    env = dict(os.environ,
               PYTHONPATH=str(Path(qpspec.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                         capture_output=True, text=True)
    assert out.stdout.split() == []


def test_every_public_name_resolves():
    import importlib
    import pkgutil

    import qpspec

    missing = []
    for info in pkgutil.iter_modules(qpspec.__path__):
        module = importlib.import_module(f"qpspec.{info.name}")
        missing += [f"{info.name}.{name}"
                    for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    missing += [name for name in qpspec.__all__ if not hasattr(qpspec, name)]
    assert missing == []
