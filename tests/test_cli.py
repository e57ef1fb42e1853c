"""Command-line pipeline: configs, exit codes, emitters, determinism."""

import dataclasses
import json
import math
import os
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
        if type(val) is dict and isinstance(cfg.get(key), dict):
            cfg[key].update(val)
        else:
            cfg[key] = val
    return cfg


class _Pairs(dict):
    """A JSON object written pair by pair, so it can repeat a key."""

    def __init__(self, *pairs):
        super().__init__(pairs)
        self.pairs = pairs

    def items(self):
        return self.pairs


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


def test_rotation_manifest_figures(tmp_path):
    # the manifest reports the orbit length and the largest half-orbit
    # error; rotation.csv keeps its four columns
    cfg = _write(tmp_path, _base_config(
        tmp_path,
        numerics={"energy": {"min": -2.5, "max": 2.5, "points": 7},
                  "rotation_iterations": 3001}))
    assert main(["rotation", "--config", cfg]) == 0
    header, rows = _read_csv(tmp_path / "rotation.csv")
    assert header == ["E", "rho", "error", "N_dual"]
    summary = _manifest(tmp_path, "rotation")["summary"]
    assert summary["iterations"] == 3001
    assert summary["max_error"] == max(float(r["error"]) for r in rows)
    assert summary["max_error"] > 0.0


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


def test_kam_explicit_terms_run(tmp_path):
    terms = {"1": [[1e-4, 2e-4], [-3e-4, -1e-4]],
             "2": [[0.0, 5e-5], [5e-5, 0.0]]}
    cfg = _write(tmp_path, _base_config(
        tmp_path, kam={"rho0": 0.17, "perturbation": {"terms": terms}}))
    assert main(["kam", "--config", cfg]) == 0
    summary = _manifest(tmp_path, "kam")["summary"]
    assert summary["final_norm"] == 0.0
    assert summary["degree"] == [0]
    assert summary["residual"] <= 1e-9
    _, rows = _read_csv(tmp_path / "kam.csv")
    assert len(rows) == summary["steps"] == 2
    assert all(r["kind"] == "nonresonant" for r in rows)


def _strict_json(text):
    """json.loads that refuses NaN and the infinities, as strict parsers do."""
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("rho0,n_star", [(0.19198300562505261, -1),
                                         (0.3100169943749474, 1)],
                         ids=["n_star_minus", "n_star_plus"])
def test_kam_resonant_run_writes_no_nan(tmp_path, rho0, n_star):
    # 2 rho0 lies within 1e-3 of -+alpha mod 1: step 0 is the resonant
    # step at n* = -+1; step 1 is non-resonant
    terms = {"1": [[1e-3, 2e-3], [5e-4, -1e-3]]}
    for fmt in ("csv", "json"):
        out = tmp_path / fmt
        cfg = _write(tmp_path, _base_config(
            out, kam={"rho0": rho0, "perturbation": {"terms": terms}},
            output={"dir": str(out), "format": fmt}), f"{fmt}.json")
        assert main(["kam", "--config", cfg]) == 0
        if fmt == "csv":
            _, rows = _read_csv(out / "kam.csv")
            cells = {cell.lower() for row in rows for cell in row.values()}
            assert not cells & {"nan", "inf", "-inf"}
            assert rows[0]["n_star"] == str(n_star)
        else:
            rows = _strict_json((out / "kam.json").read_text())
            assert rows[0]["n_star"] == [n_star]
        assert [r["kind"] for r in rows] == ["resonant", "nonresonant"]
        # the resonant step's conjugation identity holds on its grid
        assert float(rows[0]["residual"]) <= 1e-7


@pytest.mark.parametrize("mode,steps", [("20", 4), ("50", 3)])
def test_kam_reduces_through_a_clockwise_constant(tmp_path, mode, steps):
    # the first resonant step leaves a clockwise constant, near R_{-1/2};
    # the next one twists it at -n* instead of stopping at exit 5
    terms = {mode: [[1e-3, 2e-3], [5e-4, -1e-3]]}
    cfg = _write(tmp_path, _base_config(
        tmp_path, kam={"rho0": 0.17, "perturbation": {"terms": terms}}))
    assert main(["kam", "--config", cfg]) == 0
    _, rows = _read_csv(tmp_path / "kam.csv")
    assert len(rows) == steps
    assert [r["kind"] for r in rows][-2:] == ["resonant", "resonant"]
    assert all(float(r["residual"]) <= 1e-7 for r in rows)
    assert _manifest(tmp_path, "kam")["summary"]["final_norm"] <= 1e-11


def test_kam_json_rows_carry_the_csv_columns(tmp_path):
    # one schema for both formats: every JSON row has exactly the CSV
    # header's keys, on a run with a resonant and a non-resonant step
    terms = {"1": [[1e-3, 2e-3], [5e-4, -1e-3]]}
    for fmt in ("csv", "json"):
        cfg = _write(tmp_path, _base_config(
            tmp_path, kam={"rho0": 0.19198300562505261,
                           "perturbation": {"terms": terms}}),
            f"{fmt}.json")
        assert main(["kam", "--config", cfg, "--format", fmt]) == 0
    header, _ = _read_csv(tmp_path / "kam.csv")
    rows = json.loads((tmp_path / "kam.json").read_text())
    assert [r["kind"] for r in rows] == ["resonant", "nonresonant"]
    assert [sorted(r) for r in rows] == [sorted(header)] * len(rows)
    assert [r["step"] for r in rows] == list(range(len(rows)))


def test_cmd_kam_names_no_ledger_column():
    import ast
    import dataclasses
    import inspect

    import qpspec.cli
    from qpspec.kam import LedgerStep

    # kam.LedgerStep alone spells out the kam.csv columns; the manifest
    # summary's keys are not columns
    columns = {f.name for f in dataclasses.fields(LedgerStep)}
    tree = ast.parse(inspect.getsource(qpspec.cli.cmd_kam))
    keys = {id(k) for node in ast.walk(tree) if isinstance(node, ast.Dict)
            for k in node.keys}
    named = {node.value for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and id(node) not in keys
             and node.value in columns}
    assert named == set()


def test_readme_lists_the_kam_columns():
    import re

    from qpspec.kam import LedgerStep

    # the README's kam.csv column list is the LedgerStep field list
    text = " ".join((Path(__file__).parent.parent / "README.md")
                    .read_text().split())
    listed = re.search(r"whose fields in order are the columns \(([^)]*)\)",
                       text)
    assert listed is not None
    assert (re.findall(r"`(\w+)`", listed.group(1))
            == [f.name for f in dataclasses.fields(LedgerStep)])


def test_kam_engine_defaults_match_the_spelled_out_options(tmp_path):
    # unset run options fall back to almost_reducibility_run's defaults
    pert = {"scale": 2.5e-4, "radius": 3, "seed": 11}
    spelled = {"rho0": 0.17, "perturbation": pert, "M": 10, "sigma": 0.1,
               "stop_tol": 1e-12, "max_steps": 12, "residual_tol": 1e-7}
    texts = []
    for name, section in (("bare", {"rho0": 0.17, "perturbation": pert}),
                          ("spelled", spelled)):
        out = tmp_path / name
        cfg = _write(tmp_path, _base_config(out, kam=section), f"{name}.json")
        assert main(["kam", "--config", cfg]) == 0
        texts.append((out / "kam.csv").read_text())
    assert texts[0] == texts[1]


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


def test_gaps_then_edge_pipeline(tmp_path, capsys, monkeypatch):
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
    from qpspec import spectrum

    passes = []
    kernel = spectrum._pivot_counts

    def counted(diags, energies):
        passes.append(len(energies))
        return kernel(diags, energies)

    with monkeypatch.context() as m:
        m.setattr(spectrum, "_pivot_counts", counted)
        assert main(["edge", "--config", cfg2]) == 0
    # the inventory's edges are re-checked in one Sturm pass and written
    # as they are
    assert len(passes) == 1
    _, rows = _read_csv(tmp_path / "edge.csv")
    row = rows[0]
    gap = next(r for r in gap_rows if r["m"] == "1")
    assert float(row["E_plus"]).hex() == float(gap["E_plus"]).hex()
    assert float(row["measured_length"]).hex() == \
        float(gap["length"]).hex()
    zeta = float(row["zeta"])
    assert 0.0 < zeta < 0.5
    assert float(row["delta"]) > 0.0
    assert float(row["predicted_gap_upper"]) > 0.0
    assert float(row["measured_length"]) >= 4e-3

    # a step size beyond the contraction guard is a config error, not a
    # traceback, and it leaves the earlier edge.csv in place
    base["edge"]["delta"] = 1.0
    before = (tmp_path / "edge.csv").read_text()
    capsys.readouterr()
    assert main(["edge", "--config", _write(tmp_path, base, "big.json")]) == 2
    assert "edge.delta" in capsys.readouterr().err
    assert (tmp_path / "edge.csv").read_text() == before


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


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    # one 0xff byte inside a string of an otherwise valid config
    text = json.dumps(_base_config(tmp_path, note="@"))
    p = tmp_path / "latin.json"
    p.write_bytes(text.encode().replace(b"@", b"\xff"))
    assert main(["ids", "--config", str(p)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


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


def test_edge_duplicate_label_exits_4(tmp_path, capsys):
    # an inventory that lists the label twice does not say which gap is
    # meant; that is a stale inventory, not a silent choice
    inv = tmp_path / "gaps.csv"
    # the first row alone is a gap that edge accepts at this config
    inv.write_text("m,E_minus,E_plus,length,N_plateau,label_defect\n"
                   "1,0.722,0.728,0.006,0.618,3e-05\n"
                   "1,-0.728,-0.722,0.006,0.382,3e-05\n")
    cfg = _base_config(tmp_path,
                       potential={"family": "amo", "coupling": 0.004},
                       numerics={"L": 2000, "phases": 8})
    cfg["edge"] = {"gaps_file": str(inv), "label": [1]}
    assert main(["edge", "--config", _write(tmp_path, cfg)]) == 4
    assert "(1,) is listed 2 times" in capsys.readouterr().err
    assert not (tmp_path / "edge.csv").exists()


def test_edge_json_inventory_rows_are_checked(tmp_path, capsys):
    inv = tmp_path / "gaps.json"
    row = {"m": [1], "E_minus": 0.722, "E_plus": 0.728, "length": 0.006}
    cfg = _base_config(tmp_path)
    cfg["edge"] = {"gaps_file": str(inv), "label": [7]}
    inv.write_text(json.dumps([row]))
    assert main(["edge", "--config", _write(tmp_path, cfg)]) == 4
    assert "(7,)" in capsys.readouterr().err
    inv.write_text(json.dumps([dict(row, E_minus=0.73)]))
    assert main(["edge", "--config", _write(tmp_path, cfg)]) == 4
    assert "unreadable" in capsys.readouterr().err


def test_edge_that_cannot_be_refound_exits_4(tmp_path, capsys):
    # at AMO coupling 3 this inventory edge has no spectrum in the eight
    # windows below it; that is a stale inventory, not a traceback
    inv = tmp_path / "gaps.csv"
    inv.write_text("m,E_minus,E_plus,length,N_plateau,label_defect\n"
                   "2,-2.88,-2.59,0.29,0.236,6e-05\n")
    cfg = _base_config(tmp_path,
                       potential={"family": "amo", "coupling": 3.0},
                       numerics={"L": 1000, "phases": 4, "resolution": 5e-3})
    cfg["edge"] = {"gaps_file": str(inv), "label": [2]}
    assert main(["edge", "--config", _write(tmp_path, cfg)]) == 4
    err = capsys.readouterr().err
    assert "(2,)" in err and "no spectrum found near -2.880000" in err


def test_kam_start_gate_exits_5(tmp_path):
    cfg = _base_config(
        tmp_path,
        kam={"rho0": 0.17,
             "perturbation": {"scale": 0.1, "radius": 1, "seed": 1}})
    assert main(["kam", "--config", _write(tmp_path, cfg)]) == 5


def test_kam_divergence_writes_the_partial_ledger(tmp_path, monkeypatch,
                                                 capsys):
    # a run that stops contracting still records the steps it took
    from qpspec import kam
    from qpspec.errors import DivergenceError

    ledger = [kam.LedgerStep(k, "nonresonant", 1e-4 * (k + 1),
                             2e-4 * (k + 1), 0.17, 8, 1e-3, 4, None, 1,
                             1e-14) for k in range(2)]

    def diverge(*args, **kwargs):
        raise DivergenceError("perturbation stopped contracting",
                              ledger=ledger)

    monkeypatch.setattr(kam, "almost_reducibility_run", diverge)
    cfg = _base_config(tmp_path, kam={"rho0": 0.17, "perturbation": {
        "scale": 1e-6, "radius": 2, "seed": 1}})
    assert main(["kam", "--config", _write(tmp_path, cfg)]) == 5
    err = capsys.readouterr().err
    assert err.startswith("reduction failed: perturbation stopped")
    header, rows = _read_csv(tmp_path / "kam.csv")
    assert header == [f.name for f in dataclasses.fields(kam.LedgerStep)]
    assert [r["step"] for r in rows] == ["0", "1"]
    assert [float(r["norm_after"]) for r in rows] == [2e-4, 4e-4]
    assert rows[0]["n_star"] == "" and rows[1]["n_star"] == ""
    assert not (tmp_path / "kam_manifest.json").exists()


# 89/144 passes the default Diophantine scan (cutoff 60); a wide band
# then meets the rational's near-resonances
@pytest.mark.parametrize("rho0,needle", [
    (0.3090277777777778, "two resonant sites (-143,) and (1,)"),
    (0.17, "homological divisor under the safety floor")],
    ids=["resonance_isolation", "divisor_floor"])
def test_kam_engine_failures_exit_5(tmp_path, capsys, rho0, needle):
    cfg = _base_config(
        tmp_path, frequency={"components": [0.6180555555555556]},
        kam={"rho0": rho0, "M": 1000,
             "perturbation": {"scale": 1e-7, "radius": 150, "seed": 1}})
    assert main(["kam", "--config", _write(tmp_path, cfg)]) == 5
    err = capsys.readouterr().err
    assert err.startswith("reduction failed: ") and needle in err
    assert "Traceback" not in err


def _error_types(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _error_types(sub)


# placeholder arguments by parameter name; any other one gets a message
_ERROR_ARGS = {"n": (1,), "distance": 0.0, "required": 1.0, "divisor": 0.0}


def test_every_error_type_exits_in_contract(tmp_path, monkeypatch, capsys):
    import inspect

    import qpspec.cli
    from qpspec.errors import QpspecError

    # a command that raises any toolkit error ends in an exit code of the
    # contract, never in a traceback
    types = sorted(set(_error_types(QpspecError)), key=lambda t: t.__name__)
    assert len(types) >= 14
    cfg = _write(tmp_path, _base_config(tmp_path))
    for err_type in types:
        params = list(inspect.signature(err_type.__init__).parameters
                      .values())[1:]
        args = [_ERROR_ARGS.get(p.name, "placeholder") for p in params
                if p.default is p.empty
                and p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]

        def stub(*_, exc=err_type(*args)):
            raise exc

        monkeypatch.setitem(qpspec.cli._COMMANDS, "ids", stub)
        code = main(["ids", "--config", cfg])
        assert 2 <= code <= 6, (err_type.__name__, code)
        assert "Traceback" not in capsys.readouterr().err


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


def test_rotation_reruns_byte_identical(tmp_path):
    cfg = _base_config(tmp_path, potential={"family": "cosine",
                                            "terms": {"1": 0.6}},
                       numerics={"rotation_iterations": 10001})
    for d in ("a", "b"):
        assert main(["rotation", "--config", _write(tmp_path, cfg),
                     "--out", str(tmp_path / d)]) == 0
    assert ((tmp_path / "a" / "rotation.csv").read_bytes()
            == (tmp_path / "b" / "rotation.csv").read_bytes())


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


def test_json_rows_encode_numpy_values_as_plain_json(tmp_path):
    from qpspec.cli import emit_rows

    row = {"flag": np.bool_(True), "count": np.int64(7),
           "x": np.float64(0.1), "m": (1, -2),
           "grid": np.array([[0.5, -1.0], [2.0, 3.25]]), "none": None}
    assert emit_rows(list(row), [[v] for v in row.values()], tmp_path,
                     "rows", "json") == "rows.json"
    assert (tmp_path / "rows.json").read_text() == (
        '[\n  {\n    "count": 7,\n    "flag": true,\n'
        '    "grid": [\n      [\n        0.5,\n        -1.0\n      ],\n'
        '      [\n        2.0,\n        3.25\n      ]\n    ],\n'
        '    "m": [\n      1,\n      -2\n    ],\n    "none": null,\n'
        '    "x": 0.1\n  }\n]\n')
    with pytest.raises(TypeError, match="complex"):
        emit_rows(["z"], [[1j]], tmp_path, "bad", "json")


class _Unwritable:
    """A cell that neither the CSV nor the JSON writer can encode."""

    def __str__(self):
        raise TypeError("unwritable cell")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_failed_rewrite_keeps_the_earlier_file(tmp_path, monkeypatch, fmt):
    # the bad cell sits in the third chunk, after two have been written;
    # the earlier file stays byte for byte and no partial file is left
    import qpspec.cli
    from qpspec.cli import emit_rows

    monkeypatch.setattr(qpspec.cli, "_ROWS_PER_WRITE", 2)
    name = emit_rows(["E"], [np.arange(7.0)], tmp_path, "ids", fmt)
    before = (tmp_path / name).read_bytes()
    bad = [0.5, 1.5, 2.5, 3.5, _Unwritable(), 5.5]
    with pytest.raises(TypeError, match="unwritable|not JSON"):
        emit_rows(["E"], [bad], tmp_path, "ids", fmt)
    assert (tmp_path / name).read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [name]


def _emit_row_dicts(rows, columns, out_dir, stem, fmt):
    """The row-dict writer that emit_rows replaced, kept as its reference:
    one dict per row, every CSV line or the whole JSON text in memory."""
    from qpspec.cli import _cell, _json_default

    name = f"{stem}.{fmt}"
    path = out_dir / name
    if fmt == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(_cell(row.get(col)) for col in columns))
        path.write_text("\n".join(lines) + "\n")
    else:
        path.write_text(json.dumps(rows, sort_keys=True, indent=2,
                                   default=_json_default) + "\n")
    return name


def _mixed_table(n):
    """n rows of every kind of cell the commands write, as columns."""
    rng = np.random.default_rng(n)
    kinds = [None, True, np.bool_(False), np.int64(-3), np.float32(0.1),
             "a;b", (1, -2), np.array([[0.5, -1.0], [2.0, 3.25]])]
    return {
        "E": rng.standard_normal(n),
        "count": np.arange(n),
        "flag": np.arange(n) % 3 == 0,
        "pair": np.arange(2.0 * n).reshape(n, 2) / 3.0,
        "mixed": [kinds[i % len(kinds)] for i in range(n)],
        "m": [tuple(range(-(i % 3), 1)) for i in range(n)],
        "x": [np.float64(1.0 / (i + 1)) for i in range(n)],
    }


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n,per_write", [(0, 4096), (1, 4096), (13, 4096),
                                         (13, 5), (12, 4), (9000, 4096)])
def test_emit_rows_matches_the_row_dict_writer(tmp_path, monkeypatch, fmt,
                                               n, per_write):
    import qpspec.cli
    from qpspec.cli import emit_rows

    monkeypatch.setattr(qpspec.cli, "_ROWS_PER_WRITE", per_write)
    table = _mixed_table(n)
    names = list(table)
    rows = [dict(zip(names, row)) for row in zip(*table.values())]
    ref = _emit_row_dicts(rows, names, tmp_path, "ref", fmt)
    got = emit_rows(names, list(table.values()), tmp_path, "got", fmt)
    assert got == f"got.{fmt}"
    assert (tmp_path / got).read_bytes() == (tmp_path / ref).read_bytes()


def test_emit_rows_rejects_columns_of_unequal_length(tmp_path):
    from qpspec.cli import emit_rows

    with pytest.raises(ValueError, match="one length"):
        emit_rows(["a", "b"], [[1.0, 2.0], [3.0]], tmp_path, "bad", "csv")
    with pytest.raises(ValueError, match="one length"):
        emit_rows(["a", "b"], [np.zeros(3)], tmp_path, "bad", "json")


def test_emit_rows_is_the_one_row_writer():
    # only emit_rows and write_manifest write files, and no command builds
    # a dict per row: commands hand emit_rows their columns
    import ast

    import qpspec.cli

    tree = ast.parse(Path(qpspec.cli.__file__).read_text())
    functions = [node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)]

    def called(node, names):
        func = getattr(node, "func", None)
        return isinstance(node, ast.Call) and (
            getattr(func, "attr", None) in names
            or getattr(func, "id", None) in names)

    writes = {"open", "write", "writelines", "write_text", "write_bytes"}
    writers = {fn.name for fn in functions
               for node in ast.walk(fn) if called(node, writes)}
    assert writers == {"emit_rows", "write_manifest"}
    loops = (ast.For, ast.ListComp, ast.SetComp, ast.DictComp,
             ast.GeneratorExp)
    per_row = {fn.name for fn in functions if fn.name.startswith("cmd_")
               for loop in ast.walk(fn) if isinstance(loop, loops)
               for node in ast.walk(loop) if node is not loop
               and (isinstance(node, (ast.Dict, ast.DictComp))
                    or called(node, {"dict", "asdict"}))}
    assert per_row == set()
    assert not any(called(node, {"asdict"}) for node in ast.walk(tree))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_ids_at_the_point_cap_writes_in_bounded_memory(tmp_path, fmt):
    # the most energies admission accepts, in a child whose address space
    # is capped far below one row dict, or one CSV line, per energy
    import os
    import resource
    import subprocess
    import sys

    import qpspec

    points = 2 ** 20
    cfg = _base_config(tmp_path / "out",
                       potential={"family": "amo", "coupling": 0.3},
                       numerics={"L": 100, "phases": 1,
                                 "energy": {"min": -2.5, "max": 2.5,
                                            "points": points}})
    limit = 384 * 2 ** 20
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(qpspec.__file__).parent.parent))
    out = subprocess.run(
        [sys.executable, "-m", "qpspec.cli", "ids", "--config",
         _write(tmp_path, cfg), "--format", fmt], env=env,
        capture_output=True, text=True, timeout=300,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                              (limit, limit)))
    assert out.returncode == 0, out.stderr
    lines, tail = 0, b""
    with open(tmp_path / "out" / f"ids.{fmt}", "rb") as fh:
        while chunk := fh.read(2 ** 20):
            lines += chunk.count(b"\n")
            tail = (tail + chunk)[-64:]
    # a header and one line per row; or brackets and four lines per object
    assert lines == (points + 1 if fmt == "csv" else 4 * points + 2)
    assert tail.endswith(b"\n" if fmt == "csv" else b"\n  }\n]\n")


def test_removed_flags_exit_2_and_cpu_split_keeps_values(tmp_path,
                                                          monkeypatch,
                                                          capsys):
    # no flag sets threads or a seed: each is an argparse usage error
    p = _write(tmp_path, _base_config(tmp_path / "a"))
    for flag, value in (("--threads", "2"), ("--seed", "7")):
        with pytest.raises(SystemExit) as exc:
            main(["ids", "--config", p, flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in \
            capsys.readouterr().err
    assert not (tmp_path / "a").exists()
    # the scan's fine pass counts about 870 energies on 8 x 4001 rows,
    # 2^24.7 cells, which the default run splits over the CPUs
    from qpspec import spectrum
    p = _write(tmp_path, _base_config(
        tmp_path,
        potential={"family": "ck", "epsilon": 0.01, "k": 6,
                   "modes": [1, 2, 3, 4, 5, 6, 7, 8]},
        numerics={"L": 2000, "phases": 8, "resolution": 4e-3,
                  "min_gap_length": 8e-3}))
    passes, forks = [], []
    kernel, fork = spectrum._pivot_counts, os.fork

    def counted(diags, energies):
        passes.append(diags.size * len(energies))
        return kernel(diags, energies)

    def forked():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(spectrum, "_pivot_counts", counted)
    monkeypatch.setattr(os, "fork", forked)
    written = {}
    for run, cpus, split_cells in (("one_cpu", {0}, spectrum._SPLIT_CELLS),
                                   ("forced", {0, 1}, 0),
                                   ("default", None, spectrum._SPLIT_CELLS)):
        with monkeypatch.context() as m:
            if cpus is not None:
                m.setattr(os, "sched_getaffinity", lambda pid: cpus)
            m.setattr(spectrum, "_SPLIT_CELLS", split_cells)
            forks.clear()
            assert main(["gaps", "--config", p,
                         "--out", str(tmp_path / run)]) == 0
        written[run] = (tmp_path / run / "gaps.csv").read_bytes()
        assert bool(forks) == (run == "forced" or (
            run == "default" and len(os.sched_getaffinity(0)) > 1))
    assert max(passes) >= spectrum._SPLIT_CELLS
    assert written["forced"] == written["one_cpu"] == written["default"]


def test_output_path_naming_a_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    cfg = _write(tmp_path, _base_config(taken))
    assert main(["ids", "--config", cfg, "--out", str(taken)]) == 2
    assert main(["ids", "--config", cfg]) == 2
    assert capsys.readouterr().err.count(str(taken)) == 2


# ---------------------------------------------------------------------------
# scan reuse from the output directory

_SCAN_USERS = ("gaps", "decay", "homog")


def _run(cfg_path, commands, out_dir, fmt="csv"):
    """Run commands into out_dir; the scan path each manifest reports."""
    for command in commands:
        assert main([command, "--config", cfg_path, "--out", str(out_dir),
                     "--format", fmt]) == 0
    return {c: _manifest(out_dir, c)["summary"]["scan"] for c in commands}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_scan_reuse_keeps_data_files_byte_identical(tmp_path, fmt):
    cfg = _write(tmp_path, _base_config(
        tmp_path,
        potential={"family": "ck", "epsilon": 0.01, "k": 6,
                   "modes": [1, 2, 3, 4, 5, 6, 7, 8]},
        numerics={"L": 1000, "resolution": 4e-3, "min_gap_length": 8e-3}))
    with_scan, alone = tmp_path / "with_scan", tmp_path / "alone"
    assert _run(cfg, ("scan",) + _SCAN_USERS, with_scan, fmt) == {
        "scan": "computed", "gaps": "reused", "decay": "reused",
        "homog": "reused"}
    assert _run(cfg, _SCAN_USERS, alone, fmt) == dict.fromkeys(
        _SCAN_USERS, "computed")
    for command in _SCAN_USERS:
        assert ((with_scan / f"{command}.{fmt}").read_bytes()
                == (alone / f"{command}.{fmt}").read_bytes())
    assert _manifest(alone, "gaps")["summary"]["gaps"] > 0
    # a rerun of scan reads its own file back and rewrites the same bytes
    scan = (with_scan / f"scan.{fmt}").read_bytes()
    assert _run(cfg, ("scan",), with_scan, fmt) == {"scan": "reused"}
    assert (with_scan / f"scan.{fmt}").read_bytes() == scan


@pytest.mark.parametrize("potential,frequency,digest", [
    ({"family": "cosine", "dim": 2,
      "terms": {"0,0": 0.25, "1,0": 0.3, "1,-2": -0.125}},
     {"components": [(math.sqrt(5.0) - 1.0) / 2.0, math.sqrt(2.0) - 1.0],
      "gamma": 0.01, "tau": 2.5, "cutoff": 20},
     "38e408b504456f099e26080a3ea15f292f1169abdd7a500f8051c94554c4ba6d"),
    ({"family": "ck", "epsilon": 0.01, "k": 6, "modes": [1, 2, 3, 5, 8]},
     {"components": [(math.sqrt(5.0) - 1.0) / 2.0]},
     "e1d2a19a69f6dfef8292382024ecb1b0cdfc225867e856db566a04f475d0c1a1"),
], ids=["cosine-2d", "ck"])
def test_scan_digest_is_pinned(potential, frequency, digest):
    # the stored-scan reuse of gaps/decay/homog keys on this digest, so a
    # change to how a series stores its coefficients must not move it
    from qpspec import cli

    V = cli.build_potential(potential)
    freq = cli.build_frequency(frequency)
    num = {"L": 1000, "phases": 4, "resolution": 4e-3}
    assert cli._scan_digest(V, freq, num) == digest


def _drop_last_row(out_dir):
    path = out_dir / "scan.csv"
    path.write_text("".join(path.read_text().splitlines(True)[:-1]))


@pytest.mark.parametrize("change,scan_fmt,mutate,expected", [
    ({}, "csv", None, "reused"),
    ({}, "json", None, "reused"),
    ({"numerics": {"L": 600}}, "csv", None, "computed"),
    ({"numerics": {"resolution": 3e-3}}, "csv", None, "computed"),
    ({"potential": {"coupling": 0.31}}, "csv", None, "computed"),
    ({}, "csv", _drop_last_row, "computed"),
    ({}, "csv", lambda d: (d / "scan.csv").unlink(), "computed"),
    ({}, "csv", lambda d: (d / "scan_manifest.json").unlink(), "computed"),
    ({}, "csv", lambda d: (d / "scan_manifest.json").write_text("{"),
     "computed"),
    ({}, "csv", lambda d: (d / "scan_manifest.json").write_text("[]"),
     "computed"),
], ids=["same_config", "scan_in_json", "other_L", "other_resolution",
        "other_coupling", "scan_edited", "scan_missing", "manifest_missing",
        "manifest_unparsable", "manifest_not_object"])
def test_scan_reuse_needs_a_current_scan(tmp_path, change, scan_fmt, mutate,
                                         expected):
    out = tmp_path / "out"
    cfg = _amo_gaps_config(out)
    assert _run(_write(tmp_path, cfg, "first.json"), ("scan",), out,
                scan_fmt) == {"scan": "computed"}
    if mutate is not None:
        mutate(out)
    for key, val in change.items():
        cfg[key].update(val)
    cfg = _write(tmp_path, cfg, "second.json")
    assert _run(cfg, ("homog",), out) == {"homog": expected}
    assert _run(cfg, ("homog",), tmp_path / "fresh") == {"homog": "computed"}
    assert ((out / "homog.csv").read_bytes()
            == (tmp_path / "fresh" / "homog.csv").read_bytes())


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


_THREE_D = {"components": [GOLDEN, math.sqrt(2.0) - 1.0,
                            math.sqrt(3.0) - 1.0],
            "gamma": 1e-3, "tau": 3.5, "cutoff": 10}


def test_three_d_label_ball_exits_2_before_the_scan(tmp_path, capsys,
                                                    monkeypatch):
    import qpspec.cli

    scans = []
    monkeypatch.setattr(qpspec.cli, "spectrum_scan",
                        lambda *args, **kwargs: scans.append(args))
    cfg = _base_config(
        tmp_path, frequency=_THREE_D, numerics={"M_max": 1000},
        potential={"family": "cosine", "dim": 3, "terms": {"1,0,0": 0.2}})
    assert main(["gaps", "--config", _write(tmp_path, cfg)]) == 2
    assert "numerics.M_max" in capsys.readouterr().err
    assert scans == []


def test_three_d_perturbation_ball_exits_2_at_once(tmp_path, capsys):
    import time

    cfg = _base_config(tmp_path, frequency=_THREE_D, kam={
        "rho0": 0.17, "perturbation": {"scale": 1e-4, "radius": 64,
                                       "seed": 1}})
    t0 = time.perf_counter()
    assert main(["kam", "--config", _write(tmp_path, cfg)]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "kam.perturbation: sup-norm radius 64" in capsys.readouterr().err


def test_decay_order_beyond_the_ball_cap_exits_2(tmp_path, capsys):
    # the C^k norm of order k sums over the multi-index ball of radius k
    cfg = _base_config(tmp_path, potential={
        "family": "ck", "epsilon": 0.01, "k": 2 ** 21, "modes": [1, 2]})
    assert main(["decay", "--config", _write(tmp_path, cfg)]) == 2
    assert "potential.k" in capsys.readouterr().err


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


def test_cli_builds_no_series():
    import ast

    import qpspec.cli

    # every series is built by a library constructor (kam owns the
    # perturbation constructors); the CLI only parses and names sections
    tree = ast.parse(Path(qpspec.cli.__file__).read_text())
    calls = [ast.unparse(node) for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and ast.unparse(node.func).endswith("FourierSeries")]
    assert calls == []
    names = {node.name for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef)}
    assert "_explicit_sl2_series" not in names


_NO_E_PLUS_INVENTORY = ("m,E_minus,length,N_plateau,label_defect\n"
                        "1,0.722,0.006,0.618,1e-05\n")
_NAN_EDGE_INVENTORY = ("m,E_minus,E_plus,length,N_plateau,label_defect\n"
                       "1,nan,0.728,0.006,0.618,1e-05\n")
_TWO_D_INVENTORY = ("m,E_minus,E_plus,length,N_plateau,label_defect\n"
                    "1;0,0.722,0.728,0.006,0.618,1e-05\n")
_SWAPPED_INVENTORY = ("m,E_minus,E_plus,length,N_plateau,label_defect\n"
                      "1,0.728,0.722,0.006,0.618,1e-05\n")


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
    ("kam", {"kam": {"rho0": 0.17, "perturbation": {
        "terms": {"1": [[1e-4, 0.0], [0.0, 1e-4]]}}}}, None, 2,
     "kam.perturbation.terms"),
    ("kam", {"kam": {"rho0": 0.17, "perturbation": {
        "terms": {"1": [[0.0, math.inf], [0.0, 0.0]]}}}}, None, 2,
     "kam.perturbation.terms"),
    ("kam", {"kam": {"rho0": 0.17, "M": 0, "perturbation": {
        "scale": 1e-4, "radius": 1, "seed": 1}}}, None, 2, "kam.M"),
    ("kam", {"kam": {"rho0": 0.17, "M": -1, "perturbation": {
        "scale": 1e-4, "radius": 1, "seed": 1}}}, None, 2, "kam.M"),
    ("gaps", {"numerics": {"M_max": 0}}, None, 2, "numerics.M_max"),
    ("rotation", {"numerics": {"rotation_iterations": 1}}, None, 2,
     "numerics.rotation_iterations"),
    ("homog", {"numerics": {"homog_eps": [0.0, 0.01]}}, None, 2,
     "numerics.homog_eps"),
    ("scan", {"numerics": {"resolution": math.nan}}, None, 2,
     "numerics.resolution"),
    ("rotation", {"numerics": {"energy": {"min": -2.5, "max": math.inf,
                                          "points": 11}}}, None, 2,
     "numerics.energy.max"),
    ("scan", {"potential": {"family": "amo", "coupling": math.nan}}, None, 2,
     "potential.coupling"),
    ("homog", {"numerics": {"homog_eps": [math.nan]}}, None, 2,
     "numerics.homog_eps"),
    ("homog", {"numerics": {"homog_eps": []}}, None, 2,
     "numerics.homog_eps"),
    ("homog", {"numerics": {"homog_eps": [10.0]}}, None, 2,
     "numerics.homog_eps"),
    ("homog", {"numerics": {"homog_samples": -1}}, None, 2,
     "numerics.homog_samples"),
    ("ids", {"output": []}, None, 2, "output section"),
    ("ids", {"output": {"dir": 5}}, None, 2, "output.dir"),
    ("ids", {"frequency": {"components": [GOLDEN], "gamma": math.nan}}, None,
     2, "frequency.gamma"),
    ("kam", {"kam": {"rho0": 0.17, "perturbation": {
        "scale": math.nan, "radius": 1, "seed": 1}}}, None, 2,
     "kam.perturbation.scale"),
    ("edge", {"edge": {"label": [1]}}, _NAN_EDGE_INVENTORY, 4, "unreadable"),
    ("edge", {"edge": {"label": [1]}}, _SWAPPED_INVENTORY, 4, "unreadable"),
    ("edge", {"edge": {"label": [1], "delta": -1.0}}, _NO_E_PLUS_INVENTORY,
     2, "edge.delta"),
    # values the library constructors reject while the CLI builds a section
    ("ids", {"frequency": {"components": []}}, None, 2, "frequency"),
    ("ids", {"frequency": {"components": [1.5]}}, None, 2, "frequency"),
    ("ids", {"potential": {"family": "cosine", "dim": 4,
                           "terms": {"1": 0.1}}}, None, 2, "potential"),
    ("ids", {"potential": {"family": "cosine", "terms": {"1,1": 0.1}}}, None,
     2, "potential"),
    ("ids", {"potential": {"family": "cosine", "dim": 2,
                           "terms": {"1,0": 0.1}}}, None, 2,
     "frequency dimension"),
    ("ids", {"potential": {"family": "ck", "epsilon": 0.01, "k": 6,
                           "modes": [0, 1]}}, None, 2, "potential"),
    ("decay", {"potential": {"family": "ck", "epsilon": 0.01, "k": 6,
                             "modes": [0, 1]}}, None, 2, "potential"),
    ("kam", {"kam": {"rho0": 0.17, "perturbation": {
        "scale": 1e-4, "radius": -1, "seed": 1}}}, None, 2,
     "kam.perturbation"),
    ("kam", {"kam": {"rho0": 0.17, "perturbation": {
        "scale": 1e-4, "radius": 1, "seed": -1}}}, None, 2,
     "kam.perturbation"),
    ("kam", {"kam": {"rho0": 0.17, "stop_tol": -1, "perturbation": {
        "scale": 1e-4, "radius": 1, "seed": 1}}}, None, 2, "kam.stop_tol"),
    ("edge", {"edge": {"gaps_file": 5, "label": [1]}}, None, 2,
     "edge.gaps_file"),
    ("edge", {"edge": {"label": [1, 0]}}, _TWO_D_INVENTORY, 2, "edge.label"),
    ("ids", {"frequency": {"components": [GOLDEN, math.sqrt(2.0) - 1.0,
                                          math.sqrt(3.0) - 1.0],
                           "cutoff": 64}}, None, 2, "frequency"),
    # two spellings of one mode, which JSON keeps as two keys
    ("kam", {"kam": {"rho0": 0.17, "perturbation": {"terms": {
        "1": [[1e-4, 0.0], [0.0, -1e-4]], "01": [[0.0, 2e-4], [0.0, 0.0]]}}}},
     None, 2, "kam.perturbation.terms: key '01' repeats the mode [1]"),
    ("ids", {"potential": {"family": "cosine", "terms": {"1": 0.3,
                                                         "01": 0.5}}},
     None, 2, "potential.terms: key '01' repeats the mode [1]"),
    ("kam", {"kam": {"rho0": 0.17, "perturbation": {"terms": {
        "1,0": [[0.0, 1e-4], [0.0, 0.0]],
        "1, 0": [[0.0, 0.0], [1e-4, 0.0]]}}}},
     None, 2, "kam.perturbation.terms: key '1, 0' repeats the mode [1, 0]"),
    # JSON booleans and fractional numbers are not ints or floats
    ("ids", {"numerics": {"L": 300.9}}, None, 2,
     "numerics.L must be int, got 300.9"),
    ("ids", {"numerics": {"phases": 2.9}}, None, 2,
     "numerics.phases must be int, got 2.9"),
    ("ids", {"numerics": {"energy": {"min": -2.5, "max": 2.5,
                                     "points": 3.7}}}, None, 2,
     "numerics.energy.points must be int, got 3.7"),
    ("ids", {"potential": {"family": "amo", "coupling": True}}, None, 2,
     "potential.coupling must be float, got True"),
    ("ids", {"numerics": {"phases": True}}, None, 2,
     "numerics.phases must be int, got True"),
    # one key written twice, which plain JSON collapses to the last value
    ("ids", {"potential": {"family": "cosine",
                           "terms": _Pairs(("1", 0.3), ("1", 0.5))}},
     None, 2, "config repeats the key '1'"),
    ("ids", {"numerics": _Pairs(("L", 500), ("L", 300), ("phases", 4))},
     None, 2, "config repeats the key 'L'"),
    ("ids", _Pairs(("potential", {"family": "amo", "coupling": 0.3})),
     None, 2, "config repeats the key 'potential'"),
    # a scan that finds no spectrum: at L 100 no cell of width 1e-4 holds
    # an eigenvalue of both phases
    *[(command, {"potential": potential,
                 "numerics": {"L": 100, "phases": 2, "resolution": 1e-4}},
       None, 2, "L=100, phases=2 and resolution=0.0001 finds no spectrum")
      for command, potential in (
          ("scan", {"family": "amo", "coupling": 3.0}),
          ("gaps", {"family": "amo", "coupling": 3.0}),
          ("homog", {"family": "amo", "coupling": 3.0}),
          ("decay", {"family": "ck", "epsilon": 3.0, "k": 2,
                     "modes": [1]}))],
    # a run of no step, and a residual bound no run can meet
    ("kam", {"kam": {"rho0": 0.17, "max_steps": 0, "perturbation": {
        "scale": 1e-4, "radius": 1, "seed": 1}}}, None, 2, "kam.max_steps"),
    ("kam", {"kam": {"rho0": 0.17, "residual_tol": 0.0, "perturbation": {
        "scale": 1e-4, "radius": 1, "seed": 1}}}, None, 2,
     "kam.residual_tol"),
], ids=["coupling", "ck_k", "gamma", "rho0", "label", "empty_inventory",
        "inventory_without_E_plus", "terms_dimension", "terms_trace",
        "terms_infinite", "kam_M_zero", "kam_M_negative", "M_max",
        "rotation_iterations", "homog_eps", "resolution_nan",
        "energy_max_infinite", "coupling_nan", "homog_eps_nan",
        "homog_eps_empty", "homog_eps_above_diam", "homog_samples_negative",
        "output_not_object", "output_dir_not_path", "gamma_nan",
        "scale_nan", "inventory_nan_edge", "inventory_edges_swapped",
        "delta_negative", "components_empty", "component_above_one",
        "dim_four", "term_dimension", "dim_not_the_frequency_dim",
        "ck_mode_zero", "ck_mode_zero_decay", "radius_negative",
        "seed_negative", "stop_tol_negative", "gaps_file_not_a_string",
        "label_not_the_frequency_dim",
        "cutoff_ball_too_big", "terms_duplicate_mode",
        "cosine_duplicate_mode", "terms_duplicate_mode_spaced", "L_fraction",
        "phases_fraction", "points_fraction", "coupling_bool",
        "phases_bool", "cosine_repeated_key", "numerics_repeated_key",
        "top_level_repeated_key", "scan_empty", "gaps_scan_empty",
        "homog_scan_empty", "decay_scan_empty", "max_steps_zero",
        "residual_tol_zero"])
def test_bad_section_values_exit_in_contract(tmp_path, capsys, command,
                                             section, inventory, code,
                                             needle):
    if isinstance(section, _Pairs):
        # pairs appended to the top level, after the base sections
        cfg = _Pairs(*_base_config(tmp_path).items(), *section.pairs)
    else:
        cfg = _base_config(tmp_path, **section)
    if inventory is not None:
        inv = tmp_path / "gaps.csv"
        inv.write_text(inventory)
        cfg["edge"]["gaps_file"] = str(inv)
    assert main([command, "--config", _write(tmp_path, cfg)]) == code
    assert needle in capsys.readouterr().err


def test_integral_float_is_an_int(tmp_path):
    # 500.0 is the int 500: the same data file as the plain int
    files = []
    for L in (500, 500.0):
        out = tmp_path / str(L)
        assert main(["ids", "--config",
                     _write(tmp_path, _base_config(out, numerics={"L": L}))]) \
            == 0
        files.append((out / "ids.csv").read_bytes())
    assert files[0] == files[1]


_SWEEP_VALUES = [None, True, -1, 0, 2.5, math.nan, math.inf, "x", [], {},
                 [-1], [0.5, 2.0]]
_SWEEP_POTENTIALS = {
    "amo": {"family": "amo", "coupling": 0.3},
    "ck": {"family": "ck", "epsilon": 0.01, "k": 6, "modes": [1, 2, 3]},
    "cosine": {"family": "cosine", "dim": 1, "terms": {"1": 0.3}},
}
# (command, potential of the base config, dotted fields set one at a time)
_SWEEP = [
    ("ids", "amo", "potential potential.family potential.coupling "
                   "frequency frequency.components frequency.gamma "
                   "frequency.tau frequency.cutoff output output.dir "
                   "output.format"),
    ("decay", "ck", "potential.epsilon potential.k potential.modes"),
    ("ids", "cosine", "potential.dim potential.terms"),
    ("gaps", "amo", "numerics numerics.L numerics.phases "
                    "numerics.resolution numerics.min_gap_length "
                    "numerics.M_max numerics.label_tol"),
    ("rotation", "amo", "numerics.rotation_iterations numerics.energy "
                        "numerics.energy.min numerics.energy.max "
                        "numerics.energy.points"),
    ("homog", "amo", "numerics.homog_eps numerics.homog_samples"),
    ("kam", "amo", "kam kam.rho0 kam.perturbation kam.M kam.sigma "
                   "kam.stop_tol kam.max_steps kam.residual_tol "
                   "kam.perturbation.scale kam.perturbation.radius "
                   "kam.perturbation.seed kam.perturbation.terms"),
    ("edge", "amo", "edge edge.gaps_file edge.label edge.delta "
                    "edge.edge_tol"),
]


def _sweep_base(potential: str) -> dict:
    return {
        "potential": dict(_SWEEP_POTENTIALS[potential]),
        "frequency": {"components": [GOLDEN], "gamma": 0.1, "tau": 1.5,
                      "cutoff": 20},
        "numerics": {"L": 100, "phases": 1, "resolution": 0.05,
                     "energy": {"min": -2.5, "max": 2.5, "points": 3},
                     "rotation_iterations": 100, "homog_samples": 5},
        "kam": {"rho0": 0.17,
                "perturbation": {"scale": 2.5e-4, "radius": 2, "seed": 11}},
        "edge": {"gaps_file": "gaps.csv", "label": [1]},
        "output": {"dir": "out", "format": "csv"},
    }


@pytest.mark.parametrize("command,potential,field", [
    (command, potential, field) for command, potential, fields in _SWEEP
    for field in fields.split()])
def test_malformed_values_exit_in_contract(tmp_path, monkeypatch, capsys,
                                           command, potential, field):
    # every value, in place of one field of a cheap valid config, ends in
    # a contract exit code and never in a traceback
    monkeypatch.chdir(tmp_path)
    Path("gaps.csv").write_text(
        "m,E_minus,E_plus,length,N_plateau,label_defect\n"
        "1,0.4637,1.055,0.5913,0.618,1e-05\n")
    *parents, name = field.split(".")
    codes = []
    for value in _SWEEP_VALUES:
        cfg = node = _sweep_base(potential)
        for key in parents:
            node = node[key]
        node[name] = value
        Path("config.json").write_text(json.dumps(cfg))
        codes.append(main([command, "--config", "config.json"]))
    capsys.readouterr()
    assert set(codes) <= {0, 2, 3, 4, 5, 6}, codes


# one field of a cheap valid config set to a size no array may take:
# (command, potential, field, value, what the error names)
_OVERSIZED = [
    ("ids", "amo", "numerics.L", 10 ** 12, "L = 1000000000000"),
    ("rotation", "amo", "numerics.rotation_iterations", 10 ** 12,
     "numerics.rotation_iterations"),
    ("ids", "amo", "numerics.energy.points", 10 ** 12,
     "numerics.energy.points"),
    ("scan", "amo", "numerics.resolution", 1e-12, "resolution 1e-12"),
    ("homog", "amo", "numerics.homog_samples", 10 ** 12,
     "numerics.homog_samples"),
    ("scan", "cosine", "potential.terms", {"1000000000000": 0.3},
     "potential: modes up to |n| = 1000000000000"),
    ("kam", "amo", "kam.perturbation",
     {"terms": {"1000000000000": [[1e-3, 0.0], [0.0, -1e-3]]}},
     "kam.perturbation.terms: modes up to |n| = 1000000000000"),
    # a kam run's first step reaches 16 times the perturbation's radius
    ("kam", "amo", "kam.perturbation.terms",
     {"262143": [[1e-3, 0.0], [0.0, -1e-3]]},
     "kam.perturbation.terms: modes up to |n| = 262143, which the first"),
    ("kam", "amo", "kam.perturbation.radius", 16384,
     "kam.perturbation: modes up to |n| = 16384, which the first"),
]


@pytest.mark.parametrize("command,potential,field,value,needle", _OVERSIZED,
                         ids=[case[2] for case in _OVERSIZED])
def test_oversized_sizes_exit_2_before_allocating(tmp_path, command,
                                                  potential, field, value,
                                                  needle):
    # a child under a 1 GB address-space limit, so a size that got past
    # admission ends at once in a MemoryError traceback
    import os
    import resource
    import subprocess
    import sys

    import qpspec

    cfg = node = _sweep_base(potential)
    *parents, name = field.split(".")
    for key in parents:
        node = node[key]
    node[name] = value
    cfg["output"]["dir"] = str(tmp_path / "out")
    limit = 2 ** 30
    env = dict(os.environ,
               PYTHONPATH=str(Path(qpspec.__file__).parent.parent))
    out = subprocess.run(
        [sys.executable, "-m", "qpspec.cli", command, "--config",
         _write(tmp_path, cfg)], env=env, capture_output=True, text=True,
        timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                              (limit, limit)))
    assert out.returncode == 2, out.stderr
    assert needle in out.stderr and "above the cap" in out.stderr
    assert "Traceback" not in out.stderr


def test_ck_profile_has_one_owner():
    import ast

    import qpspec.cli
    from qpspec.qpcore import ck_potential, cosine_polynomial

    tree = ast.parse(Path(qpspec.cli.__file__).read_text())
    powers = [ast.unparse(node) for node in ast.walk(tree)
              if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)]
    assert powers == []

    def bits(series):
        return [(k, v.real.hex(), v.imag.hex()) for k, v
                in zip(series.modes.tolist(), series.values.tolist())]

    for eps, k, modes in ((0.01, 6, range(1, 9)), (0.3, 0, [1]),
                          (2e-3, 3, [1, 2, 3, 5, 8, 40]), (1.0, 2, [3, 1, 3])):
        old = cosine_polynomial({n: eps * float(n) ** (-k) for n in modes})
        assert bits(ck_potential(eps, k, modes)) == bits(old)
        unit = cosine_polynomial({n: float(n) ** (-k) for n in modes})
        assert bits(ck_potential(1.0, k, modes)) == bits(unit)


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


# public top-level names of src/qpspec, and public members of its public
# classes (as Class.member), that no library code calls yet, and why each
# stays; a name leaves the table once library code calls it or it moves
# into tests/, and each reason names the ROADMAP item that decides which
_KEPT = {
    "degree": "the kam run's conjugacy-degree check (ROADMAP item 5)",
    "conjugated_rotation": "the kam run's rotation-number invariant "
                           "(ROADMAP item 5)",
    "holder_modulus": "the spectrum-as-a-set report (ROADMAP item 9)",
    "gap_separation_check": "the spectrum-as-a-set report (ROADMAP item 9)",
}

# public members (as Class.member) whose name another class of src/qpspec
# also defines, so that a read of that name on a receiver other than self
# may belong to either class, and why each is known to be called
_SHARED = {
    "Frequency.dim": "FourierSeries.dim is a slot; kam.detect_resonance and "
                     "kam.resonant_step read freq.dim on a Frequency",
    "KamState.residual": "LedgerStep.residual is a field; "
                         "KamState.check_residual calls self.residual()",
}


def test_every_public_function_has_a_library_caller():
    # read with ast alone: a public top-level function or class of a layer
    # module needs a reference in src/qpspec outside its own definition,
    # its module's __all__ and the package __init__, or a _KEPT reason; so
    # does a public member of a public class.  A self. or cls. read inside
    # a class that defines the name is that class's member; any other
    # attribute of the name counts for every class that defines it, since
    # ast does not know the receiver's class, and such shared names are
    # listed in _SHARED
    import ast
    import re

    src = Path(__file__).resolve().parents[1] / "src" / "qpspec"
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(src.glob("*.py")) if path.stem != "__init__"}

    def callers(name, module, definition):
        """Modules that reference module.name outside its definition: by
        name where it is defined or imported from there, or as module.name."""
        found = set()
        for stem, tree in trees.items():
            nodes = list(ast.walk(tree))
            bound = stem == module or any(
                isinstance(node, ast.ImportFrom) and node.module == module
                and any(alias.name == name for alias in node.names)
                for node in nodes)
            for node in nodes:
                if stem == module and definition.lineno <= getattr(
                        node, "lineno", 0) <= definition.end_lineno:
                    continue
                if (bound and isinstance(node, ast.Name) and node.id == name
                        or isinstance(node, ast.Attribute)
                        and node.attr == name
                        and isinstance(node.value, ast.Name)
                        and node.value.id == module):
                    found.add(stem)
        return found

    def defined(cls):
        """Names a class defines: methods, class-level fields, __slots__
        entries and attributes assigned on self."""
        names = set()
        for item in cls.body:
            if isinstance(item, ast.FunctionDef):
                names.add(item.name)
            elif isinstance(item, ast.AnnAssign):
                names.add(item.target.id)
            elif isinstance(item, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__"
                    for t in item.targets):
                names |= {elt.value for elt in item.value.elts}
        names |= {node.attr for node in ast.walk(cls)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Store)
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "self"}
        return names

    classes = {id(node): (node, defined(node)) for tree in trees.values()
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    # the class around each node, for reads on self and cls
    around = {id(sub): node for node, _ in classes.values()
              for sub in ast.walk(node)}

    def member_callers(name, module, definition, cls):
        """Modules that read the attribute name outside the member's
        definition, leaving out self. and cls. reads inside another class
        that defines the name itself."""
        found = set()
        for stem, tree in trees.items():
            for node in ast.walk(tree):
                if not (isinstance(node, ast.Attribute) and node.attr == name
                        and isinstance(node.ctx, ast.Load)):
                    continue
                if stem == module and definition.lineno <= node.lineno \
                        <= definition.end_lineno:
                    continue
                owner = around.get(id(node))
                if (isinstance(node.value, ast.Name)
                        and node.value.id in ("self", "cls")
                        and owner is not None and owner is not cls
                        and name in classes[id(owner)][1]):
                    continue
                found.add(stem)
        return found

    tops = [(stem, node) for stem, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]
    public = {node.name: callers(node.name, stem, node) for stem, node in tops}
    members = [(stem, node, item) for stem, node in tops
               if isinstance(node, ast.ClassDef)
               for item in node.body if isinstance(item, ast.FunctionDef)
               and not item.name.startswith("_")]
    public.update({
        f"{node.name}.{item.name}": member_callers(item.name, stem, item,
                                                   node)
        for stem, node, item in members})
    shared = {f"{node.name}.{item.name}" for _, node, item in members
              if any(other is not node and item.name in names
                     for other, names in classes.values())}
    assert shared == set(_SHARED), "member names another class shares"
    uncalled = {name for name, found in public.items() if not found}
    assert uncalled - set(_KEPT) == set(), "public names no library code calls"
    assert {name: sorted(public[name]) for name in _KEPT
            if public.get(name)} == {}, "_KEPT names that now have callers"
    assert set(_KEPT) <= set(public), "_KEPT names that are gone"
    assert {name: reason for name, reason in _KEPT.items()
            if not re.search(r"ROADMAP item \d+", reason)} == {}, \
        "_KEPT reasons that name no ROADMAP item to decide them"
