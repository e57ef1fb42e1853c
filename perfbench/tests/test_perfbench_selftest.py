"""Self-test of the benchmark harness: failures must show in fail_share.

Run from the repository root with ``python -m pytest perfbench/tests``.
The pipeline tests start real qpspec interpreters on tiny configs, so
they take a few seconds.
"""

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
from workloads import (GOLDEN, WORKLOADS, Inputs,  # noqa: E402
                       approximant_gap, gap_edge_reference)


def _fail_share(workload, inputs, reps):
    _, attempted, failed = bench.score_reps(workload, inputs, reps)
    return failed / attempted


def _frac(x):
    return x - math.floor(x)


@pytest.fixture(scope="module")
def gap_edge_case():
    workload = WORKLOADS["gap_edge"]
    inputs = workload.make(0)
    inputs.reference = gap_edge_reference(inputs)
    return workload, inputs


def _write_gap_edge_outputs(out: Path, inputs: Inputs):
    """Data files shaped like a real run: scan-cell edges inside the gap."""
    lo, hi = inputs.reference["edges"][1]
    (out / "gaps.csv").write_text(
        "m,E_minus,E_plus,length,N_plateau,label_defect\n"
        f"-1,{-hi + 8e-4},{-lo - 1.2e-3},0.006,{_frac(-GOLDEN) + 1e-5},1e-5\n"
        f"1,{lo + 1.2e-3},{hi - 8e-4},0.006,{GOLDEN + 1e-5},1e-5\n")
    (out / "edge.csv").write_text(
        "m,E_plus,zeta,measured_length\n"
        f"1,{hi - 8e-4},0.003,{hi - lo - 2e-3}\n")


def _ok_rep(out: Path, commands, rc=0):
    records = [{"command": c, "rc": rc, "error": None} for c in commands]
    return {"run_id": "r0", "dir": out, "rc": 0, "traced": False,
            "result": {"commands": records}}


def test_approximants_agree_on_the_label_one_gap():
    (lo_a, hi_a) = approximant_gap(0.004, 377, 610, 1)
    (lo_b, hi_b) = approximant_gap(0.004, 610, 987, 1)
    assert abs(lo_a - lo_b) < 1e-4 and abs(hi_a - hi_b) < 1e-4
    assert hi_b - lo_b == pytest.approx(0.008, abs=2e-4)


def test_corrupted_reference_raises_fail_share(tmp_path, gap_edge_case):
    workload, inputs = gap_edge_case
    _write_gap_edge_outputs(tmp_path, inputs)
    reps = [_ok_rep(tmp_path, workload.commands)]
    assert _fail_share(workload, inputs, reps) == 0.0

    (lo, hi), (lo_b, hi_b) = inputs.reference["edges"]
    corrupted = Inputs(inputs.config, inputs.params,
                       {"edges": [[lo + 0.01, hi + 0.01],
                                  [lo_b + 0.01, hi_b + 0.01]]})
    assert _fail_share(workload, corrupted, reps) == 0.5


def test_nonzero_exit_raises_fail_share(tmp_path, gap_edge_case):
    workload, inputs = gap_edge_case
    _write_gap_edge_outputs(tmp_path, inputs)
    good = _ok_rep(tmp_path, workload.commands)
    bad = _ok_rep(tmp_path, workload.commands, rc=5)
    assert _fail_share(workload, inputs, [good, good]) == 0.0
    assert _fail_share(workload, inputs, [good, bad]) == 0.5


def _tiny_ids_rep(tmp_path, traced, run_id, config=None):
    config = config or {
        "potential": {"family": "amo", "coupling": 0.3},
        "frequency": {"components": [GOLDEN]},
        "numerics": {"L": 100, "phases": 2,
                     "energy": {"min": -2.0, "max": 2.0, "points": 5}},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return bench.run_rep(tmp_path, path, ("ids",), traced, run_id)


def test_pipeline_exit_code_counts_as_failure(tmp_path):
    """A real qpspec command that exits 4 (missing gap inventory) fails."""
    config = {"potential": {"family": "amo", "coupling": 0.004},
              "frequency": {"components": [GOLDEN]},
              "edge": {"gaps_file": "missing.csv", "label": [1]}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    rep = bench.run_rep(tmp_path, path, ("edge",), False, "r0")
    assert rep["result"]["commands"][0]["rc"] == 4
    workload = WORKLOADS["gap_edge"]
    inputs = workload.make(0)
    inputs.reference = {"edges": [[0.7207, 0.7287]] * 2}
    assert _fail_share(workload, inputs, [rep]) == 1.0


def test_traced_rep_keeps_hashes_and_spans_nest(tmp_path):
    plain = _tiny_ids_rep(tmp_path, False, "plain")
    traced = _tiny_ids_rep(tmp_path, True, "traced")
    assert plain["result"]["commands"][0]["rc"] == 0
    assert traced["result"]["commands"][0]["rc"] == 0
    assert ((plain["dir"] / "ids.csv").read_bytes()
            == (traced["dir"] / "ids.csv").read_bytes())

    spans = bench.read_spans(traced["spans"])
    names = {s["name"] for s in spans}
    assert {"cli.import", "cli.admission", "cli.command.ids",
            "spectrum.ids_curve", "qpcore.diophantine_check",
            "qpcore.FourierSeries.evaluate", "cli.emit_rows"} <= names
    for i, s in enumerate(spans):
        assert s["start"] <= s["end"]
        if s["parent"] >= 0:
            parent = spans[s["parent"]]
            assert s["parent"] < i
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
    metrics, _ = bench.layer_metrics(spans, traced["result"]["counts"],
                                     traced["wall"])
    assert metrics["spectrum.sturm_cells"] == 201 * 5 * 2
    assert metrics["cli.ids_s"] > metrics["spectrum.ids_curve.self_s"] > 0
    assert 0 < metrics["trace.covered_share"] <= 1


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(bench.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
