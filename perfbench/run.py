"""qpspec benchmark: seeded CLI pipelines, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --compare BASE.json NEW.json

Each repetition runs one workload's commands in a fresh interpreter
(``pipeline.py``), with BLAS pinned to one thread.  Repetitions continue
until ``--seconds`` have passed.  With ``--trace 0`` every repetition is
untraced and the end-to-end metrics are reported; with ``--trace 1``
untraced and traced repetitions alternate, and the per-layer metrics come
from the traced ones.  Outputs are checked after the timed loop against
independent references (``workloads.py``); the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Full results, data-file hashes and the environment go to
``perfbench/runs/results/``, spans to ``perfbench/runs/spans/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, Inputs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PIPELINE = BENCH_DIR / "pipeline.py"
RUNS = BENCH_DIR / "runs"

REP_TIMEOUT_S = 120.0
RUN_BUDGET_S = 150.0     # no repetition starts after this much of a run
RUN_LIMIT_S = 170.0      # a repetition still running then is killed
TAIL_SAMPLES = 10        # samples that must lie beyond the tail percentile

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ref_err", "abs"),
)

ALL_COMMANDS = ("scan", "gaps", "homog", "ids", "edge", "rotation", "kam")

PER_LAYER = (
    ("spectrum.spectrum_scan.self_s", "s"),
    ("spectrum.spectrum_scan.calls", "count"),
    ("spectrum.ids.self_s", "s"),
    ("spectrum.ids.calls", "count"),
    ("spectrum.ids_curve.self_s", "s"),
    ("spectrum.sturm_cells", "count"),
    ("spectrum.ns_per_cell", "ns"),
    ("spectrum.recount_share", "ratio"),
    ("gaps.refine_gap_edges.self_s", "s"),
    ("gaps.refine_gap_edges.calls", "count"),
    ("gaps.refine_moved_frac", "ratio"),
    ("gaps.detect_gaps.self_s", "s"),
    ("gaps.label_all.self_s", "s"),
    ("gaps.homogeneity_profile.self_s", "s"),
    ("rotnum.schrodinger_rotation_grid.self_s", "s"),
    ("rotnum.lane_steps", "count"),
    ("rotnum.ns_per_lane_step", "ns"),
    ("rotnum.rotation_number.self_s", "s"),
    ("rotnum.orbit_steps", "count"),
    ("rotnum.ns_per_orbit_step", "ns"),
    ("cocycle.uniform_hyperbolicity_test.self_s", "s"),
    ("cocycle.cone_steps", "count"),
    ("qpcore.evaluate.self_s", "s"),
    ("qpcore.evaluate.calls", "count"),
    ("qpcore.evaluate.points", "count"),
    ("qpcore.diophantine_check.self_s", "s"),
    ("kam.reduce_to_parabolic.self_s", "s"),
    ("kam.almost_reducibility_run.self_s", "s"),
    ("kam.moser_poschel_step.self_s", "s"),
    ("kam.ledger_steps", "count"),
    ("mat2.calls", "count"),
    ("mat2.self_s", "s"),
) + tuple((f"cli.{c}_s", "s") for c in ALL_COMMANDS) + (
    ("cli.setup_s", "s"),
    ("cli.emit.self_s", "s"),
    ("cli.emit_bytes", "bytes"),
    ("trace_overhead_s", "s"),
    ("trace.uncovered_s", "s"),
    ("trace.covered_share", "ratio"),
)

UNITS = dict(END_TO_END + PER_LAYER)

# layer metric -> span whose layer self time it reports; calls of a public
# function nested in its own layer fold into the outermost one
SELF_TIMES = {
    "spectrum.spectrum_scan.self_s": "spectrum.spectrum_scan",
    "spectrum.ids.self_s": "spectrum.ids",
    "spectrum.ids_curve.self_s": "spectrum.ids_curve",
    "gaps.refine_gap_edges.self_s": "gaps.refine_gap_edges",
    "gaps.detect_gaps.self_s": "gaps.detect_gaps",
    "gaps.label_all.self_s": "gaps.label_all",
    "gaps.homogeneity_profile.self_s": "gaps.homogeneity_profile",
    "rotnum.schrodinger_rotation_grid.self_s":
        "rotnum.schrodinger_rotation_grid",
    "rotnum.rotation_number.self_s": "rotnum.rotation_number",
    "cocycle.uniform_hyperbolicity_test.self_s":
        "cocycle.uniform_hyperbolicity_test",
    "qpcore.evaluate.self_s": "qpcore.FourierSeries.evaluate",
    "qpcore.diophantine_check.self_s": "qpcore.diophantine_check",
    "kam.reduce_to_parabolic.self_s": "kam.reduce_to_parabolic",
    "kam.almost_reducibility_run.self_s": "kam.almost_reducibility_run",
    "kam.moser_poschel_step.self_s": "kam.moser_poschel_step",
}
CALLS = {
    "spectrum.spectrum_scan.calls": "spectrum.spectrum_scan",
    "spectrum.ids.calls": "spectrum.ids",
    "gaps.refine_gap_edges.calls": "gaps.refine_gap_edges",
    "qpcore.evaluate.calls": "qpcore.FourierSeries.evaluate",
}
COUNTS = ("spectrum.sturm_cells", "rotnum.lane_steps", "rotnum.orbit_steps",
          "cocycle.cone_steps", "qpcore.evaluate.points", "kam.ledger_steps",
          "cli.emit_bytes")


# ---------------------------------------------------------------------------
# environment


def environment() -> dict:
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": 1,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for level in (2, 3):
        env[f"l{level}_cache"] = None
        for index in sorted(cache.glob("index*")):
            try:
                if (index / "level").read_text().strip() == str(level):
                    size = (index / "size").read_text().strip()
                    env[f"l{level}_cache"] = size
            except OSError:
                pass
    return env


# ---------------------------------------------------------------------------
# one repetition


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_rep(work: Path, config_path: Path, commands, traced: bool,
            run_id: str, timeout: float = REP_TIMEOUT_S) -> dict:
    """Run one pipeline in a fresh interpreter; time it from spawn to exit."""
    rep_dir = work / run_id
    rep_dir.mkdir(parents=True)
    job = {
        "src": str(SRC), "config": str(config_path),
        "commands": list(commands), "trace": traced, "run_id": run_id,
        "result": str(rep_dir / "_result.json"),
        "spans": str(rep_dir / "_spans.jsonl"),
    }
    job_path = rep_dir / "_job.json"
    job_path.write_text(json.dumps(job))
    with open(rep_dir / "_log.txt", "w") as log:
        t_spawn = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(PIPELINE), str(job_path)],
                cwd=rep_dir, env=_child_env(), stdout=log,
                stderr=subprocess.STDOUT, timeout=timeout)
            rc = proc.returncode
        except subprocess.TimeoutExpired:
            rc = "timeout"
        t_exit = time.perf_counter()
    result = None
    if rc == 0 and Path(job["result"]).is_file():
        result = json.loads(Path(job["result"]).read_text())
    return {"run_id": run_id, "dir": rep_dir, "traced": traced, "rc": rc,
            "t_spawn": t_spawn, "wall": t_exit - t_spawn, "result": result,
            "spans": Path(job["spans"]) if traced else None}


def _sha256(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def score_rep(workload, inputs: Inputs, rep: dict) -> dict:
    """Failures per command, data-file hashes and accuracy of one rep."""
    failures = {c: [] for c in workload.commands}
    result = rep["result"]
    if result is None:
        for c in workload.commands:
            failures[c].append(f"pipeline exited {rep['rc']} without a result")
        return {"failures": failures, "hashes": {}, "accuracy": {}}
    for record in result["commands"]:
        if record["rc"] != 0:
            msg = f"exit code {record['rc']}"
            if record["error"]:
                msg += ": " + record["error"].strip().splitlines()[-1]
            failures[record["command"]].append(msg)
    checked, accuracy = workload.check(rep["dir"], inputs)
    for c, msgs in checked.items():
        failures[c].extend(msgs)
    hashes = {c: {f"{c}.csv": _sha256(rep["dir"] / f"{c}.csv")}
              for c in workload.commands}
    return {"failures": failures, "hashes": hashes, "accuracy": accuracy}


def score_reps(workload, inputs: Inputs, reps: list):
    """Score every rep; a data file whose hash differs between reps fails.

    Returns (scores, attempted, failed): one operation is one command of
    one rep, and it fails on a nonzero exit or any failed output check.
    """
    scores = [score_rep(workload, inputs, rep) for rep in reps]
    first = scores[0]["hashes"]
    for rep, score in zip(reps, scores):
        for c, files in score["hashes"].items():
            if files != first.get(c):
                score["failures"][c].append(
                    f"data file hash differs from {reps[0]['run_id']}")
    attempted = len(reps) * len(workload.commands)
    failed = sum(1 for s in scores for msgs in s["failures"].values() if msgs)
    return scores, attempted, failed


# ---------------------------------------------------------------------------
# spans -> per-layer metrics


def read_spans(path: Path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def layer_metrics(spans: list, counts: dict, wall: float):
    """Per-layer figures of one traced repetition, and their bases.

    A span's self time is its duration minus its children's.  The layer
    self time of a public function adds the self time of the calls it
    makes into its own layer, so a layer's entry point carries the work
    done in that layer under it.
    """
    n = len(spans)
    dur = [s["end"] - s["start"] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            child[s["parent"]] += dur[i]
    layer = [s["name"].split(".", 1)[0] for s in spans]
    entry, root = [0] * n, [0] * n
    entry_self, layer_self, calls = Counter(), Counter(), Counter()
    span_time = Counter()
    for i, s in enumerate(spans):
        p = s["parent"]
        entry[i] = entry[p] if p >= 0 and layer[p] == layer[i] else i
        root[i] = root[p] if p >= 0 else i
        own = dur[i] - child[i]
        entry_self[spans[entry[i]]["name"]] += own
        layer_self[layer[i]] += own
        calls[s["name"]] += 1
        span_time[s["name"]] += dur[i]

    m = {k: entry_self[v] for k, v in SELF_TIMES.items()}
    m.update({k: calls[v] for k, v in CALLS.items()})
    m.update({k: counts.get(k, 0) for k in COUNTS})
    cells = counts.get("spectrum.sturm_cells", 0)
    m["spectrum.ns_per_cell"] = (1e9 * counts.get("spectrum.kernel_s", 0.0)
                                 / cells if cells else 0.0)
    gaps_s = span_time["cli.command.gaps"]
    recount = sum(dur[i] for i, s in enumerate(spans)
                  if s["name"] == "spectrum.ids"
                  and spans[root[i]]["name"] == "cli.command.gaps")
    m["spectrum.recount_share"] = recount / gaps_s if gaps_s else 0.0
    edges = counts.get("gaps.refine.edges", 0)
    m["gaps.refine_moved_frac"] = (counts.get("gaps.refine.moved", 0) / edges
                                   if edges else 0.0)
    lanes = m["rotnum.lane_steps"]
    m["rotnum.ns_per_lane_step"] = (
        1e9 * m["rotnum.schrodinger_rotation_grid.self_s"] / lanes
        if lanes else 0.0)
    steps = m["rotnum.orbit_steps"]
    m["rotnum.ns_per_orbit_step"] = (
        1e9 * m["rotnum.rotation_number.self_s"] / steps if steps else 0.0)
    m["mat2.calls"] = sum(v for k, v in calls.items()
                          if k.startswith("mat2."))
    m["mat2.self_s"] = layer_self["mat2"]
    for c in ALL_COMMANDS:
        m[f"cli.{c}_s"] = span_time[f"cli.command.{c}"]
    m["cli.setup_s"] = span_time["cli.import"] + span_time["cli.admission"]
    m["cli.emit.self_s"] = sum(dur[i] - child[i] for i, s in enumerate(spans)
                               if s["name"] == "cli.emit_rows")
    covered = sum(dur[i] for i, s in enumerate(spans) if s["parent"] < 0)
    m["trace.uncovered_s"] = wall - covered
    m["trace.covered_share"] = covered / wall
    bases = {
        "kernel_s": counts.get("spectrum.kernel_s", 0.0),
        "kernel_passes": counts.get("spectrum.kernel_passes", 0),
        "recount_ids_s": recount, "gaps_command_s": gaps_s,
        "refine_edges": edges,
        "refine_moved": counts.get("gaps.refine.moved", 0),
        "spans": n,
    }
    bases.update({f"layer_self_s.{k}": v for k, v in layer_self.items()})
    return m, bases


# ---------------------------------------------------------------------------
# one run of one workload


def _median(values):
    return statistics.median(values) if values else math.nan


def tail(values) -> dict:
    """Highest whole percentile with TAIL_SAMPLES or more samples beyond."""
    n = len(values)
    if n <= TAIL_SAMPLES:
        return {"percentile": None, "value": None, "samples": n}
    p = math.floor(100.0 * (n - TAIL_SAMPLES) / n)
    return {"percentile": p,
            "value": float(np.percentile(values, p, method="lower")),
            "samples": n}


def _warm_up():
    """Compile bytecode and fill the file cache before anything is timed."""
    subprocess.run([sys.executable, "-c", "import qpspec.cli"],
                   env=_child_env(), check=True, stdout=subprocess.DEVNULL,
                   timeout=REP_TIMEOUT_S)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    t_run = time.perf_counter()
    workload = WORKLOADS[name]
    inputs = workload.make(seed)
    if workload.reference:
        inputs.reference = workload.reference(inputs)

    work = RUNS / "work" / f"{name}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(inputs.config, indent=2))
    _warm_up()

    reps = []
    t0 = time.perf_counter()
    while True:
        traced = trace and len(reps) % 2 == 1
        left = RUN_LIMIT_S - (time.perf_counter() - t_run)
        reps.append(run_rep(work, config_path, workload.commands, traced,
                            f"{name}-s{seed}-r{len(reps)}",
                            min(left, REP_TIMEOUT_S)))
        done = time.perf_counter() - t0 >= seconds
        enough = len(reps) >= (2 if trace else 1)
        if enough and (done or time.perf_counter() - t_run > RUN_BUDGET_S):
            break
    measured_s = time.perf_counter() - t0

    scores, attempted, failed = score_reps(workload, inputs, reps)

    plain = [r for r in reps if not r["traced"]]
    walls = [r["wall"] for r in plain]
    ok = [r for r in plain if r["result"] is not None]
    accuracy = scores[0]["accuracy"]
    e2e = {
        "wall_s": _median(walls),
        "setup_s": _median([r["result"]["t_ready"] - r["t_spawn"]
                            for r in ok]),
        "peak_rss_mb": _median([r["result"]["peak_rss_kb"] / 1024.0
                                for r in ok]),
        "ref_err": accuracy.get(workload.accuracy, math.inf),
    }

    layers, bases, spans_out = {}, {}, None
    traced_reps = [r for r in reps if r["traced"] and r["result"]]
    if traced_reps:
        per_rep = []
        spans_out = RUNS / "spans" / f"{name}.jsonl"
        spans_out.parent.mkdir(parents=True, exist_ok=True)
        with open(spans_out, "w") as fh:
            for rep in traced_reps:
                per_rep.append(layer_metrics(read_spans(rep["spans"]),
                                             rep["result"]["counts"],
                                             rep["wall"]))
                fh.write(rep["spans"].read_text())
        layers = {k: _median([m[k] for m, _ in per_rep])
                  for k, _ in PER_LAYER if k != "trace_overhead_s"}
        bases = {k: _median([b.get(k, 0) for _, b in per_rep])
                 for k in sorted(set().union(*(b for _, b in per_rep)))}
        traced_walls = [r["wall"] for r in traced_reps]
        layers["trace_overhead_s"] = _median(traced_walls) - e2e["wall_s"]
        bases["traced_wall_s"] = _median(traced_walls)
        bases["untraced_wall_s"] = e2e["wall_s"]

    return {
        "workload": name, "why": workload.why, "seed": seed,
        "seconds": seconds, "measured_s": measured_s, "trace": int(trace),
        "environment": environment(),
        "inputs": inputs.params, "reference": inputs.reference,
        "commands": list(workload.commands),
        "attempted": attempted, "failed": failed,
        "fail_share": failed / attempted,
        "failures": [{"run_id": r["run_id"], "command": c, "messages": msgs}
                     for r, s in zip(reps, scores)
                     for c, msgs in s["failures"].items() if msgs],
        "accuracy": accuracy,
        "end_to_end": e2e,
        "wall_s_tail": tail(walls),
        "samples": {"wall_s": walls,
                    "traced_wall_s": [r["wall"] for r in traced_reps]},
        "per_layer": layers,
        "per_layer_bases": bases,
        "hashes": scores[0]["hashes"],
        "spans_file": str(spans_out.relative_to(ROOT)) if spans_out else None,
    }


def _finite(value):
    """JSON has no inf or nan; a metric that could not be measured is null."""
    return value if math.isfinite(value) else None


def _fmt(value) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))   # a median of exact counts
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_result(res: dict) -> None:
    name = res["workload"]
    env = res["environment"]
    print(f"# {name} seed={res['seed']} trace={res['trace']} "
          f"nproc={env['nproc']} cpu={env['cpu_model']!r} "
          f"L2={env['l2_cache']} L3={env['l3_cache']} "
          f"python={env['python']} numpy={env['numpy']}")
    for key, value in res["end_to_end"].items():
        print(f"{name} {key} = {_fmt(value)} {UNITS[key]}")
    t = res["wall_s_tail"]
    print(f"{name} wall_s samples = {t['samples']}; tail percentile "
          + (f"p{t['percentile']} = {t['value']:.6g} s" if t["percentile"]
             is not None else f"needs more than {TAIL_SAMPLES} samples"))
    for key, value in res["accuracy"].items():
        print(f"{name} accuracy {key} = {_fmt(value)}")
    print(f"{name} fail_share = {res['failed']}/{res['attempted']} = "
          f"{res['fail_share']:.6g}")
    for f in res["failures"]:
        print(f"{name} FAILED {f['run_id']} {f['command']}: "
              + "; ".join(f["messages"]))
    for key, unit in PER_LAYER if res["per_layer"] else ():
        print(f"{name} {key} = {_fmt(res['per_layer'][key])} {unit}")
    if res["per_layer"]:
        b = res["per_layer_bases"]
        print(f"{name} bases: kernel {b['kernel_s']:.6g} s over "
              f"{b['kernel_passes']} passes; recount "
              f"{b['recount_ids_s']:.6g} s"
              f" of gaps {b['gaps_command_s']:.6g} s; refine moved "
              f"{b['refine_moved']} of {b['refine_edges']} edges; traced wall "
              f"{b['traced_wall_s']:.6g} s vs untraced "
              f"{b['untraced_wall_s']:.6g} s; {b['spans']} spans")


def save_result(res: dict) -> Path:
    out = RUNS / "results" / (f"{res['workload']}-s{res['seed']}"
                              f"-t{res['trace']}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(res, indent=1, sort_keys=True) + "\n")
    return out


# ---------------------------------------------------------------------------
# compare mode


def compare(base_path: str, new_path: str) -> int:
    base = json.loads(Path(base_path).read_text())
    new = json.loads(Path(new_path).read_text())
    print(f"# base {base_path}: {base['workload']} seed={base['seed']} "
          f"cpu={base['environment']['cpu_model']!r}")
    print(f"# new  {new_path}: {new['workload']} seed={new['seed']} "
          f"cpu={new['environment']['cpu_model']!r}")
    if (base["workload"], base["seed"]) != (new["workload"], new["seed"]):
        print("# workload or seed differ: hashes are not comparable")
    for section in ("end_to_end", "per_layer"):
        for key in sorted(set(base[section]) | set(new[section])):
            b, n = base[section].get(key), new[section].get(key)
            ratio = (f"{n / b:.4f}" if isinstance(b, (int, float))
                     and isinstance(n, (int, float)) and b else "n/a")
            print(f"{section} {key}: new/base = {ratio} "
                  f"(base {_fmt(b)}, new {_fmt(n)} {UNITS.get(key, '')})")
    changed = []
    for c in sorted(set(base["hashes"]) | set(new["hashes"])):
        files_b, files_n = base["hashes"].get(c, {}), new["hashes"].get(c, {})
        for f in sorted(set(files_b) | set(files_n)):
            if files_b.get(f) != files_n.get(f):
                changed.append(f"{c}: {f}")
    for line in changed:
        print(f"hash changed {line}")
    print(f"# {len(changed)} data file hash(es) changed")
    return 1 if changed else 0


# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        print("error: --workload or --compare is required", file=sys.stderr)
        return 2
    if not (SRC / "qpspec" / "cli.py").is_file():
        print(f"error: no qpspec source tree at {SRC}", file=sys.stderr)
        return 2

    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    results = []
    for name, trace in runs:
        res = run_workload(name, args.seed, args.seconds, trace)
        print_result(res)
        print(f"# wrote {save_result(res).relative_to(ROOT)}")
        results.append(res)

    if args.workload == "all":
        metrics = {f"{r['workload']}.{k}": {"value": _finite(v),
                                            "unit": UNITS[k]}
                   for r in results
                   for k, v in (r["per_layer"] or r["end_to_end"]).items()}
    else:
        res = results[0]
        values = res["per_layer"] if args.trace else res["end_to_end"]
        metrics = {k: {"value": _finite(v), "unit": UNITS[k]}
                   for k, v in values.items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
