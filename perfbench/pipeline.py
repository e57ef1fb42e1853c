"""One pipeline repetition: a fixed sequence of qpspec CLI commands.

Run as ``python pipeline.py JOB.json`` in a fresh interpreter.  The job
names the source tree, the config, the commands and where to write the
result.  The interpreter imports ``qpspec.cli``, admits the config
(load, potential, frequency, numerics) and then runs each command through
``qpspec.cli.main`` in turn.  With tracing on, spans are kept in memory
and written as JSON lines after the last command.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path


def _peak_rss_kb() -> int:
    """This process's own resident high-water mark.

    getrusage's ru_maxrss is not used: Linux carries the parent's high-water
    mark into a spawned child, so it would report the benchmark's memory.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, job["src"])
    tracer = None
    if job["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import tracer as tracing
        tracer = tracing.Tracer(job["run_id"])

    def span(name):
        return tracer.span(name) if tracer else nullcontext()

    with span("cli.import"):
        import qpspec.cli as cli
    if tracer:
        tracing.install(tracer)
    with span("cli.admission"):
        cfg = cli.load_config(job["config"])
        cli.build_potential(cfg["potential"])
        cli.build_frequency(cfg["frequency"])
        cli.numerics_of(cfg)
    t_ready = time.perf_counter()

    commands = []
    for command in job["commands"]:
        error = None
        with span(f"cli.command.{command}"):
            try:
                rc = cli.main([command, "--config", job["config"],
                               "--out", "."])
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a traceback is a failed operation
                rc, error = 1, traceback.format_exc()
        commands.append({"command": command, "rc": rc, "error": error})

    result = {
        "t_ready": t_ready,
        "commands": commands,
        "peak_rss_kb": _peak_rss_kb(),
    }
    if tracer:
        tracer.write(Path(job["spans"]))
        result["counts"] = dict(tracer.counts)
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
