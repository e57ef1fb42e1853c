"""In-memory spans around the public functions of each qpspec layer.

The tracer replaces every public function and public method of the layer
modules with a wrapper that records a span (name, start, end, parent).
A function imported by name into another module is the same object
there, so every module namespace that bound it is patched too; call-time
imports read the patched module attribute.  Spans are written as JSON
lines when the pipeline ends.

A few wrappers also add exact work counts computed from the call's
arguments or result, and the private Sturm kernel gets a count-and-time
hook that records no span.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

LAYERS = ("qpcore", "mat2", "cocycle", "rotnum", "spectrum", "gaps", "kam",
          "cli")

_clock = time.perf_counter


class Tracer:
    """Spans and work counts of one pipeline run, kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.stack = []
        self.counts = Counter()

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(None)
        self.stack.append(idx)
        self.starts.append(_clock())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = _clock()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "name": name, "start": self.starts[i],
                    "end": self.ends[i], "parent": self.parents[i],
                    "run": self.run_id}) + "\n")


# ---------------------------------------------------------------------------
# exact work counts taken from call arguments and results


def _arg(args, kwargs, pos: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _count_evaluate(counts, args, kwargs, result):
    series, theta = args[0], np.asarray(_arg(args, kwargs, 1, "theta"))
    counts["qpcore.evaluate.points"] += max(theta.size // series.dim, 1)


def _count_refine(counts, args, kwargs, result):
    gap = _arg(args, kwargs, 2, "gap")
    counts["gaps.refine.edges"] += 2
    counts["gaps.refine.moved"] += ((result.E_minus != gap.E_minus)
                                    + (result.E_plus != gap.E_plus))


def _count_lanes(counts, args, kwargs, result):
    energies = _arg(args, kwargs, 2, "energies")
    n_iters = _arg(args, kwargs, 4, "n_iters", 20000)
    counts["rotnum.lane_steps"] += len(energies) * int(n_iters)


def _count_orbit(counts, args, kwargs, result):
    counts["rotnum.orbit_steps"] += int(result.iterations)


def _count_cone(counts, args, kwargs, result):
    phases = _arg(args, kwargs, 1, "phases")
    orbit = _arg(args, kwargs, 2, "orbit")
    counts["cocycle.cone_steps"] += int(phases) * int(orbit)


def _count_ledger(counts, args, kwargs, result):
    counts["kam.ledger_steps"] += len(result.ledger)


def _count_emit(counts, args, kwargs, result):
    out_dir = _arg(args, kwargs, 2, "out_dir")
    counts["cli.emit_bytes"] += (Path(out_dir) / result).stat().st_size


COUNTERS = {
    "qpcore.FourierSeries.evaluate": _count_evaluate,
    "gaps.refine_gap_edges": _count_refine,
    "rotnum.schrodinger_rotation_grid": _count_lanes,
    "rotnum.rotation_number": _count_orbit,
    "cocycle.uniform_hyperbolicity_test": _count_cone,
    "kam.almost_reducibility_run": _count_ledger,
    "cli.emit_rows": _count_emit,
}


def _traced(tracer: Tracer, name: str, fn):
    count = COUNTERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if count is not None:
            count(tracer.counts, args, kwargs, result)
        return result

    return wrapper


def _kernel_hook(tracer: Tracer, fn):
    """Count rows x energies x phases of each Sturm pass and time it."""

    @functools.wraps(fn)
    def wrapper(diags, energies):
        t0 = _clock()
        out = fn(diags, energies)
        tracer.counts["spectrum.kernel_s"] += _clock() - t0
        tracer.counts["spectrum.sturm_cells"] += (
            diags.shape[0] * diags.shape[1] * len(energies))
        tracer.counts["spectrum.kernel_passes"] += 1
        return out

    return wrapper


def _public_functions(module):
    """(qualified span name, owner, attribute, function) of one layer."""
    layer = module.__name__.rsplit(".", 1)[-1]
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) \
                != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{layer}.{name}", module, name, obj
        elif inspect.isclass(obj):
            for attr, member in sorted(vars(obj).items()):
                if not attr.startswith("_") and inspect.isfunction(member):
                    yield f"{layer}.{name}.{attr}", obj, attr, member


def install(tracer: Tracer) -> int:
    """Wrap every layer's public functions in every namespace bound to them.

    Returns the number of replaced bindings.  Raises RuntimeError if any
    qpspec module still holds an unwrapped original afterwards.
    """
    import qpspec.cli  # noqa: F401  (loads every layer module)
    from qpspec import spectrum

    originals = {}
    replaced = 0
    for layer in LAYERS:
        module = sys.modules[f"qpspec.{layer}"]
        for span_name, owner, attr, fn in _public_functions(module):
            wrapped = _traced(tracer, span_name, fn)
            setattr(owner, attr, wrapped)
            originals[id(fn)] = (fn, wrapped)
            replaced += 1
    kernel = spectrum._pivot_counts
    originals[id(kernel)] = (kernel, _kernel_hook(tracer, kernel))

    modules = [m for n, m in sys.modules.items()
               if n == "qpspec" or n.startswith("qpspec.")]
    for module in modules:
        for name, value in list(vars(module).items()):
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, name, hit[1])
                replaced += 1
    for module in modules:
        for name, value in vars(module).items():
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                raise RuntimeError(f"{module.__name__}.{name} left unwrapped")
    return replaced
