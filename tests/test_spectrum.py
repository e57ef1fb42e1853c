"""Eigenvalue counting, IDS convergence, spectral scan, and duality."""

from __future__ import annotations

import math
import os
import signal
from pathlib import Path

import numpy as np
import pytest

from _reference import dense, truncated_operator
from qpspec import spectrum
from qpspec.qpcore import (amo_potential, ck_potential, cosine_polynomial,
                           diophantine_check, dist_to_int, phase_samples)
from qpspec.rotnum import schrodinger_rotation_grid
from qpspec.spectrum import (
    IdsCurve,
    TruncatedOperator,
    _pivot_counts,
    _pruned_present,
    _shifted,
    ids_curve,
    spectrum_scan,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@pytest.fixture(scope="module")
def freq():
    return diophantine_check(GOLDEN, gamma=0.1, tau=1.5, cutoff=60)


def _zero_potential():
    return cosine_polynomial({0: 0.0})


def free_ids(E):
    """Closed form for the free operator: N(E) = 1 - arccos(E/2)/pi."""
    E = np.clip(E, -2.0, 2.0)
    return 1.0 - np.arccos(E / 2.0) / math.pi


# ---------------------------------------------------------------------------
# counting


def eigen_count_below(h, E):
    """Number of eigenvalues <= E of a single-phase truncation."""
    return round(h.ids(E)[0] * h.size)


def test_count_three_site_free(freq):
    h = truncated_operator(_zero_potential(), freq, 0.0, 1)
    # eigenvalues -sqrt2, 0, sqrt2
    assert eigen_count_below(h, -1.5) == 0
    assert eigen_count_below(h, -1.0) == 1
    assert eigen_count_below(h, 0.5) == 2
    assert eigen_count_below(h, 10.0) == 3


def test_count_closed_inequality(freq):
    h = truncated_operator(_zero_potential(), freq, 0.0, 1)
    # exact eigenvalue hits are included by the upward nudge
    assert eigen_count_below(h, 0.0) == 2
    assert eigen_count_below(h, math.sqrt(2.0)) == 3
    assert eigen_count_below(h, -math.sqrt(2.0)) == 1


def test_count_matches_dense_solver(freq):
    V = amo_potential(0.64)
    for theta in (0.0, 0.21, 0.77):
        h = truncated_operator(V, freq, theta, 30)
        evals = np.linalg.eigvalsh(dense(h))
        for E in (-2.5, -1.0, -0.3, 0.2, 1.4, 2.9):
            assert eigen_count_below(h, E) == int((evals <= E).sum())


def test_count_monotone_and_saturates(freq):
    V = amo_potential(0.5)
    h = truncated_operator(V, freq, 0.3, 50)
    grid = np.linspace(-4.0, 4.0, 81)
    counts = [eigen_count_below(h, e) for e in grid]
    assert all(b >= a for a, b in zip(counts, counts[1:]))
    assert eigen_count_below(h, -2.0 - 1.0 - 1e-6) == 0
    assert eigen_count_below(h, 2.0 + 1.0 + 1e-6) == h.size


# ---------------------------------------------------------------------------
# IDS


def _ids_at(V, freq, E, L, phases):
    """Phase-averaged eigenvalue counting function at one energy."""
    return float(TruncatedOperator.sampled(V, freq, L, phases).ids(E)[0])


def test_ids_free_midpoint(freq):
    val = _ids_at(_zero_potential(), freq, 0.0, 2000, phases=2)
    assert val == pytest.approx(0.5, abs=1e-3)


def test_ids_free_closed_form(freq):
    val = _ids_at(_zero_potential(), freq, 1.0, 5000, phases=2)
    assert val == pytest.approx(2.0 / 3.0, abs=2e-3)


def test_ids_outside_spectrum(freq):
    assert _ids_at(_zero_potential(), freq, -2.5, 500, phases=2) == 0.0
    assert _ids_at(_zero_potential(), freq, 2.5, 500, phases=2) == 1.0


def test_ids_requires_scale(freq):
    with pytest.raises(ValueError):
        _ids_at(_zero_potential(), freq, 0.0, 50, phases=2)


def test_ids_curve_monotone(freq):
    curve = ids_curve(amo_potential(0.3), freq, np.linspace(-3, 3, 101),
                      400, phases=4)
    assert np.all(np.diff(curve.values) >= 0)
    assert curve.values[0] == 0.0
    assert curve.values[-1] == 1.0
    assert isinstance(curve, IdsCurve)


def test_ids_curve_matches_free_closed_form(freq):
    grid = np.linspace(-2.5, 2.5, 41)
    curve = ids_curve(_zero_potential(), freq, grid, 2000, phases=2)
    assert np.abs(curve.values - free_ids(grid)).max() <= 2e-3


def test_ids_L_stability(freq):
    V = amo_potential(0.3)
    rng = np.random.default_rng(31)
    grid = np.sort(rng.uniform(-2.5, 2.5, size=5))
    a = ids_curve(V, freq, grid, 300, phases=4).values
    b = ids_curve(V, freq, grid, 600, phases=4).values
    assert np.abs(a - b).max() <= 5.0 / 300.0


# ---------------------------------------------------------------------------
# scan


def test_scan_free_single_band(freq):
    intervals = spectrum_scan(_zero_potential(), freq, 5000, phases=1,
                              resolution=2.5e-3)
    assert len(intervals) == 1
    lo, hi = intervals[0]
    assert lo == pytest.approx(-2.0, abs=5e-3)
    assert hi == pytest.approx(2.0, abs=5e-3)


def test_scan_constant_shift(freq):
    intervals = spectrum_scan(cosine_polynomial({0: 0.7}), freq, 3000,
                              phases=1, resolution=5e-3)
    assert len(intervals) == 1
    lo, hi = intervals[0]
    assert lo == pytest.approx(-1.3, abs=1e-2)
    assert hi == pytest.approx(2.7, abs=1e-2)


def test_scan_amo_largest_gap_plateau(freq):
    V = amo_potential(0.3)
    intervals = spectrum_scan(V, freq, 600, phases=6, resolution=5e-3)
    assert len(intervals) >= 2
    # largest inner gap
    gaps = [(intervals[i + 1][0] - intervals[i][1], intervals[i][1],
             intervals[i + 1][0]) for i in range(len(intervals) - 1)]
    width, glo, ghi = max(gaps)
    assert width > 0.1
    mid = 0.5 * (glo + ghi)
    plateau = _ids_at(V, freq, mid, 600, phases=6)
    alpha = freq.alpha[0]
    assert min(abs(plateau - alpha), abs(plateau - (1 - alpha))) <= 5e-3


def _scan_operators(freq):
    """(name, operator) pairs across couplings, families and dimensions."""
    freq2 = diophantine_check((GOLDEN, math.sqrt(2.0) - 1.0), gamma=0.01,
                              tau=2.5, cutoff=20)
    cases = [(f"amo {c}", amo_potential(c), freq)
             for c in (0.004, 0.3, 1.5, 3.0)]
    cases += [("cosine", cosine_polynomial({1: 0.5, 2: 0.3}), freq),
              ("ck", ck_potential(0.01, 6, range(1, 9)), freq),
              ("2-D", cosine_polynomial({(1, 0): 0.4, (0, 1): 0.3}, dim=2),
               freq2)]
    for name, V, f in cases:
        for phases in (1, 8):
            yield (f"{name}, {phases} phases", V,
                   TruncatedOperator.sampled(V, f, 400, phases))


@pytest.mark.parametrize("edges", [2, 3, 8, 9, 17, 800, 801, 2605])
def test_pruned_presence_equals_full_presence(freq, edges):
    # the coarse-to-fine scan marks exactly the cells one wide pass marks,
    # whatever the mesh length modulo the stride
    for name, V, H in _scan_operators(freq):
        reach = 2.1 + float(V.sup_norm())
        mesh = np.linspace(-reach, reach, edges)
        assert np.array_equal(_pruned_present(H, mesh), H.present(mesh)), \
            name


def test_scan_counts_few_edges_in_two_passes(freq, monkeypatch):
    # AMO 0.3: a fifth of the mesh lies outside the hull and a third of the
    # hull is gap, so the fine pass skips most of both
    passes = []
    kernel = spectrum._pivot_counts

    def counted(diags, energies):
        passes.append(len(energies))
        return kernel(diags, energies)

    monkeypatch.setattr(spectrum, "_pivot_counts", counted)
    V, resolution = amo_potential(0.3), 2e-3
    spectrum_scan(V, freq, 1000, 8, resolution)
    reach = 2.0 + float(V.sup_norm()) + 2.0 * resolution
    edges = math.ceil(2.0 * reach / resolution) + 1
    assert len(passes) == 2
    assert sum(passes) <= 0.7 * edges


def test_scan_mesh_spans_every_dense_eigenvalue(freq, monkeypatch):
    # sup |V| = 45 at theta = 1/2, which the 9-point mesh of sup_norm
    # misses (39.68); the hull from ck_norm(V, 0) = 45 holds every
    # eigenvalue, the lowest at -45.03
    V = cosine_polynomial({1: 30.0, 2: -15.0})
    seen = []
    pruned = spectrum._pruned_present

    def spy(H, edges):
        seen.append((H, edges))
        return pruned(H, edges)

    monkeypatch.setattr(spectrum, "_pruned_present", spy)
    spectrum_scan(V, freq, 500, 8, 0.05)
    (H, edges), = seen
    for diag in H.diag:
        evals = np.linalg.eigvalsh(dense(TruncatedOperator(500, diag)))
        assert edges[0] < evals[0] and evals[-1] < edges[-1]


def test_scan_counts_on_the_operator_it_is_given(freq):
    V = amo_potential(0.3)
    H = TruncatedOperator.sampled(V, freq, 600, 6)
    assert spectrum_scan(V, freq, 600, 6, 5e-3, operator=H) == \
        spectrum_scan(V, freq, 600, 6, 5e-3)
    with pytest.raises(ValueError, match="operator"):
        spectrum_scan(V, freq, 600, 8, 5e-3, operator=H)


# ---------------------------------------------------------------------------
# duality


def _duality(V, freq, E, L, iters, phases=8):
    """(N, rho, dist(N - (1 - 2 rho), Z)) from the two independent
    estimators: the phase-averaged Sturm count and the rotation grid."""
    N = _ids_at(V, freq, E, L, phases)
    rho = float(schrodinger_rotation_grid(V, freq, [E], n_iters=iters)[0][0])
    return N, rho, dist_to_int(N - (1.0 - 2.0 * rho))


def test_duality_free_center(freq):
    N, rho, defect = _duality(_zero_potential(), freq, 0.0, 2000, 20000)
    assert N == pytest.approx(0.5, abs=1e-3)
    assert rho == pytest.approx(0.25, abs=1e-4)
    assert defect <= 2e-3


def test_duality_above_spectrum(freq):
    N, rho, defect = _duality(_zero_potential(), freq, 2.5, 1000, 5000)
    assert N == pytest.approx(1.0, abs=1e-9)
    # O(1/n) transient while the tracked vector aligns with the
    # expanding direction
    assert rho == pytest.approx(0.0, abs=1e-4)
    assert defect <= 1e-3


def test_duality_amo_grid(freq):
    V = amo_potential(0.3)
    for E in (-1.8, -0.7, 0.0, 0.9, 1.6):
        N, rho, defect = _duality(V, freq, E, 800, 30000)
        assert defect <= 5e-3, (E, N, rho)


# ---------------------------------------------------------------------------
# admission and the phase-sampled operator


def test_ids_curve_rejects_zero_phases(freq):
    with pytest.raises(ValueError, match="phases"):
        ids_curve(amo_potential(0.3), freq, np.linspace(-2, 2, 5), 200, 0)


def test_scan_rejects_zero_phases(freq):
    with pytest.raises(ValueError, match="phases"):
        spectrum_scan(amo_potential(0.3), freq, 200, 0, 0.05)


def test_ids_curve_rejects_non_finite_values():
    grid = np.linspace(-1.0, 1.0, 3)
    with pytest.raises(ValueError, match="finite"):
        IdsCurve(grid, np.full(3, np.nan))


def test_sampled_rows_match_single_phase_builds(freq):
    V = amo_potential(0.3)
    stack = TruncatedOperator.sampled(V, freq, 300, 4)
    assert stack.diag.shape == (4, 601)
    for j, theta in enumerate(phase_samples(1, 4)):
        row = truncated_operator(V, freq, theta, 300).diag
        assert np.array_equal(stack.diag[j], row)


def test_sampled_ids_and_presence(freq):
    H = TruncatedOperator.sampled(_zero_potential(), freq, 400, 3)
    assert np.array_equal(H.ids([-2.5, 2.5]), [0.0, 1.0])
    # the free band [-2, 2] holds eigenvalues at every phase; outside
    # it no phase does
    assert H.present([-3.0, -2.5, -0.1, 0.1, 2.5, 3.0]).tolist() == [
        False, True, True, True, False]


def test_counts_reject_nan_energies(freq):
    H = TruncatedOperator.sampled(_zero_potential(), freq, 200, 2)
    for bad in (np.nan, -np.nan):
        with pytest.raises(ValueError, match="NaN"):
            H.ids([0.5, bad])
    assert np.array_equal(H.ids([-np.inf, np.inf]), [0.0, 1.0])


def test_sturm_counting_has_one_owner():
    import ast

    import qpspec.spectrum

    src = Path(qpspec.spectrum.__file__).parent
    gaps_tree = ast.parse((src / "gaps.py").read_text())
    private = [a.name for node in ast.walk(gaps_tree)
               if isinstance(node, ast.ImportFrom)
               and node.module == "spectrum"
               for a in node.names if a.name.startswith("_")]
    assert private == []
    users = sorted(path.name for path in src.glob("*.py")
                   if "_pivot_counts" in path.read_text())
    assert users == ["spectrum.py"]
    # one module forks, for the split Sturm pass, and its children write
    # their counts into a shared mapping, not through pipes
    trees = {path.name: list(ast.walk(ast.parse(path.read_text())))
             for path in src.glob("*.py")}
    forks = sorted(name for name, nodes in trees.items()
                   if any(isinstance(node, ast.Attribute)
                          and node.attr == "fork" for node in nodes))
    assert forks == ["spectrum.py"]
    pipes = sorted(name for name, nodes in trees.items()
                   if any(isinstance(node, ast.Call)
                          and isinstance(node.func, ast.Attribute)
                          and node.func.attr == "pipe"
                          and getattr(node.func.value, "id", None) == "os"
                          for node in nodes))
    assert pipes == []
    mmaps = sorted(name for name, nodes in trees.items()
                   if any((isinstance(node, ast.Import)
                           and any(a.name == "mmap" for a in node.names))
                          or (isinstance(node, ast.ImportFrom)
                              and node.module == "mmap") for node in nodes))
    assert mmaps == ["spectrum.py"]
    # the gap re-check is the one library caller of present; the Sturm
    # edge refinement it replaced stays gone
    present = sorted(f"{name[:-3]}.{fn.name}"
                     for name, nodes in trees.items() for fn in nodes
                     if isinstance(fn, ast.FunctionDef)
                     for node in ast.walk(fn)
                     if isinstance(node, ast.Attribute)
                     and node.attr == "present")
    assert present == ["gaps.confirm_gap"]
    deleted = {"refine_gap_edges", "_present", "_lockstep", "_bisection",
               "_first", "_edge_search", "_TRUE_CHUNKS", "_FALSE_CHUNKS",
               "_BISECT_STEPS", "_LEVELS"}
    defined = sorted(
        name for name, nodes in trees.items() for node in nodes
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name in deleted
        or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
        and node.id in deleted)
    assert defined == []
    # the CLI scans in one place, the helper that may reuse a stored scan
    cli_tree = ast.parse((src / "cli.py").read_text())
    scans = [node for node in ast.walk(cli_tree)
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None))
             == "spectrum_scan"]
    assert len(scans) == 1


def _pivot_counts_floored(diags, energies):
    """The row-by-row kernel with an exact-zero pivot floor, kept here as
    the reference for the in-place one."""
    shift = _shifted(energies)[:, None]
    size = diags.shape[1]
    count = np.zeros((shift.shape[0], diags.shape[0]), dtype=np.int64)
    d = np.ones_like(count, dtype=float)
    first = True
    for row in range(size):
        a = diags[:, row][None, :] - shift
        d = a if first else a - 1.0 / d
        first = False
        d = np.where(d == 0.0, -1e-300, d)
        count += d < 0.0
    return count


def _kernel_cases():
    rng = np.random.default_rng(5)
    for phases, size, n_e in ((3, 40, 5), (8, 601, 7), (4, 7, 20000)):
        yield rng.normal(size=(phases, size)), rng.normal(size=n_e) * 2.0
    # integer diagonals and energies: exact zero pivots mid-chain
    yield (rng.integers(-2, 3, size=(6, 30)).astype(float),
           np.arange(-3.0, 4.0))
    # +0 on the last row ([1, 1] at E = 0), -0 on the first and last rows
    # ([-0, -0, -0] at E = 0: -0, +inf, -0), and +0 then -inf
    yield np.array([[1.0, 1.0]]), np.array([0.0])
    yield np.array([[-0.0, -0.0, -0.0]]), np.array([0.0, -0.0])
    yield np.array([[1.0, 1.0, 1.0, 3.0]]), np.array([0.0, 1.0])
    yield rng.choice([0.0, -0.0, 1.0, -1.0], size=(5, 25)), np.array(
        [0.0, -0.0, 1.0, -1.0])
    # E = +-0 on an all-zero diagonal of either sign
    for size in (1, 2, 5, 300):
        for zero in (0.0, -0.0):
            yield np.full((2, size), zero), np.array([0.0, -0.0])
    # every pivot negative, so whole blocks of rows count
    yield np.full((2, 600), -10.0), np.array([0.0, 1.0])
    # a single energy and a single phase
    yield rng.normal(size=(1, 50)), np.array([0.3])


def _assert_kernel_matches_floored_reference():
    for diags, energies in _kernel_cases():
        want = _pivot_counts_floored(diags, energies)
        got = _pivot_counts(diags, energies)
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def test_pivot_kernel_matches_floored_reference():
    _assert_kernel_matches_floored_reference()


@pytest.fixture
def forced_split(monkeypatch):
    """Split every pass of two or more energies into up to three chunks."""
    monkeypatch.setattr(spectrum, "_SPLIT_CELLS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})


def _forks(monkeypatch):
    """The list that every os.fork call appends its result to."""
    calls = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            calls.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return calls


def test_split_kernel_matches_floored_reference(forced_split, monkeypatch):
    forks = _forks(monkeypatch)
    _assert_kernel_matches_floored_reference()
    assert forks
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_split_counts_every_chunk_when_fork_fails(forced_split,
                                                  monkeypatch):
    def refused():
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", refused)
    _assert_kernel_matches_floored_reference()


def _raise_in_child():
    raise RuntimeError("child failed")


def _sigkill_in_child():
    # the end the OOM killer gives a child: no exit status of its own
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("fail", [_raise_in_child, _sigkill_in_child],
                         ids=["raises", "sigkill"])
def test_split_counts_the_chunk_of_a_failed_child(forced_split,
                                                  monkeypatch, fail):
    parent = os.getpid()
    rows = spectrum._pivot_rows

    def fails_in_child(diags, energies):
        if os.getpid() != parent:
            fail()
        return rows(diags, energies)

    monkeypatch.setattr(spectrum, "_pivot_rows", fails_in_child)
    forks = _forks(monkeypatch)
    _assert_kernel_matches_floored_reference()
    assert forks


def test_split_result_owns_its_memory(forced_split):
    fd_dir = Path("/proc/self/fd")
    fds = len(os.listdir(fd_dir)) if fd_dir.is_dir() else None
    rng = np.random.default_rng(11)
    diags = rng.normal(size=(3, 200))
    first = _pivot_counts(diags, rng.normal(size=7))
    kept = first.copy()
    second = _pivot_counts(diags, rng.normal(size=5))
    for counts in (first, second):
        assert counts.dtype == np.int64
        assert counts.flags.owndata
    assert np.array_equal(first, kept)
    if fds is not None:
        assert len(os.listdir(fd_dir)) <= fds


def test_split_kills_its_children_when_the_parent_raises(forced_split,
                                                         monkeypatch):
    parent = os.getpid()
    rows = spectrum._pivot_rows

    def interrupted(diags, energies):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return rows(diags, energies)

    monkeypatch.setattr(spectrum, "_pivot_rows", interrupted)
    forks = _forks(monkeypatch)
    diags, energies = np.zeros((4, 300)), np.linspace(-1.0, 1.0, 9)
    with pytest.raises(KeyboardInterrupt):
        _pivot_counts(diags, energies)
    assert len(forks) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_one_cpu_never_forks(monkeypatch):
    monkeypatch.setattr(spectrum, "_SPLIT_CELLS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    forks = _forks(monkeypatch)
    _assert_kernel_matches_floored_reference()
    assert forks == []


def test_small_passes_and_single_energies_stay_serial(monkeypatch):
    monkeypatch.setattr(spectrum, "_SPLIT_CELLS", 1200)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forks = _forks(monkeypatch)
    rng = np.random.default_rng(3)
    # one cell short of the split, and one energy over it
    _pivot_counts(rng.normal(size=(4, 149)), np.zeros(2))
    _pivot_counts(rng.normal(size=(1, 1200)), np.zeros(1))
    assert forks == []
    _pivot_counts(rng.normal(size=(4, 150)), np.zeros(2))
    assert len(forks) == 1
