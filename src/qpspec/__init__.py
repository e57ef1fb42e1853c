"""Spectral toolkit for one-dimensional discrete quasi-periodic Schrodinger
operators.

The operator acting on l^2(Z) is

    (H u)_n = u_{n+1} + u_{n-1} + V(theta + n*alpha) u_n

with V a real trigonometric polynomial on the d-torus (d <= 3) and alpha a
Diophantine frequency vector.  The package computes spectra, the integrated
density of states, fibered rotation numbers, labelled spectral gaps with
their decay profile, homogeneity diagnostics of the spectrum as a set, and
numerical almost-reducibility of the associated SL(2,R) cocycles down to
the parabolic normal form at gap edges.
"""

__version__ = "0.1.0"

from .qpcore import (
    Frequency,
    FourierSeries,
    diophantine_check,
    ck_norm,
    cosine_polynomial,
)
from .errors import (
    DiophantineRejection,
    BranchError,
    DegreeError,
    ResonanceError,
    DivisorError,
    DivergenceError,
    ReductionError,
    ConfigError,
    StaleArtifactError,
)

__all__ = [
    "Frequency",
    "FourierSeries",
    "diophantine_check",
    "ck_norm",
    "cosine_polynomial",
    "DiophantineRejection",
    "BranchError",
    "DegreeError",
    "ResonanceError",
    "DivisorError",
    "DivergenceError",
    "ReductionError",
    "ConfigError",
    "StaleArtifactError",
    "__version__",
]
