"""Exception types shared across the toolkit.

Every failure mode that a caller is expected to handle programmatically has
its own class; anything else is a plain ValueError at the offending call
site.  The CLI maps these onto its exit-code contract.
"""

from __future__ import annotations


class QpspecError(Exception):
    """Base class for all toolkit-specific failures."""


class DiophantineRejection(QpspecError):
    """A frequency vector failed the small-divisor bound at construction.

    Attributes
    ----------
    n : tuple of int
        First violating integer vector (sup-norm ordering, then lexicographic).
    distance : float
        dist(<n, alpha>, Z) actually observed.
    required : float
        gamma / |n|^tau, the bound that was missed.
    """

    def __init__(self, n, distance, required):
        self.n = tuple(int(v) for v in n)
        self.distance = float(distance)
        self.required = float(required)
        super().__init__(
            f"frequency rejected at n={self.n}: "
            f"dist={self.distance:.6e} < required={self.required:.6e}"
        )


class BranchError(QpspecError):
    """Real matrix logarithm requested outside the principal branch domain."""


class DegreeError(QpspecError):
    """Winding-number extraction hit a degenerate (near-zero) column."""


class ResonanceError(QpspecError):
    """A step was routed to the wrong handler for the detected resonance,
    or two resonant sites fell inside one detection window."""


class DivisorError(QpspecError):
    """A small divisor fell below the safety floor while solving the
    linearized conjugation equation.

    Attributes
    ----------
    n : tuple of int
        Offending Fourier mode.
    divisor : float
        Magnitude of the smallest divisor encountered at that mode.
    """

    def __init__(self, n, divisor, message=""):
        self.n = tuple(int(v) for v in n)
        self.divisor = float(divisor)
        text = message or (
            f"divisor {self.divisor:.3e} below floor at mode n={self.n}"
        )
        super().__init__(text)


class DivergenceError(QpspecError):
    """The iterative conjugation scheme stopped contracting.

    Carries the per-step ledger accumulated so far in ``ledger``.
    """

    def __init__(self, message, ledger=None):
        self.ledger = ledger or []
        super().__init__(message)


class SizeError(QpspecError, ValueError):
    """An input asks for an array above the element cap
    (qpcore.array_elements); raised before the array is allocated."""


class EdgeSearchError(QpspecError, ValueError):
    """A gap's inventory edges fail gaps.confirm_gap: the gap is not
    wider than two windows, holds spectrum at its midpoint or just inside
    an edge, or has no spectrum just beyond an edge; a stale inventory."""


class ReductionError(QpspecError):
    """Reduction to the parabolic normal form failed a structural check
    (label mismatch, non-parabolic limit, null-vector degeneracy)."""


class LabelError(QpspecError):
    """No integer label matches an IDS plateau within tolerance."""


class AmbiguousLabelError(LabelError):
    """Two labels match one plateau: tolerance exceeds the Diophantine
    separation of the frequency, or the search ball is too large."""


class ConfigError(QpspecError):
    """Run configuration file is missing, malformed, or inconsistent."""


class StaleArtifactError(QpspecError):
    """A command consumed an on-disk artifact that does not contain the
    record it was pointed at (for example a gap label that was never
    produced by the referenced scan)."""
