"""The Schrodinger transfer cocycle: its matrices.

The transfer cocycle of the potential V at energy E is the pair (alpha,
A) with A(theta) = [[E - V(theta), -1], [1, 0]]; its n-th iterate is the
ordered product A(theta + (n-1) alpha) ... A(theta).
"""

from __future__ import annotations

import numpy as np

__all__ = ["transfer_matrices"]


def transfer_matrices(energy: float, v) -> np.ndarray:
    """Transfer matrices [[E - v, -1], [1, 0]], shape v.shape + (2, 2)."""
    mats = np.zeros(np.shape(v) + (2, 2))
    mats[..., 0, 0] = energy - v
    mats[..., 0, 1] = -1.0
    mats[..., 1, 0] = 1.0
    return mats
