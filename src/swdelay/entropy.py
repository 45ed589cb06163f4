"""Entropy helpers for finite alphabets.

All quantities are in bits.  Joint pmfs are 2-D arrays with rows indexed by
the X symbol and columns by the Y symbol.
"""

from __future__ import annotations

import numpy as np


def entropy_bits(pmf: np.ndarray) -> float:
    """Shannon entropy of a pmf (any shape; zeros contribute nothing)."""
    p = np.asarray(pmf, dtype=float).ravel()
    p = p[p > 0]
    return float(-np.sum(p * np.log2(p)))


def marginal_x(joint: np.ndarray) -> np.ndarray:
    return np.asarray(joint, dtype=float).sum(axis=1)


def marginal_y(joint: np.ndarray) -> np.ndarray:
    return np.asarray(joint, dtype=float).sum(axis=0)


def cond_entropy_x_given_y_bits(joint: np.ndarray) -> float:
    """H(X|Y) = H(X,Y) - H(Y) for a joint pmf over (x, y)."""
    joint = np.asarray(joint, dtype=float)
    return entropy_bits(joint) - entropy_bits(marginal_y(joint))

