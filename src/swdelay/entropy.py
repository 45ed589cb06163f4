"""Entropy helpers for finite alphabets.

All quantities are in bits.  Joint pmfs are 2-D arrays with rows indexed by
the X symbol and columns by the Y symbol.
"""

from __future__ import annotations

import numpy as np


def cond_entropy_x_given_y_bits(joint: np.ndarray) -> float:
    """H(X|Y) = H(X,Y) - H(Y) for a joint pmf over (x, y)."""
    return float(cond_entropies_bits(np.asarray(joint, dtype=float)[None])[0])


def row_divergences_bits(p: np.ndarray, q) -> np.ndarray:
    """The sum of p * log2(p / q) over the positive cells of every row of the
    2-D ``p``: D(p[t] || q) for pmfs, and -H(p[t]) for q = 1.  ``q`` is one
    row or a scalar, positive wherever a row of ``p`` is.

    Rows with the same number k of positive cells are summed together as a
    (rows, k) array, so each row's positive terms are added in the order a
    1-D ``np.sum`` over them uses: every value has the bits of a per-row sum.
    """
    pos = p > 0
    k = pos.sum(axis=1)
    out = np.zeros(len(p))
    for size in np.flatnonzero(np.bincount(k)):   # np.unique would import numpy.ma
        rows = np.flatnonzero(k == size)
        mask = pos[rows]
        pk = p[rows][mask].reshape(len(rows), size)
        qk = np.broadcast_to(q, mask.shape)[mask].reshape(pk.shape)
        out[rows] = (pk * np.log2(pk / qk)).sum(axis=1)
    return out


def cond_entropies_bits(joints: np.ndarray) -> np.ndarray:
    """H(X|Y) = H(X,Y) - H(Y) of every joint pmf of a (tables, ax, ay) stack."""
    tables, ax, ay = joints.shape
    h_xy = -row_divergences_bits(joints.reshape(tables, ax * ay), 1.0)
    h_y = -row_divergences_bits(joints.sum(axis=1), 1.0)
    return h_xy - h_y

