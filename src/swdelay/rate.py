"""Minimum joint encoding rate as a quantile of accumulated conditional entropy.

The encoder only learns the marginal group of each block, so after K blocks
the admissible-rate question is a tail query on the distribution of the sum
of K conditional entropies, each drawn from its group's conditional prior.
``RateAccumulator`` maintains that sum distribution by incremental
convolution and answers the quantile of the outage constraint: the smallest
rate R with P{sum > R} <= epsilon (outage is strict exceedance, which makes
the quantile attainable on discrete support).

Internally the distribution lives on an arithmetic lattice, chosen once per
model.  When every entropy value in the model is a multiple (up to 1e-9) of a
common step of at least 1e-3 bit, the lattice is exact and the support is the
exact value list; otherwise values are rounded *up* to a coarse 1e-3-bit
grid, which can only overestimate the quantile and therefore preserves the
outage guarantee.  Either way the lattice is never finer than the coarse
grid, so the support grows linearly in the number of pushes; it is not
capped.

Each push is a direct convolution with the group's pmf on the lattice (its
kernel).  On the coarse grid a kernel spans hundreds of cells but holds only
as many atoms as the group has members, so a sparse kernel is convolved by
shifted adds over its atoms instead of through its zero cells.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .bounds import k_c_chernoff
from .model import (ModelError, SourceModel, check_channel_rate, check_count, check_epsilon,
                    compute_stats)

H_RES_EXACT = 1e-9
H_RES_COARSE = 1e-3

# index-space slack when locating a strict-exceedance threshold on the
# lattice: absorbs float rounding of K*c without ever crossing a full step
_IDX_EPS = 1e-6

# A kernel is convolved over its atoms when its span is at least this many
# cells per atom.  Measured on a 2-core Xeon (numpy 2.4.6), the atom path
# overtakes np.convolve above 7.5 cells per atom for a 3 000-point sum and a
# 128-cell kernel, and above 57 cells per atom for a 300-point sum and a
# 512-cell kernel (each atom costs about 1.5 us of call overhead).  Coarse
# kernels of ingested models have 60-240 cells per atom; the demo model's
# kernels have no empty cell and always take the dense path.
_CELLS_PER_ATOM = 16


def _lattice_step(values: np.ndarray) -> float | None:
    """Common arithmetic step of the values (approximate gcd, to within
    ``H_RES_EXACT``), or None when there is none of at least ``H_RES_COARSE``
    (a finer lattice would hold more cells than the coarse grid)."""
    step = 0.0
    for v in np.abs(np.asarray(values, dtype=float)):
        a, b = step, float(v)
        while b > H_RES_EXACT:
            a, b = b, math.fmod(a, b)
        step = a
    # snap to a round value when one fits (keeps exact decimal lattices exact)
    rounded = round(step, 9)
    if rounded > 0 and all(
        abs(v / rounded - round(v / rounded)) * rounded <= H_RES_EXACT for v in values
    ):
        step = rounded
    if step < H_RES_COARSE or any(
        abs(v / step - round(v / step)) * step > H_RES_EXACT for v in values
    ):
        return None
    return step


class _Kernel(NamedTuple):
    """A group pmf on the lattice: offset index, dense cells, the cells reversed
    (None for a point mass of 1.0, which only shifts the sum), and its
    ``(cell, prob)`` atoms when sparse enough to convolve over (else None)."""

    off: int
    dense: np.ndarray
    rev: np.ndarray
    atoms: tuple[tuple[int, float], ...] | None


def _convolve_atoms(
    dense: np.ndarray, atoms: tuple[tuple[int, float], ...], span: int
) -> np.ndarray:
    """np.convolve(dense, kernel) for a kernel of ``span`` cells given by its atoms."""
    n = len(dense)
    out = np.zeros(n + span - 1)
    buf = np.empty(n)   # one product buffer; each cell still adds the atoms in order
    for j, p in atoms:
        np.multiply(dense, p, out=buf)
        seg = out[j:j + n]
        np.add(seg, buf, out=seg)
    return out


class RateAccumulator:
    """Running distribution of the conditional entropy sum, one push per block.

    Single-owner mutable state; all queries are pure given the pushed groups.
    A dense push makes ``np.convolve``'s own ``np.correlate`` call, on a kernel
    reversed once here, so its bits are ``np.convolve``'s.
    """

    def __init__(self, model: SourceModel):
        step = _lattice_step(np.array([e.cond_entropy for e in model.entries], dtype=float))
        self.exact = step is not None
        self._step = step if self.exact else H_RES_COARSE

        self._model = model  # owns the group-index check
        # per-group kernels; on the coarse grid entry values are rounded up, never down
        self._gpmf = {g: self._densify(*model.conditional_pmf(g)) for g in range(1, model.m + 1)}

        self._dense = np.ones(1)
        self._off = 0
        self.k = 0

    def _index_of(self, value: float) -> int:
        q = value / self._step
        if self.exact:
            return int(round(q))
        return int(math.ceil(q - _IDX_EPS))  # round up: conservative

    def _densify(self, vals: np.ndarray, probs: np.ndarray) -> _Kernel:
        idx = np.array([self._index_of(v) for v in vals], dtype=np.int64)
        off = int(idx.min())
        dense = np.zeros(int(idx.max()) - off + 1)
        np.add.at(dense, idx - off, probs)
        nz = np.flatnonzero(dense)
        atoms = None
        if len(dense) >= _CELLS_PER_ATOM * len(nz):
            atoms = tuple(zip(nz.tolist(), dense[nz].tolist()))
        # np.convolve with [1.0] multiplies every cell by 1.0, which is exact
        rev = None if dense.tolist() == [1.0] else dense[::-1].copy()
        return _Kernel(off, dense, rev, atoms)

    def reset(self) -> None:
        self._dense = np.ones(1)
        self._off = 0
        self.k = 0

    def push_block(self, group: int) -> "RateAccumulator":
        """Convolve in the conditional entropy pmf of the observed group."""
        try:  # the pushes of a run are in-range Python ints: one type test, one lookup
            off, kernel, rev, atoms = self._gpmf[group if type(group) is int else None]
        except KeyError:  # the model's group-index check raises, or passes a numpy int
            self._model.group_entries(group)
            off, kernel, rev, atoms = self._gpmf[int(group)]
        dense = self._dense
        if atoms is not None:
            self._dense = _convolve_atoms(dense, atoms, len(kernel))
        elif rev is None:  # a point mass: the cells stay, the offset moves
            pass
        elif len(dense) >= len(kernel):  # np.convolve slides the longer operand
            self._dense = np.correlate(dense, rev, "full")
        else:
            self._dense = np.correlate(kernel, dense[::-1], "full")
        self._off += off
        self.k += 1
        return self

    def _tail_index(self, threshold: float) -> int:
        """Index of the first cell strictly above ``threshold``."""
        return int(math.floor(threshold / self._step - self._off + _IDX_EPS)) + 1

    def tail_above(self, threshold: float) -> float:
        """P{accumulated sum > threshold} (strict exceedance)."""
        # np.add.reduce is the reduction ndarray.sum runs, without its wrapper;
        # it sums an empty slice, past the last cell, to 0.0
        return float(np.add.reduce(self._dense[max(self._tail_index(threshold), 0):]))

    def tail_exceeds(self, threshold: float, epsilon: float) -> bool:
        """``tail_above(threshold) > epsilon``, bit for bit, mostly without the sum.

        The cells are nonnegative, so every partial sum of ``np.add.reduce``
        adds nonnegative operands, and round-to-nearest is monotone: the
        reduction never returns less than any one of its cells.  A first cell
        above epsilon therefore decides the test exactly; only otherwise is the
        tail summed.
        """
        dense = self._dense
        i = self._tail_index(threshold)
        if 0 < i < len(dense) and dense[i] > epsilon:
            return True
        return self.tail_above(threshold) > epsilon

    def rate_quantile(self, epsilon: float) -> float:
        """Smallest support value R with P{sum > R} <= epsilon (bits, cumulative)."""
        check_epsilon(epsilon)
        if self.k < 1:
            raise ValueError("empty accumulator: push at least one block first")
        dense = self._dense
        # strict tails summed down from the top: a difference from the total
        # cannot resolve a tail below the total's rounding (~1e-16).  up[j] is
        # the tail above cell n-2-j; it never decreases, as adding a nonnegative
        # cell never lowers a float sum, so the cells whose tail is <= epsilon
        # are those from n-1-(number of up <= epsilon) on
        up = np.cumsum(dense[:0:-1])
        i = len(dense) - 1 - int(up.searchsorted(epsilon, "right"))
        # the cell below an empty one has the same tail, so only an empty
        # lowest cell (left by underflow) can come first
        if not dense[i]:
            i += int(np.flatnonzero(dense[i:])[0])
        return float((self._off + i) * self._step)

    def distribution(self) -> tuple[np.ndarray, np.ndarray]:
        """Support (bits) and probabilities of the accumulated sum."""
        nz = np.flatnonzero(self._dense)
        return (self._off + nz) * self._step, self._dense[nz].copy()


def rate_unconditional(model: SourceModel, K: int, epsilon: float) -> float:
    """Quantile of the K-fold convolution of the full prior (no marginal info)."""
    K = check_count("block count", K)
    check_epsilon(epsilon)
    acc = RateAccumulator(model.collapse_marginals())
    for _ in range(K):
        acc.push_block(1)
    return acc.rate_quantile(epsilon)


def k_c(model: SourceModel, c: float, epsilon: float) -> int:
    """Smallest K with P{sum of K entropies > K*c} <= epsilon (exact DP).

    K = 1 is the simulator's one-block test on the rate grid (the coarse grid
    rounds h_max up).  Beyond it the search runs on the grid's one-block law:
    when its mean lies below c, Hoeffding's bound ends the search at K_c, with
    no cutoff.  Otherwise (the coarse grid rounded the mean up to c or above)
    it stops at 10x the Chernoff size of the model's entropies and raises
    ModelError there: a skewed law can still close at small K when eps >= 1/4.
    """
    check_epsilon(epsilon)
    check_channel_rate(c)
    stats = compute_stats(model)
    if c <= stats.e_h:
        raise ModelError(
            f"no finite batch size exists: channel rate {c!r} does not exceed "
            f"the mean conditional entropy {stats.e_h!r}"
        )
    acc = RateAccumulator(model.collapse_marginals())
    acc.push_block(1)
    if not acc.tail_exceeds(c, epsilon):
        return 1
    support, probs = acc.distribution()
    mean = float(probs @ support)  # the one-block mean on the rate grid
    # below c no cutoff is needed: by Hoeffding a tail at K*c is at most
    # exp(-2K (c - mean)^2 / R^2) for a law of span R
    cutoff = math.inf if mean < c - _IDX_EPS * acc._step else max(
        8, 10 * k_c_chernoff(stats, 1.0 - stats.e_h / c, epsilon).k_int)
    K = 1
    while K < cutoff:
        K += 1
        acc.push_block(1)
        if not acc.tail_exceeds(K * c, epsilon):
            return K
    raise ModelError(
        f"batch-size search passed its cutoff of {cutoff} blocks: the rate grid "
        f"rounds each entropy up to a multiple of {acc._step} bit, to a mean of "
        f"{mean:.6g} against the channel rate {c:.6g}")
