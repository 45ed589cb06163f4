"""Model construction from symbol traces.

A paired symbol trace is cut into blocks of n symbols, each block is reduced
to its empirical joint pmf, and the relative entropy of every block against
block 1 becomes the quantization coordinate: the range of those divergences
is split into equal-width intervals, each occupied interval becomes one
joint-cdf level, and the block closest to the interval midpoint represents
the level.  The same procedure applied to the two marginal sequences yields
the marginal groups, and the occupancy fractions become the prior.

Marginal quantization is independent of the joint quantization and can
therefore break the members-share-marginals invariant; a final repair step
fits every member pmf to its group representative's marginals (iterative
proportional fitting, all members in one stacked pass) and reports the
distortion it introduced.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .entropy import cond_entropy_x_given_y_bits
from .model import CdfEntry, SourceModel


class IngestError(ValueError):
    """Raised on malformed traces or impossible quantization requests."""


@dataclass(frozen=True)
class TraceBlock:
    index: int
    joint_pmf: np.ndarray
    marginal_x: np.ndarray
    marginal_y: np.ndarray
    d_to_ref: float
    d_to_ref_x: float
    d_to_ref_y: float


@dataclass(frozen=True)
class BlockAssignment:
    block: int
    group: int   # 0 when the block was quarantined
    member: int
    d_to_ref: float


@dataclass(frozen=True)
class IngestResult:
    model: SourceModel
    assignment: tuple[BlockAssignment, ...]
    marginal_distortion: float   # largest total-variation change of the repair
    quarantined: tuple[int, ...]  # blocks with infinite divergence to block 1


_CHUNK = 1 << 16   # bound on the symbols and on the count cells of one bincount


def blockify(trace, n: int, alphabet_x: int | None = None,
             alphabet_y: int | None = None) -> list[TraceBlock]:
    """Cut a paired symbol trace into blocks with empirical statistics.

    ``trace`` is a sequence of (x, y) integer pairs (array-like of shape
    (N, 2)).  A trailing partial block is dropped.  Divergences use the
    conventions 0*log(0/q) = 0 and p>0, q=0 -> infinity (block flagged).
    The joint counts of a run of blocks come from one bincount over the keys
    (t*ax + x)*ay + y, about 64k symbols and 64k count cells at a time.
    """
    arr = np.asarray(trace, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] == 0:
        raise IngestError("trace must be a non-empty sequence of (x, y) pairs")
    if n < 1:
        raise IngestError(f"block length must be >= 1, got {n}")
    if arr.shape[0] < n:
        raise IngestError(f"trace shorter than one block ({arr.shape[0]} < {n})")
    if arr.min() < 0:
        raise IngestError("symbols must be nonnegative integers")
    ax = int(alphabet_x if alphabet_x is not None else arr[:, 0].max() + 1)
    ay = int(alphabet_y if alphabet_y is not None else arr[:, 1].max() + 1)
    if arr[:, 0].max() >= ax or arr[:, 1].max() >= ay:
        raise IngestError("symbol outside the declared alphabet")

    count = arr.shape[0] // n
    cells = ax * ay
    step = max(1, _CHUNK // max(n, cells))
    pmf = np.empty((count, ax, ay))
    for lo in range(0, count, step):
        hi = min(lo + step, count)
        seg = arr[lo * n:hi * n]
        keys = (seg[:, 0] * ay + seg[:, 1]).reshape(hi - lo, n)
        keys += (np.arange(hi - lo) * cells)[:, None]
        pmf[lo:hi] = np.bincount(keys.ravel(), minlength=(hi - lo) * cells).reshape(-1, ax, ay) / n
    mx, my = pmf.sum(axis=2), pmf.sum(axis=1)
    d = _divergences_to_first(pmf.reshape(count, cells))
    dx = _divergences_to_first(mx)
    dy = _divergences_to_first(my)
    return [TraceBlock(t + 1, pmf[t], mx[t], my[t], float(d[t]), float(dx[t]), float(dy[t]))
            for t in range(count)]


def _divergences_to_first(p: np.ndarray) -> np.ndarray:
    """D(p[t] || p[0]) in bits for every row of ``p``; 0 for row 0.

    Rows with the same number k of positive cells are summed together as a
    (rows, k) array, so each row's positive terms are added in the order a
    1-D ``np.sum`` over them uses.  A positive cell where row 0 is zero makes
    the divergence infinite.
    """
    q = p[0]
    out = np.zeros(len(p))
    pos = p > 0
    out[np.any(pos & (q == 0), axis=1)] = np.inf
    k = pos.sum(axis=1)
    rest = 1 + np.flatnonzero(np.isfinite(out[1:]))
    for size in np.unique(k[rest]):
        rows = rest[k[rest] == size]
        mask = pos[rows]
        pk = p[rows][mask].reshape(len(rows), size)
        qk = np.broadcast_to(q, mask.shape)[mask].reshape(len(rows), size)
        out[rows] = (pk * np.log2(pk / qk)).sum(axis=1)
    return out


def _levels(values: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Equal-width interval index per value, plus the interval midpoints."""
    lo, hi = float(values.min()), float(values.max())
    if hi <= lo or count == 1:
        return np.zeros(len(values), dtype=np.int64), np.array([lo])
    width = (hi - lo) / count
    idx = np.minimum(((values - lo) / width).astype(np.int64), count - 1)
    mids = lo + (np.arange(count) + 0.5) * width
    return idx, mids


def _fit_marginals(pmfs: np.ndarray, tx: np.ndarray, ty: np.ndarray,
                   iters: int = 500, tol: float = 1e-13) -> np.ndarray:
    """Iterative proportional fitting of a stack of pmfs (M, ax, ay) to
    target marginals tx (M, ax) and ty (M, ay), one pair per pmf.

    All members sweep together; a member leaves the active set after the
    first sweep that brings both its marginal errors below ``tol``, so each
    stops exactly where a fit of it alone would.
    """
    q = pmfs + 1e-15
    q /= q.reshape(len(q), -1).sum(axis=1)[:, None, None]
    fitted = np.empty_like(q)
    active = np.arange(len(q))
    for _ in range(iters):
        rows = q.sum(axis=2)
        q *= np.divide(tx, rows, out=np.zeros_like(tx), where=rows > 0)[:, :, None]
        cols = q.sum(axis=1)
        q *= np.divide(ty, cols, out=np.zeros_like(ty), where=cols > 0)[:, None, :]
        done = ((np.abs(q.sum(axis=2) - tx).max(axis=1) < tol)
                & (np.abs(q.sum(axis=1) - ty).max(axis=1) < tol))
        if done.any():
            fitted[active[done]] = q[done]
            keep = ~done
            active, q, tx, ty = active[keep], q[keep], tx[keep], ty[keep]
            if not active.size:
                break
    else:
        raise IngestError("marginal repair did not converge")
    return fitted / fitted.reshape(len(fitted), -1).sum(axis=1)[:, None, None]


def quantize_model(
    blocks: list[TraceBlock],
    joint_levels: int,
    marginal_levels: int,
    *,
    representative: str = "midpoint",
    seed: int | None = None,
    block_len_n: int | None = None,
    slot_seconds: float | None = None,
) -> IngestResult:
    """Quantize block divergences into a SourceModel plus block assignments.

    ``representative="midpoint"`` picks the block whose divergence is closest
    to its interval midpoint (deterministic); ``"random"`` draws it uniformly
    from the interval's blocks with the given seed.
    """
    if joint_levels < 1 or marginal_levels < 1:
        raise IngestError("level counts must be >= 1")
    if representative not in ("midpoint", "random"):
        raise IngestError(f"unknown representative mode {representative!r}")
    if not blocks:
        raise IngestError("no blocks to quantize")

    finite = [b for b in blocks if math.isfinite(b.d_to_ref)
              and math.isfinite(b.d_to_ref_x) and math.isfinite(b.d_to_ref_y)]
    finite_idx = {b.index for b in finite}
    quarantined = tuple(b.index for b in blocks if b.index not in finite_idx)
    if not finite:
        raise IngestError("every block has infinite divergence to the reference")

    d = np.array([b.d_to_ref for b in finite])
    dx = np.array([b.d_to_ref_x for b in finite])
    dy = np.array([b.d_to_ref_y for b in finite])
    jl, jmids = _levels(d, joint_levels)
    xl, _ = _levels(dx, marginal_levels)
    yl, _ = _levels(dy, marginal_levels)
    if len(set(jl.tolist())) < joint_levels:
        warnings.warn(
            f"only {len(set(jl.tolist()))} of {joint_levels} joint levels are "
            "occupied; empty levels dropped",
            RuntimeWarning,
            stacklevel=2,
        )

    rng = np.random.default_rng(seed) if representative == "random" else None

    # groups = occupied (marginal-x level, marginal-y level) pairs;
    # members = occupied joint levels within a group
    pair_of = list(zip(xl.tolist(), yl.tolist()))
    group_keys = sorted(set(pair_of))
    group_index = {key: i + 1 for i, key in enumerate(group_keys)}
    cells: dict[tuple[int, int], list[int]] = {}
    for pos, (pair, lev) in enumerate(zip(pair_of, jl.tolist())):
        cells.setdefault((group_index[pair], lev), []).append(pos)

    member_keys: dict[int, list[int]] = {}
    for g, lev in sorted(cells):
        member_keys.setdefault(g, []).append(lev)

    def _representative(pos_list: list[int], lev: int) -> TraceBlock:
        if rng is not None:
            return finite[pos_list[int(rng.integers(len(pos_list)))]]
        mid = jmids[lev]
        best = min(pos_list, key=lambda p: (abs(float(d[p]) - mid), finite[p].index))
        return finite[best]

    labels: list[tuple[int, int, int]] = []   # (group, member, count) per entry
    raw: list[np.ndarray] = []
    tx: list[np.ndarray] = []
    ty: list[np.ndarray] = []
    assignment_of: dict[int, tuple[int, int]] = {}
    total = len(finite)
    for g, levels in member_keys.items():
        reps: list[tuple[int, TraceBlock, int]] = []  # (level, block, count)
        for j, lev in enumerate(levels, start=1):
            pos_list = cells[(g, lev)]
            reps.append((j, _representative(pos_list, lev), len(pos_list)))
            for p in pos_list:
                assignment_of[finite[p].index] = (g, j)
        # anchor = the member with the largest occupancy (ties: lowest level)
        anchor = max(reps, key=lambda r: (r[2], -r[0]))[1]
        for j, rep, count in reps:
            labels.append((g, j, count))
            raw.append(rep.joint_pmf)
            tx.append(anchor.marginal_x)
            ty.append(anchor.marginal_y)

    fitted = _fit_marginals(np.stack(raw), np.stack(tx), np.stack(ty))
    distortion = max(float(np.abs(f - p).sum()) / 2 for f, p in zip(fitted, raw))
    entries = [
        CdfEntry(
            group=g,
            member=j,
            prob=count / total,
            cond_entropy=cond_entropy_x_given_y_bits(f),
            joint_pmf=f,
        )
        for (g, j, count), f in zip(labels, fitted)
    ]

    assignment = tuple(
        BlockAssignment(
            b.index,
            *(assignment_of.get(b.index, (0, 0))),
            d_to_ref=b.d_to_ref,
        )
        for b in blocks
    )
    model = SourceModel(
        tuple(entries),
        block_len_n=block_len_n if block_len_n is not None else 1,
        slot_seconds=slot_seconds,
    )
    return IngestResult(model, assignment, distortion, quarantined)
