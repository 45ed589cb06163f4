"""Model construction from symbol traces.

``read_trace`` parses a paired symbol trace file into a (rows, 2) array.
``blockify`` cuts a paired symbol trace into blocks of n symbols and returns
the stack of their empirical joint pmfs, shape (blocks, ax, ay).
``quantize_model`` takes that stack, computes the relative entropy of every
block, and of its two marginals, against block 1, and splits the range of
each into equal-width intervals.  The occupied (x-level, y-level) pairs
become the marginal groups; the occupied joint levels within a group become
its members, each represented by one of its blocks; the occupancy fractions
become the prior.

Marginal quantization is independent of the joint quantization and can
therefore break the members-share-marginals invariant; a final repair step
fits every member pmf to the marginals of its group's anchor member
(iterative proportional fitting, all members in one stacked pass) and
reports the distortion it introduced.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass

import numpy as np

from .entropy import cond_entropies_bits, row_divergences_bits
from .model import CdfEntry, SourceModel, check_count


class IngestError(ValueError):
    """Raised on malformed traces or impossible quantization requests."""


@dataclass(frozen=True, eq=False)
class IngestResult:
    """The learned model and, for block t + 1 at index t, its cell: ``group``
    and ``member`` (both 0 when the block was quarantined for an infinite
    divergence to block 1) and ``d_to_ref``, its divergence to block 1."""

    model: SourceModel
    group: np.ndarray
    member: np.ndarray
    d_to_ref: np.ndarray
    marginal_distortion: float   # largest total-variation change of the repair


_CHUNK = 1 << 16   # bound on the symbols and on the count cells of one bincount
_MAX_CELLS = 1 << 26   # float64 cells of blockify's (blocks, ax, ay) stack: 512 MiB
_TRACE_CHUNK = 1 << 18   # bytes of trace parsed in one step; > 39, the longest valid line
_TRACE_LINE = re.compile(rb"[0-9]{1,18},[0-9]{1,18}\r?")   # 10**18 - 1 < 2**63


def read_trace(path, skip_header: int = 0) -> np.ndarray:
    """The (rows, 2) int64 array of symbol pairs in a trace file.

    After ``skip_header`` lines of any content, every line is ``x,y``: two
    strings of 1 to 18 decimal digits, ended by ``\\n`` or ``\\r\\n``; the
    last line may lack its ``\\n``.  Anything else (spaces, signs, decimal
    points, comments, blank lines, a field count other than 2, no data line
    at all) raises IngestError naming the first bad line, counted from 1
    with the header lines.

    The bytes are parsed with numpy about 256 KiB of whole lines at a time,
    so no temporary grows with the file beyond the bytes and the result.
    """
    skip_header = check_count("skip_header", skip_header, 0, error=IngestError)
    with open(path, "rb") as fh:
        data = fh.read()
    pos = 0
    for _ in range(skip_header):
        pos = data.find(b"\n", pos) + 1 or len(data)
        if pos == len(data):
            break
    if pos == len(data):
        raise IngestError(f"line {skip_header + 1}: the trace has no x,y line")

    buf = np.frombuffer(data, dtype=np.uint8)
    # numpy counts bytes several times faster than bytes.count
    newlines = sum(np.count_nonzero(buf[i:i + _TRACE_CHUNK] == 10)
                   for i in range(pos, len(data), _TRACE_CHUNK))
    out = np.empty(2 * (newlines + (data[-1] != 10)), dtype=np.int64)
    row = 0
    while pos < len(data):   # runs of whole lines
        stop = min(pos + _TRACE_CHUNK, len(data))
        if stop < len(data):   # a chunk with no \n holds one overlong line, rejected
            stop = data.rfind(b"\n", pos, stop) + 1 or stop
        lines = np.count_nonzero(buf[pos:stop] == 10) + (data[stop - 1] != 10)
        _parse_lines(buf[pos:stop], data.find(b"\r", pos, stop) >= 0,
                     out[2 * row:2 * (row + lines)], skip_header + row + 1)
        row += lines
        pos = stop
    return out.reshape(-1, 2)


def _parse_lines(text: np.ndarray, crlf: bool, out: np.ndarray, first: int) -> None:
    """Parses the whole lines in ``text`` (bytes; the last may lack its \\n)
    into ``out`` as x, y, x, y, ...; ``first`` is the first line's number.

    Once the \\r of each \\r\\n is dropped, the lines are valid exactly when
    there are two non-digit bytes per line (counting the end of a last line
    without \\n), every first one is a comma, and every field between them
    has 1 to 18 digits: each \\n is then the second of its line's pair.  The
    field ending at byte i is gathered right-aligned from i - 1, one gather
    per digit position.
    """
    body = text
    if crlf:
        cr = np.flatnonzero(text == 13)
        before_lf = np.append(text[1:], np.uint8(10))[cr] == 10   # or at the end
        body = np.delete(text, cr[before_lf])
    digits = body - np.uint8(48)           # a non-digit byte wraps above 9
    seps = np.flatnonzero(digits > 9)
    kinds = body[seps]
    if not body.size or body[-1] != 10:    # the last line's missing \n
        seps = np.append(seps, body.size)
    widths = np.diff(seps, prepend=-1) - 1  # of x, y, x, y, ...
    if (len(seps) == len(out) and (kinds[::2] == 44).all()
            and widths.min() >= 1 and widths.max() <= 18):
        out[:] = _decimal(digits, seps, widths)
        return
    # name the first line the pattern refuses: the test above fails exactly when one does
    ends = np.flatnonzero(text == 10).tolist()
    if text[-1] != 10:
        ends.append(len(text))
    for i, (lo, hi) in enumerate(zip([0] + [e + 1 for e in ends], ends)):
        line = text[lo:hi].tobytes()
        if not _TRACE_LINE.fullmatch(line):
            break
    raise IngestError(f"line {first + i}: expected x,y with 1 to 18 decimal digits each, "
                      f"got {line[:40].decode('latin-1')!r}")


def _decimal(digits: np.ndarray, stops: np.ndarray, width: np.ndarray) -> np.ndarray:
    """Values of the fields of ``width`` digits that end just before ``stops``."""
    last = stops - 1
    value = digits[last].astype(np.int64)
    short = int(width.min())
    for k in range(1, int(width.max())):   # the k-th digit from the right weighs 10**k
        d = digits[last - k]   # an index below 0 (only where k >= width) wraps: masked
        if k >= short:   # before a field shorter than k + 1 digits: masked out
            d = np.where(width > k, d, np.uint8(0))
        # int64 named, not left to promotion: numpy 1.x keeps uint8 * scalar small
        value += np.multiply(d, 10 ** k, dtype=np.int64)
    return value


def blockify(trace, n: int) -> np.ndarray:
    """Empirical joint pmf of every block of n symbols, shape (blocks, ax, ay).

    ``trace`` is a sequence of (x, y) nonnegative integer pairs (array-like
    of shape (N, 2)); the alphabets are the largest symbols + 1.  A trailing
    partial block is dropped.  The joint counts of a run of blocks come from
    one bincount over the keys (t*ax + x)*ay + y, about 64k symbols and 64k
    count cells at a time.  A stack of more than 2**26 cells is refused before
    it is allocated.
    """
    arr = np.asarray(trace, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] == 0:
        raise IngestError("trace must be a non-empty sequence of (x, y) pairs")
    n = check_count("block length", n, error=IngestError)
    if arr.shape[0] < n:
        raise IngestError(f"trace shorter than one block ({arr.shape[0]} < {n})")
    if arr.min() < 0:
        raise IngestError("symbols must be nonnegative integers")
    ax, ay = int(arr[:, 0].max()) + 1, int(arr[:, 1].max()) + 1

    count = arr.shape[0] // n
    cells = ax * ay
    if count * cells > _MAX_CELLS:
        raise IngestError(f"alphabets {ax} x {ay} over {count} blocks need {count * cells} "
                          f"pmf cells, more than the {_MAX_CELLS} (512 MiB) a stack may hold")
    step = max(1, _CHUNK // max(n, cells))
    pmf = np.empty((count, ax, ay))
    for lo in range(0, count, step):
        hi = min(lo + step, count)
        seg = arr[lo * n:hi * n]
        keys = (seg[:, 0] * ay + seg[:, 1]).reshape(hi - lo, n)
        keys += (np.arange(hi - lo) * cells)[:, None]
        pmf[lo:hi] = np.bincount(keys.ravel(), minlength=(hi - lo) * cells).reshape(-1, ax, ay) / n
    return pmf


def _divergences_to_first(p: np.ndarray) -> np.ndarray:
    """D(p[t] || p[0]) in bits for every row of ``p``; 0 for row 0.

    Each row's positive terms are added in the order a 1-D ``np.sum`` over
    them uses (``row_divergences_bits``).  A positive cell where row 0 is
    zero makes the divergence infinite.
    """
    q = p[0]
    out = np.zeros(len(p))
    out[np.any((p > 0) & (q == 0), axis=1)] = np.inf
    rest = 1 + np.flatnonzero(np.isfinite(out[1:]))
    out[rest] = row_divergences_bits(p[rest], q)
    return out


def _levels(values: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Equal-width interval index per value, plus its interval's midpoint."""
    lo, hi = float(values.min()), float(values.max())
    if hi <= lo or count == 1:
        return np.zeros(len(values), dtype=np.int64), np.full(len(values), lo)
    width = (hi - lo) / count
    idx = np.minimum(((values - lo) / width).astype(np.int64), count - 1)
    return idx, lo + (idx + 0.5) * width


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
    rows = q.sum(axis=2)
    for _ in range(iters):
        q *= np.divide(tx, rows, out=np.zeros_like(tx), where=rows > 0)[:, :, None]
        cols = q.sum(axis=1)
        q *= np.divide(ty, cols, out=np.zeros_like(ty), where=cols > 0)[:, None, :]
        rows = q.sum(axis=2)   # the row test's sums are the next sweep's
        done = np.abs(rows - tx).max(axis=1) < tol
        if done.any():   # the column test, only for the members that pass the row test
            done[done] = np.abs(q[done].sum(axis=1) - ty[done]).max(axis=1) < tol
        if done.any():
            fitted[active[done]] = q[done]
            keep = ~done
            active, q, tx, ty, rows = active[keep], q[keep], tx[keep], ty[keep], rows[keep]
            if not active.size:
                break
    else:
        raise IngestError("marginal repair did not converge")
    return fitted / fitted.reshape(len(fitted), -1).sum(axis=1)[:, None, None]


def quantize_model(
    pmfs: np.ndarray,
    joint_levels: int,
    marginal_levels: int,
    *,
    representative_seed: int | None = None,
    block_len_n: int = 1,
    slot_seconds: float | None = None,
) -> IngestResult:
    """Quantize a (blocks, ax, ay) stack of block pmfs into a SourceModel.

    Groups are the occupied (x-level, y-level) pairs in sorted order, members
    the occupied joint levels of a group in sorted order.
    With ``representative_seed`` None a member is represented by the block
    whose divergence is closest to its interval midpoint (ties: the lowest
    block); with an integer seed it is drawn uniformly from the member's
    blocks, one draw per member in (group, level) order.  Each group's
    anchor, whose marginals every member of the group is repaired to, is its
    member with the most blocks (ties: the lowest level).
    """
    # at most 2**31 levels keeps the int64 cell keys below 2**63
    joint_levels = check_count("joint_levels", joint_levels, 1, 2 ** 31, IngestError)
    marginal_levels = check_count("marginal_levels", marginal_levels, 1, 2 ** 31, IngestError)
    if representative_seed is not None:
        check_count("representative_seed", representative_seed, 0, error=IngestError)
    pmfs = np.asarray(pmfs, dtype=float)
    if pmfs.ndim != 3 or not len(pmfs):
        raise IngestError("no blocks to quantize: expected a (blocks, ax, ay) pmf stack")

    mx, my = pmfs.sum(axis=2), pmfs.sum(axis=1)
    d = _divergences_to_first(pmfs.reshape(len(pmfs), -1))
    dx, dy = _divergences_to_first(mx), _divergences_to_first(my)
    finite = np.flatnonzero(np.isfinite(d) & np.isfinite(dx) & np.isfinite(dy))

    jl, jmid = _levels(d[finite], joint_levels)
    xl, _ = _levels(dx[finite], marginal_levels)
    yl, _ = _levels(dy[finite], marginal_levels)
    occupied = len(np.unique(jl))
    if occupied < joint_levels:
        warnings.warn(
            f"only {occupied} of {joint_levels} joint levels are occupied; "
            "empty levels dropped",
            RuntimeWarning,
            stacklevel=2,
        )

    # cells = occupied (group, joint level) pairs, sorted; cell_of = each
    # finite block's cell
    _, group_of = np.unique(xl * marginal_levels + yl, return_inverse=True)
    cells, cell_of, counts = np.unique(group_of * joint_levels + jl,
                                       return_inverse=True, return_counts=True)
    cell_group = cells // joint_levels
    first = np.searchsorted(cell_group, np.arange(cell_group[-1] + 1))
    cell_member = np.arange(len(cells)) - first[cell_group] + 1

    start = np.cumsum(counts) - counts
    if representative_seed is not None:
        rng = np.random.default_rng(representative_seed)
        order = np.argsort(cell_of, kind="stable")
        pick = start + np.array([rng.integers(c) for c in counts.tolist()])
    else:
        order = np.lexsort((np.abs(d[finite] - jmid), cell_of))
        pick = start
    rep = finite[order[pick]]
    anchor = np.lexsort((-counts, cell_group))[first][cell_group]

    raw = pmfs[rep]
    fitted = _fit_marginals(raw, mx[rep[anchor]], my[rep[anchor]])
    distortion = float(np.abs(fitted - raw).sum(axis=(1, 2)).max()) / 2
    entries = tuple(
        CdfEntry(group=g + 1, member=j, prob=c / len(finite), cond_entropy=h, joint_pmf=f)
        for g, j, c, h, f in zip(cell_group.tolist(), cell_member.tolist(), counts.tolist(),
                                 cond_entropies_bits(fitted).tolist(), fitted)
    )
    group = np.zeros(len(pmfs), dtype=np.int64)
    member = np.zeros(len(pmfs), dtype=np.int64)
    group[finite] = cell_group[cell_of] + 1
    member[finite] = cell_member[cell_of]
    model = SourceModel(entries, block_len_n=block_len_n, slot_seconds=slot_seconds)
    return IngestResult(model, group, member, d, distortion)
