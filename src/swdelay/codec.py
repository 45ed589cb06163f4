"""Desk-scale random-binning codec with a posterior-weighted typicality decoder.

A message is random binning of prefixes, in stages: stage s hashes the prefix
of the first ``ends[s]`` blocks to a bin with seed ``seeds[s]`` (no codebook
is stored).  The ``batch`` message is one stage over all K blocks, the
``sequential`` one a stage per block.  A stage with at least as many bins as
prefixes is the identity map, which makes it injective.  The decoder
enumerates the sequences consistent with the received bins, keeps those
typical under some joint-cdf hypothesis compatible with the observed marginal
groups, and returns the candidate whose best hypothesis posterior is highest.
Ties break to the lexicographically smallest candidate.

Typicality is the empirical log-likelihood kind: a sequence is typical when
its per-symbol log-likelihood deviates from the per-symbol entropy average
by at most ``delta`` bits.  One function, ``_typical``, decides it from the
positional sums; the decoder's scores screen pairs by joint type and send
those near the boundary back to it, so it takes every decision (``_score``).
The encoder and decoder read X-typicality from one table per codebook.

Everything here is exhaustive by design and guarded to small alphabets and
short blocks; the asymptotic guarantees of the rate oracle are *not*
reproducible at these sizes, so tests work with margins.  Encoding,
candidate lookup and scoring work on arrays of trials: ``run_codec_trials``
runs all its trials as one batched pass in chunks of bounded size.

The rate sets only the bins and the bin-sorted candidate index, so it is an
argument of ``encode`` and ``run_codec_trials``, not of the codebook.  The
table of every X sequence, its symbol masks and stage typicality, the
hypotheses and the last trial draw do not depend on it: a sweep over rates
runs one codebook at every rate and builds each of them once, and they are
freed with the codebook (nothing is cached at module level).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .entropy import row_divergences_bits
from .model import ModelError, SourceModel, check_count, is_real

MAX_SEQUENCES = 10_000_000
_TYP_TOL = 1e-12  # absorbs float noise on the typicality boundary

# run_codec_trials scores the candidates of consecutive trials together while
# their cells (candidates x K*n symbols) fit in this many, and always at least
# one trial.  On a 2-core Xeon (numpy 2.4.6), a round of the benchmark's codec
# commands (2^12 and 2^14 sequences, 500 trials a rate) takes 29.5, 32.3 and
# 36.3 ms at 2^16, 2^15 and 2^14 cells (45.2-45.5 MiB peak RSS), 354 ms one
# trial at a time (43.6 MiB), 30.2 ms all at once (50.3 MiB), 61 ms at 2^12.
_CHUNK_CELLS = 2 ** 16
_BYTE_BITS = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def _popcount_bytes(v: np.ndarray) -> np.ndarray:
    """Set bits of each uint16 of ``v``, from a table of byte counts."""
    return _BYTE_BITS[v & 0xFF] + _BYTE_BITS[v >> 8]


_popcount = getattr(np, "bitwise_count", _popcount_bytes)  # numpy >= 2.0 has it


# ---------------------------------------------------------------------------
# typicality
# ---------------------------------------------------------------------------

def _typical(ll: np.ndarray, h: np.ndarray, delta: float, k: int | None = None) -> np.ndarray:
    """Typicality of the first k blocks of per-symbol log-likelihoods shaped
    (..., K, n), k = K by default: each block is summed, the block sums are
    added in block order, and the per-symbol log-likelihood must lie within
    delta of ``h[k-1]/k``, the mean entropy of those blocks."""
    k = ll.shape[-2] if k is None else k
    sums = ll[..., :k, :].sum(axis=-1)
    total = sums[..., 0]
    for j in range(1, k):
        total = total + sums[..., j]
    return np.abs(-total / (k * ll.shape[-1]) - h[k - 1] / k) <= delta + _TYP_TOL


class _Hypothesis:
    """Log pmfs and cumulative entropies of one cdf per block, computed once."""

    def __init__(self, entries):
        xy = np.stack([e.joint_pmf for e in entries])  # (K, ax, ay)
        x, y = xy.sum(axis=2), xy.sum(axis=1)
        with np.errstate(divide="ignore"):  # log2(0) = -inf is the point
            self.log_x, self.log_y, self.log_xy = np.log2(x), np.log2(y), np.log2(xy)
        self.h_x, self.h_y, self.h_xy = (
            np.cumsum(-row_divergences_bits(p.reshape(len(xy), -1), 1.0)) for p in (x, y, xy))


def jointly_typical(x_blocks, y_blocks, cdf_sequence, delta: float) -> bool:
    """X, Y and joint deviations all within delta under the hypothesis.  No
    caller in the package: the benchmark's tracer wraps it by name."""
    hyp = _Hypothesis(cdf_sequence)
    block = np.arange(len(hyp.h_x))[:, None]
    x = np.asarray(x_blocks, dtype=np.int64).reshape(len(block), -1)
    y = np.asarray(y_blocks, dtype=np.int64).reshape(len(block), -1)
    return bool(_typical(hyp.log_x[block, x], hyp.h_x, delta)
                & _typical(hyp.log_y[block, y], hyp.h_y, delta)
                & _typical(hyp.log_xy[block, x, y], hyp.h_xy, delta))


# ---------------------------------------------------------------------------
# binning
# ---------------------------------------------------------------------------

def _splitmix64(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # uint64 wrap-around is the point
        x = x + np.uint64(0x9E3779B97F4A7C15)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))


def _hash_bins(indices: np.ndarray, bins: int, seed: int) -> np.ndarray:
    """Stable seeded map from sequence index to bin in 1..bins."""
    mixed = _splitmix64(indices.astype(np.uint64) ^ _splitmix64(np.uint64(seed)))
    return (mixed % np.uint64(bins)).astype(np.int64) + 1


BATCH = "batch"
SEQUENTIAL = "sequential"


def _symbol_masks(rows: np.ndarray, alphabet: int) -> np.ndarray:
    """(K, alphabet, N) uint16 masks of N (K, n) symbol rows, n <= 16: bit j
    of mask (k, a, i) is set where symbol j of block k of row i is a."""
    bits = (1 << np.arange(rows.shape[-1])).astype(np.uint16)
    return np.stack([((rows == a) @ bits).T for a in range(alphabet)], axis=1)


def _sequence_table(total: int, alphabet: int, width: int) -> np.ndarray:
    """(total, width) table of every sequence, in index order."""
    idx = np.arange(total, dtype=np.int64)
    out = np.empty((total, width), dtype=np.int8)
    for pos in range(width - 1, -1, -1):
        out[:, pos] = idx % alphabet
        idx //= alphabet
    return out


class Codebook:
    """Seeded binning structure bound to a model and observed marginal groups.

    Stage s bins the prefix of the first ``ends[s]`` blocks with seed
    ``seeds[s]``.  ``batch`` (the deferred-encoding message, an int) is the one
    stage ``ends = (K,)``; ``sequential`` (the deferred-decoding message
    stream, a tuple) has ``ends = (1, ..., K)``.  K is the number of observed
    groups and the alphabets are the shape of their joint pmfs; ``n`` is the
    block length and ``delta`` the typicality slack.  The constructor checks
    every setting, n and delta first.  The rate sets only the bins of a stage
    (``bins``); everything held here is shared by the runs at every rate,
    built at most once and freed with the codebook.
    """

    def __init__(self, model: SourceModel, groups: tuple[int, ...], *, n: int, delta: float,
                 seed: int = 0, kind: str = BATCH):
        n = check_count("block length n", n, 1, 16)
        if not (is_real(delta) and 0 < delta < math.inf):
            raise ValueError(f"delta must be positive and finite, got {delta!r}")
        K = len(groups)
        if not 1 <= K <= 2:
            raise ValueError("block count K must be 1 or 2")
        self.members = [model.group_entries(g) for g in groups]
        shapes = set()
        for e in itertools.chain.from_iterable(self.members):
            if e.joint_pmf is None:
                raise ModelError(f"cdf ({e.group},{e.member}) has no joint pmf")
            shapes.add(e.joint_pmf.shape)
        if len(shapes) > 1:
            raise ModelError(f"the observed groups' pmfs differ in shape: {sorted(shapes)}")
        (ax, ay), = shapes
        if not 1 <= ax <= 4 or not 1 <= ay <= 4:
            raise ValueError("alphabet sizes must be between 1 and 4")
        self.total = ax ** (n * K)
        if self.total > MAX_SEQUENCES:
            raise ValueError("alphabet_x ** (n*K) exceeds the exhaustive-decoding guard")
        if kind == BATCH:
            self.ends = (K,)
        elif kind == SEQUENTIAL:
            self.ends = tuple(range(1, K + 1))
        else:
            raise ValueError(f"kind must be {BATCH!r} or {SEQUENTIAL!r}")
        seed = check_count("seed", seed, 0, 2 ** 64 - 1 - K)  # every stage seed is a uint64
        self.seeds = (seed,) if kind == BATCH else tuple(seed + k for k in self.ends)
        self.n, self.delta, self.kind = n, delta, kind
        self.blocks, self.alphabet_x, self.alphabet_y = K, ax, ay
        self._last_draw = None  # (trials, seed) and what draw() returned

    def bins(self, rate_bits: float) -> int:
        """Bins of each stage at ``rate_bits`` bits a message: 2**rate_bits for
        batch, 2**(rate_bits/K) for sequential."""
        if not (is_real(rate_bits) and 0 <= rate_bits < math.inf):
            raise ValueError(f"rate_bits must be nonnegative and finite, got {rate_bits!r}")
        # capped where 2**63 bins already exceed every guarded prefix count
        return max(1, round(2.0 ** min(rate_bits / len(self.ends), 63)))

    # -- sequence indexing (lexicographic, first symbol most significant) --

    def seq_index(self, x: np.ndarray) -> np.ndarray:
        """Index of each (..., K, n) sequence."""
        width = self.n * self.blocks
        x = np.asarray(x, dtype=np.int64)
        powers = self.alphabet_x ** np.arange(width - 1, -1, -1, dtype=np.int64)
        return x.reshape(*x.shape[:-2], width) @ powers

    @cached_property
    def all_sequences(self) -> np.ndarray:
        """(total, K, n) table of every X sequence, in index order."""
        seqs = _sequence_table(self.total, self.alphabet_x, self.n * self.blocks)
        return seqs.reshape(self.total, self.blocks, self.n)

    @cached_property
    def stage_typical(self) -> np.ndarray:
        """(total, stages) X-typicality of every sequence's stage prefixes under
        the X marginals, which all members of a group share."""
        marginals = self.hypotheses[0][0]
        ll = marginals.log_x[np.arange(self.blocks)[:, None], self.all_sequences]
        return np.stack([_typical(ll, marginals.h_x, self.delta, end) for end in self.ends], -1)

    @cached_property
    def typical(self) -> np.ndarray:
        """Indices of the X-typical sequences (the last stage), in index order."""
        return np.flatnonzero(self.stage_typical[:, -1])

    @cached_property
    def hypotheses(self) -> list[tuple[_Hypothesis, float]]:
        """Every choice of one member per block, in lexicographic member order,
        with its posterior given the observed groups."""
        phis = [sum(e.prob for e in members) for members in self.members]
        out = []
        for combo in itertools.product(*self.members):
            post = 1.0
            for e, phi in zip(combo, phis):
                post = post * e.prob / phi
            out.append((_Hypothesis(combo), post))
        return out

    def draw(self, trials: int, seed: int) -> tuple[np.ndarray, ...]:
        """The rate-free part of the trials of ``seed``: per trial, the
        sequence index of x, the received (K, n) blocks y and the hypothesis
        that drew the pair.  The last draw is kept for the next rate, as long
        as the codebook lives: about 16 + K*n bytes per trial."""
        trials, seed = check_count("trials", trials, 0), check_count("trial seed", seed, 0)
        if self._last_draw is None or self._last_draw[0] != (trials, seed):
            self._last_draw = (trials, seed), self._sample(trials, seed)
        return self._last_draw[1]

    def _sample(self, trials: int, seed: int) -> tuple[np.ndarray, ...]:
        # per trial and block: the member, then its n symbol pairs, drawn from
        # one uniform each in the order of a choice(p=...) call per block
        K, n, member_lists = self.blocks, self.n, self.members
        u = np.random.default_rng(seed).random(trials * K * (1 + n)).reshape(trials, K, 1 + n)
        members = np.empty((trials, K), dtype=np.int64)
        flat = np.empty((trials, K, n), dtype=np.int64)
        for k, mem in enumerate(member_lists):
            probs = np.array([e.prob for e in mem])
            members[:, k] = _inverse_cdf(probs / probs.sum(), u[:, k, 0])
            for j, e in enumerate(mem):
                sel = members[:, k] == j
                pmf = e.joint_pmf.ravel() / e.joint_pmf.sum()
                flat[sel, k] = _inverse_cdf(pmf, u[sel, k, 1:])
        x, y = flat // self.alphabet_y, flat % self.alphabet_y
        true_hyp = np.ravel_multi_index(tuple(members.T), [len(m) for m in member_lists])
        # y kept as int8, as the sequence table is: symbols are below 4
        return self.seq_index(x), y.astype(np.int8), true_hyp

    # -- binning at a number of bins a stage --

    def _bins_of(self, index: np.ndarray, bins: int) -> np.ndarray:
        """Bins of each sequence index, one per stage on a last axis: the
        prefix's index plus one where the stage has at least as many bins as
        prefixes, else its seeded hash.  Only the prefixes asked for are
        hashed: the X-typical set and the trials once per run."""
        stages, n = [], self.n
        for end, seed in zip(self.ends, self.seeds):
            prefix = index // self.alphabet_x ** (n * (self.blocks - end))
            stages.append(prefix + 1 if bins >= self.alphabet_x ** (n * end)
                          else _hash_bins(prefix, bins, seed))
        return np.stack(stages, axis=-1)

    def _encode(self, index: np.ndarray, bins: int) -> np.ndarray:
        """Per-stage bins of the sequences of ``index``; an X-atypical prefix gets bin 1."""
        return np.where(self.stage_typical[index], self._bins_of(index, bins), 1)

    def _keys(self, messages, bins: int) -> np.ndarray:
        """Sort key of (..., stages) messages whose bins are all in
        1..min(bins, total): the bins read as digits of one more than that."""
        radix = min(bins, self.total) + 1
        return np.asarray(messages, dtype=np.int64) @ radix ** np.arange(
            len(self.ends) - 1, -1, -1, dtype=np.int64)

    def _index(self, bins: int) -> tuple[np.ndarray, np.ndarray]:
        """The X-typical sequences stably sorted by the key of their message,
        and the sorted keys."""
        keys = self._keys(self._bins_of(self.typical, bins), bins)
        order = np.argsort(keys, kind="stable")
        return keys[order], self.typical[order]

    @cached_property
    def masks(self) -> np.ndarray:
        """(K, ax, total) symbol masks of every X sequence: 2*ax bytes a block
        of a sequence, against n in the sequence table."""
        return _symbol_masks(self.all_sequences, self.alphabet_x)

    @cached_property
    def _screen(self) -> tuple[np.ndarray, np.ndarray]:
        """``_score``'s (2H, K*ax*ay) weights of the (block, x, y) pair counts,
        row h (-log p - g) / (K*n) under hypothesis h, g = h_xy[K-1] / K and
        log 0 read as 0, row H + h 1 where p is 0; and its (H,) guard bands."""
        K = self.blocks
        logs = np.stack([hyp.log_xy.ravel() for hyp, _ in self.hypotheses])
        g = np.array([[hyp.h_xy[K - 1] / K] for hyp, _ in self.hypotheses])
        dead = np.isneginf(logs)
        logs[dead] = 0.0
        band = 70 * 2.0 ** -53 * (np.abs(logs).max(axis=1) + np.abs(g[:, 0]))
        return np.vstack([(-logs - g) / (K * self.n), dead]), band

    def _score(self, candidates: np.ndarray, lo: np.ndarray, hi: np.ndarray, y: np.ndarray):
        """Score the candidates ``candidates[lo:hi]`` of T trials with
        received (T, K, n) blocks.

        XY deviations come from joint types: per block, the count of each (x,
        y) pair (popcount of ``masks[k, x] & ymask[k, y]``) times the
        ``_screen`` weights, one matrix product; a count where p is 0 makes the
        pair atypical, as the -inf sum does.  A sum of m terms errs by at most
        (m-1)u/(1-(m-1)u) times its absolute sum, u = 2**-53 (Higham, Accuracy
        and Stability of Numerical Algorithms, 2002, sec. 4.2).  Both sums have
        at most 32 terms (K*ax*ay counts, K*n log pmfs), and scaling, division
        and subtraction add u each, so either deviation errs by at most
        35u(L + g), L the largest finite |log p|.  The guard band is twice
        that: pairs within it of delta + _TYP_TOL go to ``_typical``.

        Returns the candidates' sequence indices, grouped by trial and in
        index order within one; each candidate's trial; whether each
        hypothesis is jointly typical with it under the trial's y, shape
        (candidates, hypotheses); and its highest such posterior (0 if none).
        """
        K, delta, hyps = self.blocks, self.delta, self.hypotheses
        counts = hi - lo
        trial = np.repeat(np.arange(len(counts)), counts)
        first = np.cumsum(counts) - counts
        cand = candidates[np.arange(len(trial)) - first[trial] + lo[trial]]
        pairs = (self.masks.take(cand, axis=-1)[:, :, None]
                 & _symbol_masks(y, self.alphabet_y).take(trial, axis=-1)[:, None])
        weights, band = self._screen
        screened = weights @ _popcount(pairs).reshape(weights.shape[1], -1).astype(float)
        dead, dev = screened[len(hyps):] > 0, np.abs(screened[:len(hyps)])
        typical = (dev <= delta + _TYP_TOL) & ~dead
        rows = np.flatnonzero((np.abs(dev - (delta + _TYP_TOL)) <= band[:, None]).any(axis=0))
        block = np.arange(K)[:, None]
        if rows.size:  # the positional sums decide the pairs near the boundary
            x, y_rows = self.all_sequences[cand[rows]], y[trial[rows]]
            for h, (hyp, _) in enumerate(hyps):
                typical[h, rows] = _typical(hyp.log_xy[block, x, y_rows], hyp.h_xy, delta)
        typical &= np.stack([_typical(hyp.log_y[block, y], hyp.h_y, delta)
                             for hyp, _ in hyps]).take(trial, axis=1)
        best = np.where(typical, [[post] for _, post in hyps], 0.0).max(axis=0)
        return cand, trial, typical.T, best


def _winners(cand: np.ndarray, trial: np.ndarray, best: np.ndarray, trials: int) -> np.ndarray:
    """Decoded sequence index per trial: its first candidate with the highest
    positive posterior (the lexicographically smallest on ties), or -1."""
    top = np.zeros(trials)
    np.maximum.at(top, trial, best)
    hit = np.flatnonzero((best > 0) & (best == top[trial]))
    won, first = np.unique(trial[hit], return_index=True)
    out = np.full(trials, -1, dtype=np.int64)
    out[won] = cand[hit[first]]
    return out


def encode(codebook: Codebook, x_blocks, rate_bits: float) -> int | tuple[int, ...]:
    """Bin index (batch) or per-block bin tuple (sequential) at ``rate_bits``;
    atypical -> bin 1, by the codebook's table, which the first call builds.
    No caller in the package: the benchmark's tracer wraps it by name."""
    bins = codebook.bins(rate_bits)
    K, n = codebook.blocks, codebook.n
    x = np.asarray(x_blocks, dtype=np.int64)
    if x.size != K * n:
        raise ValueError(f"sequence length {x.size} does not match K*n = {K * n}")
    sent = codebook._encode(codebook.seq_index(x.reshape(1, K, n)), bins)[0]
    return int(sent[0]) if codebook.kind == BATCH else tuple(sent.tolist())


# ---------------------------------------------------------------------------
# Monte Carlo trials with error-event classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CodecTrialReport:
    trials: int
    errors: int
    eps1: int  # X-atypical stage prefix under the groups' marginals (the encoder's and
    # decoder's test, which every member shares), or Y-/XY-atypical pair under the true cdfs
    eps2: int  # bin collision with a sequence typical under the true cdfs
    eps3: int  # bin collision typical only under a false hypothesis

    @property
    def err_rate(self) -> float:
        return self.errors / self.trials if self.trials else math.nan


def _inverse_cdf(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``Generator.choice(len(p), p=p)`` for the uniforms ``u`` it would draw."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(u, side="right")


def run_codec_trials(codebook: Codebook, rate_bits: float, *, trials: int,
                     seed: int) -> CodecTrialReport:
    """Encode/decode i.i.d. source pairs at ``rate_bits`` and classify every
    decoding error; the scoring pass decides every pair's typicality, the
    sent one's too.  The draw of ``(trials, seed)`` is kept by the codebook,
    so a run at another rate reuses it; it stays alive (about 16 + K*n bytes
    per trial) until the next draw or until the codebook is dropped."""
    bins = codebook.bins(rate_bits)
    index, y, true_hyp = codebook.draw(trials, seed)
    K, n = codebook.blocks, codebook.n
    keys, candidates = codebook._index(bins)
    sent = codebook._keys(codebook._encode(index, bins), bins)
    lo, hi = keys.searchsorted(sent, "left"), keys.searchsorted(sent, "right")
    cells = np.cumsum((hi - lo) * (K * n))
    decoded = np.empty(trials, dtype=np.int64)
    collided, typical_pair = np.zeros((2, trials), dtype=bool)
    start = 0
    while start < trials:
        base = cells[start - 1] if start else 0
        stop = max(start + 1, int(cells.searchsorted(base + _CHUNK_CELLS, "right")))
        part = slice(start, stop)
        cand, trial, typical, best = codebook._score(candidates, lo[part], hi[part], y[part])
        decoded[part] = _winners(cand, trial, best, stop - start)
        # Y and XY typicality under the true hypothesis: x's own row, or a collision
        true = typical[np.arange(len(cand)), true_hyp[part][trial]]
        hit = trial[true]
        own = cand[true] == index[part][hit]
        collided[start + hit[~own]] = True
        typical_pair[start + hit[own]] = True
        start = stop
    typical_pair &= codebook.stage_typical[index].all(-1)  # an atypical stage prefix is eps1

    wrong = decoded != index
    collision = wrong & typical_pair
    return CodecTrialReport(
        trials,
        errors=int(wrong.sum()),
        eps1=int((wrong & ~typical_pair).sum()),
        eps2=int((collision & collided).sum()),
        eps3=int((collision & ~collided).sum()),
    )
