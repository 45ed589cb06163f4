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
by at most ``delta`` bits.  One function, ``_typical``, decides it for the
encoder, the decoder's candidate index and scores, and the error classifier.

Everything here is exhaustive by design and guarded to small alphabets and
short blocks; the asymptotic guarantees of the rate oracle are *not*
reproducible at these sizes, so tests work with margins.  Encoding,
candidate lookup and scoring work on arrays of trials: ``run_codec_trials``
runs all its trials as one batched pass in chunks of bounded size.

The rate sets only the bins and the bin-sorted candidate index.  The table of
every X sequence, the X-typical set, the hypotheses and the last trial draw
do not depend on it; ``Codebook.at_rate`` gives the codebook of another rate
sharing them, so a sweep over rates builds each once, and they are freed with
the last codebook that holds them (nothing is cached at module level).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .entropy import row_divergences_bits
from .model import ModelError, SourceModel

MAX_SEQUENCES = 10_000_000
_TYP_TOL = 1e-12  # absorbs float noise on the typicality boundary

# run_codec_trials scores the candidates of consecutive trials together while
# their cells (candidates x K*n symbols) fit in this many, and always at least
# one trial.  Each cell holds a few 8-byte temporaries.  Measured on a 2-core
# Xeon (numpy 2.4.6) on the benchmark's codec workload (2^12 and 2^14
# sequences, 500 trials per rate, one 8 s run per size): peak RSS is
# 45.5-46.3 MiB at 2^14-2^16 cells, against 45.6 MiB scoring one trial at a
# time and 54.7 MiB scoring all at once; smaller chunks cost time (1.8x at
# 2^12, 3.9x at 2^10).
_CHUNK_CELLS = 2 ** 16


@dataclass(frozen=True)
class CodecConfig:
    """Block length, typicality slack, rate and seed of a codebook; the block
    count K and the alphabets are those of the observed groups' joint pmfs."""

    n: int
    delta: float
    rate_bits: float
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.n <= 16:
            raise ValueError("block length n must be between 1 and 16")
        if not 0 < self.delta < math.inf:
            raise ValueError(f"delta must be positive and finite, got {self.delta}")
        if not 0 <= self.rate_bits < math.inf:
            raise ValueError(f"rate_bits must be nonnegative and finite, got {self.rate_bits}")


# ---------------------------------------------------------------------------
# typicality
# ---------------------------------------------------------------------------

def _as_blocks(seq, K: int, n: int) -> np.ndarray:
    arr = np.asarray(seq, dtype=np.int64)
    if arr.size != K * n:
        raise ValueError(f"sequence length {arr.size} does not match K*n = {K * n}")
    return arr.reshape(K, n)


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


def _sequence_table(total: int, alphabet: int, width: int) -> np.ndarray:
    """(total, width) table of every sequence, in index order."""
    idx = np.arange(total, dtype=np.int64)
    out = np.empty((total, width), dtype=np.int8)
    for pos in range(width - 1, -1, -1):
        out[:, pos] = idx % alphabet
        idx //= alphabet
    return out


class _SequenceSpace:
    """The part of a codebook that its rate does not change: the observed
    groups, the alphabets and stage ends, the table of every X sequence, the
    X-typical ones, the hypotheses and the last trial draw.  The codebooks of
    one model, groups, kind, n and delta at several rates share one
    (``Codebook.at_rate``), so each is built at most once and lives no longer
    than the last of them."""

    def __init__(self, model: SourceModel, groups, n: int, delta: float, kind: str):
        groups = tuple(int(g) for g in groups)
        K = len(groups)
        if not 1 <= K <= 2:
            raise ValueError("block count K must be 1 or 2")
        shapes = set()
        for g in groups:
            for e in model.group_entries(g):
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
        self.model, self.groups, self.kind = model, groups, kind
        self.n, self.delta = n, delta
        self.blocks, self.alphabet_x, self.alphabet_y = K, ax, ay
        self._last_draw = None  # (trials, seed) and what draw() returned

    # -- sequence indexing (lexicographic, first symbol most significant) --

    def seq_index(self, x: np.ndarray) -> np.ndarray:
        """Index of each (..., K, n) sequence."""
        width = self.n * self.blocks
        x = np.asarray(x, dtype=np.int64)
        powers = self.alphabet_x ** np.arange(width - 1, -1, -1, dtype=np.int64)
        return x.reshape(*x.shape[:-2], width) @ powers

    @cached_property
    def all_sequences(self) -> np.ndarray:
        """(total, K*n) table of every X sequence, in index order."""
        return _sequence_table(self.total, self.alphabet_x, self.n * self.blocks)

    @property
    def marginals(self) -> _Hypothesis:
        """The first hypothesis (marginals are group properties)."""
        return self.hypotheses[0][0]

    def _log_x(self, x: np.ndarray) -> np.ndarray:
        return self.marginals.log_x[np.arange(self.blocks)[:, None], x]

    def typical_stages(self, x: np.ndarray) -> np.ndarray:
        """X-typicality under the marginals of the prefix each stage bins, for
        (..., K, n) sequences, one per stage on a last axis."""
        ll = self._log_x(x)
        return np.stack([_typical(ll, self.marginals.h_x, self.delta, end)
                         for end in self.ends], axis=-1)

    @cached_property
    def typical(self) -> np.ndarray:
        """Indices of the X-typical sequences, in index order.  X marginals
        are shared within a group, so the set is hypothesis independent."""
        ll = self._log_x(self.all_sequences.reshape(self.total, self.blocks, self.n))
        return np.flatnonzero(_typical(ll, self.marginals.h_x, self.delta))

    @cached_property
    def hypotheses(self) -> list[tuple[_Hypothesis, float]]:
        """Every choice of one member per block, in lexicographic member order,
        with its posterior given the observed groups."""
        member_lists = [self.model.group_entries(g) for g in self.groups]
        phis = [sum(e.prob for e in members) for members in member_lists]
        out = []
        for combo in itertools.product(*member_lists):
            post = 1.0
            for e, phi in zip(combo, phis):
                post = post * e.prob / phi
            out.append((_Hypothesis(combo), post))
        return out

    def draw(self, trials: int, seed: int) -> tuple[np.ndarray, ...]:
        """The rate-free part of the trials of ``seed``: per trial, the
        sequence index of x, the received (K, n) blocks y, the hypothesis
        that drew the pair and the X-typicality of each stage's prefix.  The
        last draw is kept for the next rate, as long as this part lives:
        about 20 + K*n bytes per trial."""
        if self._last_draw is None or self._last_draw[0] != (trials, seed):
            self._last_draw = (trials, seed), self._sample(trials, seed)
        return self._last_draw[1]

    def _sample(self, trials: int, seed: int) -> tuple[np.ndarray, ...]:
        # per trial and block: the member, then its n symbol pairs, drawn from
        # one uniform each in the order of a choice(p=...) call per block
        K, n = self.blocks, self.n
        member_lists = [self.model.group_entries(g) for g in self.groups]
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
        return self.seq_index(x), y.astype(np.int8), true_hyp, self.typical_stages(x)


class Codebook:
    """Seeded binning structure bound to a model and observed marginal groups.

    Stage s bins the first ``ends[s]`` blocks into ``bins`` bins with seed
    ``seeds[s]``.  ``batch`` (the deferred-encoding message, an int) is the one
    stage ``ends = (K,)`` with 2**rate_bits bins; ``sequential`` (the
    deferred-decoding message stream, a tuple) has ``ends = (1, ..., K)`` with
    2**(rate_bits/K) bins each.  K is the number of observed groups and the
    alphabets are the shape of their joint pmfs.  Only the bins depend on the
    rate; ``at_rate`` gives the codebook of another rate, which shares the
    rest.  The shared part keeps the sequence table and the last trial draw
    of ``run_codec_trials`` for as long as one of these codebooks is held.
    """

    def __init__(
        self,
        model: SourceModel,
        config: CodecConfig,
        groups: tuple[int, ...],
        kind: str = BATCH,
    ):
        self._bind(_SequenceSpace(model, groups, config.n, config.delta, kind), config)

    def _bind(self, space: _SequenceSpace, config: CodecConfig) -> None:
        K = space.blocks
        if not 0 <= config.seed < 2 ** 64 - K:  # every stage seed is a uint64
            raise ValueError(f"seed must be in [0, 2**64 - K), got {config.seed}")
        self._space = space
        self.config = config
        self.kind, self.blocks, self.total, self.ends = space.kind, K, space.total, space.ends
        self.alphabet_x, self.alphabet_y = space.alphabet_x, space.alphabet_y
        self.seeds = (config.seed,) if space.kind == BATCH else tuple(
            config.seed + k for k in space.ends)
        # capped where 2**63 bins already exceed every guarded prefix count
        self.bins = max(1, round(2.0 ** min(config.rate_bits / len(self.ends), 63)))
        self.injective = self.bins >= self.total  # the longest prefix has the most

    def at_rate(self, rate_bits: float) -> Codebook:
        """This codebook at another rate; both share the sequence table, the
        X-typical set, the hypotheses and the last trial draw."""
        book = Codebook.__new__(Codebook)
        book._bind(self._space, replace(self.config, rate_bits=rate_bits))
        return book

    def _prefix_total(self, k: int) -> int:
        return self.alphabet_x ** (self.config.n * k)

    def _bins_of(self, index: np.ndarray) -> np.ndarray:
        """Bins of each sequence index, one per stage on a last axis: the
        prefix's index plus one where the stage has at least as many bins as
        prefixes, else its seeded hash.  Only the prefixes asked for are
        hashed: the X-typical set once per codebook, the trials once per run."""
        stages = []
        for end, seed in zip(self.ends, self.seeds):
            prefix = index // self._prefix_total(self.blocks - end)
            stages.append(prefix + 1 if self.bins >= self._prefix_total(end)
                          else _hash_bins(prefix, self.bins, seed))
        return np.stack(stages, axis=-1)

    def _encode(self, index: np.ndarray, typical: np.ndarray) -> np.ndarray:
        """Per-stage bins of the sequences of ``index`` whose stage prefixes'
        typicality is ``typical``; an atypical prefix gets bin 1."""
        return np.where(typical, self._bins_of(index), 1)

    # -- decoding tables, built once per codebook --

    def _keys(self, bins) -> np.ndarray:
        """Sort key of (..., stages) messages whose bins are all in
        1..min(bins, total): the bins read as digits of one more than that."""
        radix = min(self.bins, self.total) + 1
        return np.asarray(bins, dtype=np.int64) @ radix ** np.arange(
            len(self.ends) - 1, -1, -1, dtype=np.int64)

    @cached_property
    def _index(self) -> tuple[np.ndarray, np.ndarray]:
        """The X-typical sequences stably sorted by the key of their message,
        and the sorted keys."""
        typical = self._space.typical
        keys = self._keys(self._bins_of(typical))
        order = np.argsort(keys, kind="stable")
        return keys[order], typical[order]

    def _lookup(self, bins) -> tuple[np.ndarray, np.ndarray]:
        """Range of each message's candidates in ``_index``."""
        keys = self._keys(bins)
        sorted_keys = self._index[0]
        return sorted_keys.searchsorted(keys, "left"), sorted_keys.searchsorted(keys, "right")

    def _score(self, lo: np.ndarray, hi: np.ndarray, y: np.ndarray):
        """Score the candidates of T trials with received (T, K, n) blocks.

        Returns the candidates' sequence indices, grouped by trial and in
        index order within one; each candidate's trial; whether each
        hypothesis is jointly typical with it under the trial's y, shape
        (candidates, hypotheses); and its highest such posterior (0 if none).
        """
        cfg = self.config
        width = cfg.n * self.blocks
        hypotheses = self._space.hypotheses
        counts = hi - lo
        trial = np.repeat(np.arange(len(counts)), counts)
        first = np.cumsum(counts) - counts
        cand = self._index[1][np.arange(len(trial)) - first[trial] + lo[trial]]
        # flat offset of (block, x symbol, y symbol) in a (K, ax, ay) table
        block = np.arange(width) // cfg.n
        cell = ((block * self.alphabet_x + self._space.all_sequences[cand]) * self.alphabet_y
                + y.reshape(len(y), width)[trial]).reshape(-1, self.blocks, cfg.n)
        y_block = np.arange(self.blocks)[:, None]
        typical = np.empty((len(cand), len(hypotheses)), dtype=bool)
        best = np.zeros(len(cand))
        for h, (hyp, post) in enumerate(hypotheses):
            y_typical = _typical(hyp.log_y[y_block, y], hyp.h_y, cfg.delta)
            typical[:, h] = (y_typical[trial]
                             & _typical(hyp.log_xy.ravel()[cell], hyp.h_xy, cfg.delta))
            best = np.maximum(best, np.where(typical[:, h], post, 0.0))
        return cand, trial, typical, best


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


def encode(codebook: Codebook, x_blocks) -> int | tuple[int, ...]:
    """Bin index (batch) or per-block bin tuple (sequential); atypical -> bin 1.
    No caller in the package: the benchmark's tracer wraps it by name."""
    x = _as_blocks(x_blocks, codebook.blocks, codebook.config.n)[None]
    typical = codebook._space.typical_stages(x)
    bins = codebook._encode(codebook._space.seq_index(x), typical)[0]
    return int(bins[0]) if codebook.kind == BATCH else tuple(bins.tolist())


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


def run_codec_trials(codebook: Codebook, *, trials: int, seed: int) -> CodecTrialReport:
    """Encode/decode i.i.d. source pairs and classify every decoding error;
    the scoring pass decides every pair's typicality, the sent one's too.
    The draw of ``(trials, seed)`` is kept by the codebook's rate-free part,
    so codebooks of other rates from ``at_rate`` reuse it; it stays alive
    (about 20 + K*n bytes per trial) until the next draw or until the last
    codebook sharing that part is dropped."""
    index, y, true_hyp, stages = codebook._space.draw(trials, seed)
    K, n = codebook.blocks, codebook.config.n
    lo, hi = codebook._lookup(codebook._encode(index, stages))
    cells = np.cumsum((hi - lo) * (K * n))
    decoded = np.empty(trials, dtype=np.int64)
    collided, typical_pair = np.zeros((2, trials), dtype=bool)
    start = 0
    while start < trials:
        base = cells[start - 1] if start else 0
        stop = max(start + 1, int(cells.searchsorted(base + _CHUNK_CELLS, "right")))
        part = slice(start, stop)
        cand, trial, typical, best = codebook._score(lo[part], hi[part], y[part])
        decoded[part] = _winners(cand, trial, best, stop - start)
        # Y and XY typicality under the true hypothesis: x's own row, or a collision
        true = typical[np.arange(len(cand)), true_hyp[part][trial]]
        hit = trial[true]
        own = cand[true] == index[part][hit]
        collided[start + hit[~own]] = True
        typical_pair[start + hit[own]] = True
        start = stop
    typical_pair &= stages.all(-1)  # an atypical stage prefix is eps1 whatever x's scores

    wrong = decoded != index
    collision = wrong & typical_pair
    return CodecTrialReport(
        trials,
        errors=int(wrong.sum()),
        eps1=int((wrong & ~typical_pair).sum()),
        eps2=int((collision & collided).sum()),
        eps3=int((collision & ~collided).sum()),
    )
