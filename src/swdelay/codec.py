"""Desk-scale random-binning codec with a posterior-weighted typicality decoder.

Sequences of K blocks of n symbols are mapped to bin indices by a seeded
pseudo-random hash (no codebook is stored); the decoder enumerates the
sequences consistent with the received bin(s), keeps those typical under
some joint-cdf hypothesis compatible with the observed marginal groups, and
returns the candidate whose best hypothesis posterior is highest.  Ties
break to the lexicographically smallest candidate.

Typicality is the empirical log-likelihood kind: a sequence is typical when
its per-symbol log-likelihood deviates from the per-symbol entropy average
by at most ``delta`` bits.  When the bin count is at least the number of
possible sequences the binning degenerates to the identity map, which makes
it injective.

Everything here is exhaustive by design and guarded to small alphabets and
short blocks; the asymptotic guarantees of the rate oracle are *not*
reproducible at these sizes, so tests work with margins.  Encoding,
candidate lookup and scoring work on arrays of trials: the per-sequence
functions are batches of one, and ``run_codec_trials`` runs all its trials
as one batched pass in chunks of bounded size.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .entropy import entropy_bits, marginal_x, marginal_y
from .model import CdfEntry, ModelError, SourceModel

MAX_SEQUENCES = 10_000_000
_TYP_TOL = 1e-12  # absorbs float noise on the typicality boundary

# run_codec_trials scores the candidates of consecutive trials together while
# their cells (candidates x K*n symbols) fit in this many, and always at least
# one trial.  Each cell holds a few 8-byte temporaries.  Measured on a 2-core
# Xeon (numpy 2.4.6) on the benchmark's codec workload (2^12 and 2^14
# sequences, 500 trials per rate): peak RSS is 45.2-46.3 MiB at 2^14-2^16
# cells, against 45.5 MiB scoring one trial at a time and 55.8 MiB scoring all
# at once; smaller chunks cost time (1.7x at 2^12, 3.8x at 2^10).
_CHUNK_CELLS = 2 ** 16


@dataclass(frozen=True)
class CodecConfig:
    alphabet_x: int
    alphabet_y: int
    n: int
    blocks: int
    delta: float
    rate_bits: float
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.alphabet_x <= 4 or not 1 <= self.alphabet_y <= 4:
            raise ValueError("alphabet sizes must be between 1 and 4")
        if not 1 <= self.n <= 16:
            raise ValueError("block length n must be between 1 and 16")
        if not 1 <= self.blocks <= 2:
            raise ValueError("block count K must be 1 or 2")
        if self.alphabet_x ** (self.n * self.blocks) > MAX_SEQUENCES:
            raise ValueError("alphabet_x ** (n*K) exceeds the exhaustive-decoding guard")
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.rate_bits < 0:
            raise ValueError("rate_bits must be nonnegative")


# ---------------------------------------------------------------------------
# typicality
# ---------------------------------------------------------------------------

def _log2_pmf(pmf: np.ndarray) -> np.ndarray:
    out = np.full(pmf.shape, -np.inf)
    mask = pmf > 0
    out[mask] = np.log2(pmf[mask])
    return out


def _as_blocks(seq, K: int, n: int) -> np.ndarray:
    arr = np.asarray(seq, dtype=np.int64)
    if arr.size != K * n:
        raise ValueError(f"sequence length {arr.size} does not match K*n = {K * n}")
    return arr.reshape(K, n)


def _deviation(ll, h, k, n):
    """|-ll/(k n) - h/k|: per-symbol log-likelihood against the mean entropy of k blocks."""
    return np.abs(-ll / (k * n) - h / k)


def _typical_prefixes(log_pmf: np.ndarray, h: np.ndarray, delta: float, *symbols):
    """Typicality of every k-block prefix of symbol arrays shaped (..., K, n).

    The log-likelihood is summed per block and the block sums are added in
    block order; ``h[k]`` is the entropy of blocks 0..k added the same way.
    """
    block = np.arange(log_pmf.shape[0])[:, None]
    ll = np.cumsum(log_pmf[(block, *symbols)].sum(axis=-1), axis=-1)
    k = np.arange(1, ll.shape[-1] + 1)
    return _deviation(ll, h, k, symbols[0].shape[-1]) <= delta + _TYP_TOL


class _Hypothesis:
    """Log pmfs and cumulative entropies of one cdf per block, computed once."""

    def __init__(self, entries):
        pmfs = [e.joint_pmf for e in entries]
        self.log_x = np.array([_log2_pmf(marginal_x(p)) for p in pmfs])  # (K, ax)
        self.log_y = np.array([_log2_pmf(marginal_y(p)) for p in pmfs])  # (K, ay)
        self.log_xy = np.array([_log2_pmf(p) for p in pmfs])  # (K, ax, ay)
        self.h_x = np.cumsum([entropy_bits(marginal_x(p)) for p in pmfs])
        self.h_y = np.cumsum([entropy_bits(marginal_y(p)) for p in pmfs])
        self.h_xy = np.cumsum([entropy_bits(p) for p in pmfs])

    def jointly_typical(self, x: np.ndarray, y: np.ndarray, delta: float) -> np.ndarray:
        """X, Y and joint typicality of whole (..., K, n) sequence pairs."""
        return (
            _typical_prefixes(self.log_x, self.h_x, delta, x)[..., -1]
            & _typical_prefixes(self.log_y, self.h_y, delta, y)[..., -1]
            & _typical_prefixes(self.log_xy, self.h_xy, delta, x, y)[..., -1]
        )


def is_typical(x_blocks, cdf_sequence, delta: float) -> bool:
    """Empirical log-likelihood of x within delta of the mean block entropy."""
    hyp = _Hypothesis(cdf_sequence)
    x = np.asarray(x_blocks, dtype=np.int64).reshape(len(hyp.h_x), -1)
    return bool(_typical_prefixes(hyp.log_x, hyp.h_x, delta, x)[-1])


def jointly_typical(x_blocks, y_blocks, cdf_sequence, delta: float) -> bool:
    """X, Y and joint deviations all within delta under the hypothesis."""
    hyp = _Hypothesis(cdf_sequence)
    K = len(hyp.h_x)
    x = np.asarray(x_blocks, dtype=np.int64).reshape(K, -1)
    y = np.asarray(y_blocks, dtype=np.int64).reshape(K, -1)
    return bool(hyp.jointly_typical(x, y, delta))


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


class Codebook:
    """Seeded binning structure bound to a model and observed marginal groups.

    ``batch`` bins whole K-block sequences into 2**rate_bits bins (the
    deferred-encoding message); ``sequential`` bins every prefix of k blocks
    into 2**(rate_bits/K) bins and the message is the bin tuple (the
    deferred-decoding message stream).
    """

    def __init__(
        self,
        model: SourceModel,
        config: CodecConfig,
        groups: tuple[int, ...],
        kind: str = BATCH,
    ):
        if kind not in (BATCH, SEQUENTIAL):
            raise ValueError(f"kind must be {BATCH!r} or {SEQUENTIAL!r}")
        groups = tuple(int(g) for g in groups)
        if len(groups) != config.blocks:
            raise ValueError("one marginal group per block is required")
        for g in groups:
            for e in model.group_entries(g):
                if e.joint_pmf is None:
                    raise ModelError(f"cdf ({e.group},{e.member}) has no joint pmf")
                if e.joint_pmf.shape != (config.alphabet_x, config.alphabet_y):
                    raise ModelError(
                        f"cdf ({e.group},{e.member}) pmf shape {e.joint_pmf.shape} "
                        f"does not match the configured alphabets"
                    )
        self.model = model
        self.config = config
        self.groups = groups
        self.kind = kind
        ax = config.alphabet_x
        self.total = ax ** (config.n * config.blocks)
        if kind == BATCH:
            self.bins = max(1, round(2.0 ** config.rate_bits))
            self.injective = self.bins >= self.total
        else:
            per = config.rate_bits / config.blocks
            self.bins = max(1, round(2.0 ** per))
            self.injective = all(
                self.bins >= ax ** (config.n * k) for k in range(1, config.blocks + 1)
            )

    # -- sequence indexing (lexicographic, first symbol most significant) --

    def seq_index(self, x: np.ndarray) -> np.ndarray:
        """Index of each (..., K, n) sequence."""
        width = self.config.n * self.config.blocks
        x = np.asarray(x, dtype=np.int64)
        powers = self.config.alphabet_x ** np.arange(width - 1, -1, -1, dtype=np.int64)
        return x.reshape(*x.shape[:-2], width) @ powers

    @cached_property
    def _all_sequences(self) -> np.ndarray:
        """(total, K*n) table of every X sequence, in index order."""
        ax = self.config.alphabet_x
        width = self.config.n * self.config.blocks
        idx = np.arange(self.total, dtype=np.int64)
        out = np.empty((self.total, width), dtype=np.int8)
        for pos in range(width - 1, -1, -1):
            out[:, pos] = idx % ax
            idx //= ax
        return out

    def _prefix_total(self, k: int) -> int:
        return self.config.alphabet_x ** (self.config.n * k)

    @cached_property
    def _bins_table(self) -> np.ndarray | list[np.ndarray]:
        """Bin of every sequence (batch) or of every prefix per k (sequential)."""
        if self.kind == BATCH:
            idx = np.arange(self.total, dtype=np.int64)
            if self.injective:
                return idx + 1
            return _hash_bins(idx, self.bins, self.config.seed)
        tables = []
        for k in range(1, self.config.blocks + 1):
            idx = np.arange(self._prefix_total(k), dtype=np.int64)
            if self.bins >= self._prefix_total(k):
                tables.append(idx + 1)
            else:
                tables.append(_hash_bins(idx, self.bins, self.config.seed + k))
        return tables

    def _bins_of(self, index: np.ndarray) -> np.ndarray:
        """Bin of each sequence index (batch), or its bin per prefix as a last axis of K."""
        if self.kind == BATCH:
            return self._bins_table[index]
        K = self.config.blocks
        return np.stack([table[index // self._prefix_total(K - k)]
                         for k, table in enumerate(self._bins_table, 1)], axis=-1)

    def _message(self, bins: np.ndarray) -> int | tuple[int, ...]:
        return int(bins) if self.kind == BATCH else tuple(bins.tolist())

    def bin_of(self, x_blocks) -> int | tuple[int, ...]:
        """Raw binning map (total function; typicality is the encoder's job)."""
        x = _as_blocks(x_blocks, self.config.blocks, self.config.n)
        return self._message(self._bins_of(self.seq_index(x)))

    def marginal_entries(self) -> tuple[CdfEntry, ...]:
        """Representative entry per block (marginals are group properties)."""
        return tuple(self.model.group_entries(g)[0] for g in self.groups)

    @cached_property
    def _marginals(self) -> _Hypothesis:
        return _Hypothesis(self.marginal_entries())

    def _encode(self, x: np.ndarray) -> np.ndarray:
        """Messages of (T, K, n) sequences; an atypical sequence or prefix gets bin 1."""
        marginals = self._marginals
        typical = _typical_prefixes(marginals.log_x, marginals.h_x, self.config.delta, x)
        if self.kind == BATCH:
            typical = typical[:, -1]
        return np.where(typical, self._bins_of(self.seq_index(x)), 1)

    # -- decoding tables, built once per codebook --

    @cached_property
    def _hypotheses(self) -> list[tuple[_Hypothesis, float]]:
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

    def _keys(self, bins) -> np.ndarray:
        """Sort key of messages: the bin (batch), or the bin tuple read as digits
        of one more than the largest bin (sequential; -1 when out of range)."""
        bins = np.asarray(bins, dtype=np.int64)
        if self.kind == BATCH:
            return bins
        radix = min(self.bins, self.total) + 1
        keys = bins @ radix ** np.arange(self.config.blocks - 1, -1, -1, dtype=np.int64)
        return np.where(((bins > 0) & (bins < radix)).all(axis=-1), keys, -1)

    @cached_property
    def _index(self) -> tuple[np.ndarray, np.ndarray]:
        """The X-typical sequences stably sorted by the key of their message,
        and the sorted keys.  X marginals are shared within a group, so the
        set is hypothesis independent; each row is summed over its whole width."""
        cfg = self.config
        marginals = self._marginals
        block = np.arange(cfg.n * cfg.blocks) // cfg.n
        ll = marginals.log_x[block, self._all_sequences].sum(axis=1)
        dev = _deviation(ll, marginals.h_x[-1], cfg.blocks, cfg.n)
        typical = np.flatnonzero(dev <= cfg.delta + _TYP_TOL)
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
        width = cfg.n * cfg.blocks
        counts = hi - lo
        trial = np.repeat(np.arange(len(counts)), counts)
        first = np.cumsum(counts) - counts
        cand = self._index[1][np.arange(len(trial)) - first[trial] + lo[trial]]
        # flat offset of (block, x symbol, y symbol) in a (K, ax, ay) table
        block = np.arange(width) // cfg.n
        cell = ((block * cfg.alphabet_x + self._all_sequences[cand]) * cfg.alphabet_y
                + y.reshape(len(y), width)[trial])
        typical = np.empty((len(cand), len(self._hypotheses)), dtype=bool)
        best = np.zeros(len(cand))
        for h, (hyp, post) in enumerate(self._hypotheses):
            y_typical = _typical_prefixes(hyp.log_y, hyp.h_y, cfg.delta, y)[:, -1]
            ll = hyp.log_xy.ravel()[cell].sum(axis=1)
            dev = _deviation(ll, hyp.h_xy[-1], cfg.blocks, cfg.n)
            typical[:, h] = y_typical[trial] & (dev <= cfg.delta + _TYP_TOL)
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
    """Bin index (batch) or per-block bin tuple (sequential); atypical -> bin 1."""
    cfg = codebook.config
    x = _as_blocks(x_blocks, cfg.blocks, cfg.n)
    return codebook._message(codebook._encode(x[None])[0])


def decode(codebook: Codebook, bins, y_blocks) -> np.ndarray | None:
    """Posterior-argmax typicality decoding; None signals failure to decode."""
    cfg = codebook.config
    y = _as_blocks(y_blocks, cfg.blocks, cfg.n)
    cand, trial, _, best = codebook._score(*codebook._lookup([bins]), y[None])
    won = _winners(cand, trial, best, 1)[0]
    if won < 0:
        return None
    return codebook._all_sequences[won].astype(np.int64).reshape(cfg.blocks, cfg.n)


# ---------------------------------------------------------------------------
# Monte Carlo trials with error-event classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CodecTrialReport:
    trials: int
    errors: int
    failures: int
    eps1: int  # source pair atypical under the true cdf sequence
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


def run_codec_trials(
    model: SourceModel,
    groups,
    config: CodecConfig,
    *,
    kind: str = BATCH,
    trials: int,
    seed: int,
) -> CodecTrialReport:
    """Encode/decode i.i.d. source pairs and classify every decoding error."""
    codebook = Codebook(model, config, tuple(groups), kind)
    cfg = config
    K, n = cfg.blocks, cfg.n

    # per trial and block: the member, then its n symbol pairs, drawn from
    # one uniform each in the order of a choice(p=...) call per block
    member_lists = [model.group_entries(g) for g in codebook.groups]
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
    x, y = flat // cfg.alphabet_y, flat % cfg.alphabet_y
    true_hyp = np.ravel_multi_index(tuple(members.T), [len(m) for m in member_lists])
    true_idx = codebook.seq_index(x)

    lo, hi = codebook._lookup(codebook._encode(x))
    cells = np.cumsum((hi - lo) * (K * n))
    decoded = np.empty(trials, dtype=np.int64)
    collided = np.empty(trials, dtype=bool)
    start = 0
    while start < trials:
        base = cells[start - 1] if start else 0
        stop = max(start + 1, int(cells.searchsorted(base + _CHUNK_CELLS, "right")))
        part = slice(start, stop)
        cand, trial, typical, best = codebook._score(lo[part], hi[part], y[part])
        decoded[part] = _winners(cand, trial, best, stop - start)
        # another candidate jointly typical with y under the true hypothesis
        other = (typical[np.arange(len(cand)), true_hyp[part][trial]]
                 & (cand != true_idx[part][trial]))
        collided[part] = np.bincount(trial[other], minlength=stop - start) > 0
        start = stop

    typical_pair = np.empty(trials, dtype=bool)
    for h, (hyp, _) in enumerate(codebook._hypotheses):
        sel = true_hyp == h
        typical_pair[sel] = hyp.jointly_typical(x[sel], y[sel], cfg.delta)
    wrong = decoded != true_idx
    collision = wrong & typical_pair
    return CodecTrialReport(
        trials,
        errors=int(wrong.sum()),
        failures=int((decoded < 0).sum()),
        eps1=int((wrong & ~typical_pair).sum()),
        eps2=int((collision & collided).sum()),
        eps3=int((collision & ~collided).sum()),
    )


def error_breakdown(report: CodecTrialReport) -> tuple[int, int, int]:
    """The three error-event counts of a trial run."""
    return report.eps1, report.eps2, report.eps3
