"""Transmission-control strategies at the entropy level.

Implements the deferred-encoding strategy (accumulate blocks until the
per-block quantile rate drops to the channel rate), the deferred-decoding
strategy (ship channel-rate messages every block, decode once the quantile
is covered), and three reference baselines.  Messages carry sizes, never
symbols: a decoded batch is in outage exactly when its realised entropy sum
exceeds the bits delivered for it, the idealised large-block decoding model.

A run is one segmentation pass, then one accounting pass per strategy.
Segmentation cuts the trace into batches: ``we`` and ``wd`` on the same test,
tail(K*c) <= epsilon, memoized per run by the batch's group-count vector (a
memo hit could flip a decision only for a tail within rounding of epsilon), so
``run_adaptive`` segments one trace once for both; ``accumulate`` every N
blocks; ``known-joint`` and ``blockwise`` every block.  Accounting charges the
delays on one of two sides, following the closed-form cycle analysis so that
the deterministic worst cases are exact:

* encoder side (deferred encoding, the baselines): the batch closing at t
  ships as one message into the FIFO channel queue, W_E(tau) = t - tau + 1,
  W_C from the queue, W_D = 0;
* decoder side (deferred decoding): n*c bits every block saturate the
  channel, so W_E = W_C = 1, and W_D(tau) = t - tau at decode time t.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .channel import ChannelQueue
from .entropy import entropy_bits, marginal_x
from .model import (BlockTrace, EntropyStats, ModelError, SourceModel, compute_stats,
                    sample_trace)
from .rate import RateAccumulator, rate_unconditional

# absorbs float accumulation noise when comparing realised entropy sums
# against delivered rate; both sides are sums of the same per-block values
OUTAGE_TOL = 1e-9

WAIT_TO_ENCODE = "we"
WAIT_TO_DECODE = "wd"
KNOWN_JOINT = "known-joint"
BLOCKWISE = "blockwise"
ACCUMULATE = "accumulate"

STRATEGIES = (WAIT_TO_ENCODE, WAIT_TO_DECODE, KNOWN_JOINT, BLOCKWISE, ACCUMULATE)
ADAPTIVE = (WAIT_TO_ENCODE, WAIT_TO_DECODE)  # the pair that shares one segmentation


@dataclass(frozen=True)
class BatchOutcome:
    """Accounting for one jointly decoded batch."""

    covers: tuple[int, int]
    rate_total: float      # bits delivered for the batch (per-symbol units)
    entropy_total: float   # realised sum of conditional entropies
    outage: bool


class DelayRecords:
    """Per-block delays of the decoded blocks, as four parallel arrays."""

    __slots__ = ("block", "w_e", "w_c", "w_d")

    def __init__(self, block, w_e, w_c, w_d):
        self.block = block
        self.w_e = w_e
        self.w_c = w_c
        self.w_d = w_d

    def __len__(self):
        return len(self.block)


@dataclass(frozen=True)
class SimulationResult:
    strategy: str
    eta: float
    epsilon: float | None
    seed: int
    blocks: int
    decoded_blocks: int
    batches: int
    mean_delay: float
    mean_w_e: float
    mean_w_c: float
    mean_w_d: float
    outage_rate: float
    mean_encoding_rate: float
    compression_ratio: float | None
    c: float
    unstable: bool = False
    records: DelayRecords | None = None
    batch_log: tuple[BatchOutcome, ...] | None = None


def resolve_channel_rate(
    stats: EntropyStats, eta: float | None, c: float | None
) -> tuple[float, float]:
    """Returns (c, eta) from whichever parameter was given."""
    if (eta is None) == (c is None):
        raise ValueError("give exactly one of eta or c")
    if eta is not None:
        if not 0 < eta < 1:
            raise ValueError(f"eta must be in (0, 1), got {eta}")
        if stats.e_h <= 0:
            raise ModelError("the mean conditional entropy is 0: the channel rate "
                             "E[H]/(1 - eta) is 0")
        return stats.e_h / (1.0 - eta), eta
    if c <= 0:
        raise ValueError(f"channel rate must be positive, got {c}")
    return float(c), 1.0 - stats.e_h / c


def _entropy_x_proxy(model: SourceModel) -> float | None:
    """Mean marginal entropy of X, available only when pmfs are present."""
    if any(e.joint_pmf is None for e in model.entries):
        return None
    return sum(e.prob * entropy_bits(marginal_x(e.joint_pmf)) for e in model.entries)


_MISS = object()  # memo sentinel: stored values are None or a rate, which can be 0.0


class _StoppingRule:
    """The shared ``we``/``wd`` batch stop, tail(K*c) <= epsilon, memoized per run.

    A flush returns the batch's epsilon-quantile, the ``we`` message size;
    ``wd`` ships K*c instead and reads only where the batch closed.
    Convolution commutes, so the stop decision and the quantile depend only on
    the batch's group-count vector, packed here into one integer key (one count
    field of ``T.bit_length() + 1`` bits per group, so no collisions for
    K <= T).  A hit answers from the memo and queues the group unpushed; a miss
    first pushes the queued groups and then the new one, in arrival order,
    which leaves the accumulator exactly where pushing every block would, and
    then queries it.  Each miss pushes at least once, so the memo holds at
    most T entries.
    """

    def __init__(self, model: SourceModel, *, c: float, epsilon: float, T: int):
        self.acc = RateAccumulator(model)
        self.c = c
        self.epsilon = epsilon
        width = T.bit_length() + 1
        self._bit = {g: 1 << (width * (g - 1)) for g in range(1, model.m + 1)}
        self._k = 0
        self._key = 0
        self._pending: list[int] = []
        self._memo: dict[int, float | None] = {}

    def push(self, group: int) -> float | None:
        """Adds one block: None while the batch waits, else the batch's
        epsilon-quantile at the flush; the next push then starts a new batch."""
        self._k += 1
        self._key += self._bit[group]
        rate = self._memo.get(self._key, _MISS)
        if rate is _MISS:
            rate = self._evaluate(group)
        else:
            self._pending.append(group)
        if rate is not None:
            self._flush()
        return rate

    def _evaluate(self, group: int) -> float | None:
        acc = self.acc
        for g in self._pending:
            acc.push_block(g)
        acc.push_block(group)
        self._pending.clear()
        K = self._k
        # wait while quantile/K > c, i.e. while the tail above K*c exceeds eps
        if acc.tail_above(K * self.c) > self.epsilon:
            rate = None
        else:
            rate = acc.rate_quantile(self.epsilon)
        self._memo[self._key] = rate
        return rate

    def _flush(self) -> None:
        if self.acc.k:  # a batch answered wholly from the memo pushed nothing
            self.acc.reset()
        self._k = 0
        self._key = 0
        self._pending.clear()


def _fixed_stop(model: SourceModel, N: int, epsilon: float, use_marginals: bool):
    """The accumulate stop: every N blocks, at the epsilon-quantile of the batch's
    own groups with ``use_marginals``, else at the unconditional N-block one (the
    same rate when the model has one group)."""
    if not use_marginals or model.m == 1:
        fixed = rate_unconditional(model, N, epsilon)
        count = itertools.count(1)
        return lambda group: None if next(count) % N else fixed
    acc = RateAccumulator(model)

    def stop(group: int) -> float | None:
        acc.push_block(group)
        if acc.k < N:
            return None
        rate = acc.rate_quantile(epsilon)
        acc.reset()
        return rate

    return stop


def _segment(trace: BlockTrace, stop) -> tuple[list[int], list[float], list[float]]:
    """The batch table of the trace: sizes K, realised entropy sums (added block
    by block) and rates.  A batch closes at the block where stop(group) returns
    its rate; blocks after the last close are never decoded."""
    sizes, ents, rates = [], [], []
    K, ent = 0, 0.0
    for group, h in zip(trace.groups.tolist(), trace.h.tolist()):
        K += 1
        ent += h
        rate = stop(group)
        if rate is not None:
            sizes.append(K)
            ents.append(ent)
            rates.append(rate)
            K, ent = 0, 0.0
    return sizes, ents, rates


def _simulate(strategies: tuple[str, ...], model: SourceModel, *, epsilon: float | None,
              T: int, seed: int, eta: float | None, c: float | None, N: int = 1,
              use_marginals: bool = True, collect_records: bool = False,
              collect_batches: bool = False) -> list[SimulationResult]:
    """Runs of one strategy, or of both ``ADAPTIVE`` strategies on one trace:
    one prologue and one segmentation pass, then one accounting pass each.
    Without ``use_marginals`` the adaptive strategies run blind, on the
    collapsed model."""
    first = strategies[0]
    if first in ADAPTIVE and not use_marginals and model.m > 1:
        model = model.collapse_marginals()
    if first in (KNOWN_JOINT, BLOCKWISE):
        epsilon = None  # never in outage, so no outage target
    elif epsilon is None or not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    else:
        epsilon = float(epsilon)
    stats = compute_stats(model)
    c, eta = resolve_channel_rate(stats, eta, c)
    if c <= stats.e_h and first != BLOCKWISE:  # blockwise reports `unstable`
        warnings.warn(
            f"channel rate {c!r} does not exceed the mean conditional entropy "
            f"{stats.e_h!r}; delay may diverge",
            RuntimeWarning,
            stacklevel=3,
        )
    trace = sample_trace(model, T, seed)

    if first in ADAPTIVE:
        rule = _StoppingRule(model, c=c, epsilon=epsilon, T=T)
        sizes, ents, rates = _segment(trace, rule.push)
    elif first == ACCUMULATE:
        sizes, ents, rates = _segment(trace, _fixed_stop(model, N, epsilon, use_marginals))
    else:  # one block per batch, shipped at its own entropy or at H_max
        ents = trace.h.tolist()
        sizes = [1] * T
        rates = ents if first == KNOWN_JOINT else [stats.h_max] * T

    n = model.block_len_n
    d = sum(sizes)
    proxy = _entropy_x_proxy(model)
    results = []
    for strategy in strategies:
        # the wd decoder holds K*c bits at a close, whatever the batch's quantile
        batch_rates = [K * c for K in sizes] if strategy == WAIT_TO_DECODE else rates
        outage = [ent > rate + OUTAGE_TOL for ent, rate in zip(ents, batch_rates)]
        outage_blocks = sum(K for K, out in zip(sizes, outage) if out)
        wcs: list[float] | None = [] if collect_records else None
        if strategy == WAIT_TO_DECODE:
            sum_we = sum_wc = float(d)
            sum_wd = float(sum(K * (K - 1) // 2 for K in sizes))
            bits_emitted = n * c * T
            unstable = False
        else:
            queue = ChannelQueue(rate_bits_per_block=n * c)
            enqueue = queue.enqueue
            sum_we = float(sum(K * (K + 1) // 2 for K in sizes))
            sum_wc = sum_wd = bits_emitted = 0.0
            t = 0
            for K, rate in zip(sizes, batch_rates):
                t += K
                bits = n * rate
                w_c = enqueue(bits, float(t)) - t
                sum_wc += w_c * K
                bits_emitted += bits
                if wcs is not None:
                    wcs.append(w_c)
            # superlinear queue growth: the backlog at the end never drained
            unstable = (strategy != WAIT_TO_ENCODE
                        and (queue.busy_until - T) > max(5.0, 0.02 * T))

        records = batch_log = None
        if collect_records:
            k = np.asarray(sizes, dtype=np.int64)
            block = np.arange(1, d + 1, dtype=np.int64)
            lag = np.repeat(np.cumsum(k), k) - block  # t - tau
            if strategy == WAIT_TO_DECODE:
                records = DelayRecords(block, np.ones(d), np.ones(d), lag.astype(float))
            else:
                records = DelayRecords(block, (lag + 1).astype(float),
                                       np.repeat(np.array(wcs, dtype=float), k), np.zeros(d))
        if collect_batches:
            ends = list(itertools.accumulate(sizes))
            covers = [(t - K + 1, t) for K, t in zip(sizes, ends)]
            batch_log = tuple(map(BatchOutcome, covers, batch_rates, ents, outage))

        mean_we, mean_wc, mean_wd = (s / d if d else math.nan
                                     for s in (sum_we, sum_wc, sum_wd))
        mean_rate = bits_emitted / (n * T)
        results.append(SimulationResult(
            strategy=strategy,
            eta=eta,
            epsilon=epsilon,
            seed=seed,
            blocks=T,
            decoded_blocks=d,
            batches=len(sizes),
            mean_delay=mean_we + mean_wc + mean_wd,
            mean_w_e=mean_we,
            mean_w_c=mean_wc,
            mean_w_d=mean_wd,
            outage_rate=outage_blocks / d if d else math.nan,
            mean_encoding_rate=mean_rate,
            compression_ratio=(mean_rate / proxy) if proxy else None,
            c=c,
            unstable=unstable,
            records=records,
            batch_log=batch_log,
        ))
    return results


def run_wait_to_encode(
    model: SourceModel,
    *,
    epsilon: float,
    T: int,
    seed: int,
    eta: float | None = None,
    c: float | None = None,
    collect_records: bool = False,
    collect_batches: bool = False,
) -> SimulationResult:
    """Defer encoding until the quantile rate per block drops to the channel rate.

    Each block's marginal group is pushed into the rate accumulator; while
    quantile/K exceeds c the blocks wait at the encoder.  At a flush the whole
    batch ships as one message sized at the quantile, and the accumulator
    starts afresh.
    """
    return _simulate((WAIT_TO_ENCODE,), model, epsilon=epsilon, T=T, seed=seed, eta=eta, c=c,
                     collect_records=collect_records, collect_batches=collect_batches)[0]


def run_wait_to_decode(
    model: SourceModel,
    *,
    epsilon: float,
    T: int,
    seed: int,
    eta: float | None = None,
    c: float | None = None,
    collect_records: bool = False,
    collect_batches: bool = False,
) -> SimulationResult:
    """Ship one channel-rate message per block; defer decoding until covered.

    Every block emits exactly n*c bits, so the channel is saturated and both
    the encoding and transmission delays are one block.  The decoder
    accumulates messages and decodes the pending batch at the first K whose
    quantile fits within K*c bits; the batch is in outage when the realised
    entropy sum exceeds K*c.
    """
    return _simulate((WAIT_TO_DECODE,), model, epsilon=epsilon, T=T, seed=seed, eta=eta, c=c,
                     collect_records=collect_records, collect_batches=collect_batches)[0]


def run_adaptive(
    model: SourceModel,
    *,
    epsilon: float,
    T: int,
    seed: int,
    eta: float,
    use_marginals: bool = True,
    collect_records: bool = False,
    collect_batches: bool = False,
) -> tuple[SimulationResult, SimulationResult]:
    """The (``we``, ``wd``) results of one trace, from one segmentation pass.

    Both strategies stop on the same test, so they cut the trace into the same
    batches; each result equals its ``run_wait_to_encode`` or
    ``run_wait_to_decode`` run.  Without ``use_marginals`` a multi-group model
    is collapsed once for both (blind encoder and decoder).
    """
    return tuple(_simulate(ADAPTIVE, model, epsilon=epsilon, T=T, seed=seed, eta=eta, c=None,
                           use_marginals=use_marginals, collect_records=collect_records,
                           collect_batches=collect_batches))


def run_baseline_known_joint(
    model: SourceModel,
    *,
    T: int,
    seed: int,
    eta: float | None = None,
    c: float | None = None,
    collect_records: bool = False,
) -> SimulationResult:
    """Genie baseline: the joint cdf is known, each block ships at H_(t)(X|Y).

    Zero outage by construction; the only random delay component is the FIFO
    queue fed by the per-block entropies.
    """
    return _simulate((KNOWN_JOINT,), model, epsilon=None, T=T, seed=seed, eta=eta, c=c,
                     collect_records=collect_records)[0]


def run_baseline_blockwise(
    model: SourceModel,
    *,
    T: int,
    seed: int,
    eta: float | None = None,
    c: float | None = None,
    collect_records: bool = False,
) -> SimulationResult:
    """Conservative baseline: every block ships at the maximal entropy H_max.

    Zero outage; unstable (diverging delay) whenever c < H_max.
    """
    return _simulate((BLOCKWISE,), model, epsilon=None, T=T, seed=seed, eta=eta, c=c,
                     collect_records=collect_records)[0]


def run_baseline_accumulate(
    model: SourceModel,
    *,
    epsilon: float,
    N: int,
    T: int,
    seed: int,
    eta: float | None = None,
    c: float | None = None,
    use_marginals: bool = False,
    collect_records: bool = False,
    collect_batches: bool = False,
) -> SimulationResult:
    """Fixed-size batching: flush every N blocks at the N-block quantile rate."""
    if N < 1:
        raise ValueError(f"batch size must be >= 1, got {N}")
    return _simulate((ACCUMULATE,), model, epsilon=epsilon, T=T, seed=seed, eta=eta, c=c,
                     N=N, use_marginals=use_marginals,
                     collect_records=collect_records, collect_batches=collect_batches)[0]


def run_strategy(
    strategy: str,
    model: SourceModel,
    *,
    epsilon: float | None,
    T: int,
    seed: int,
    eta: float | None = None,
    c: float | None = None,
    batch_size: int | None = None,
    use_marginals: bool = True,
    collect_records: bool = False,
) -> SimulationResult:
    """Dispatch by strategy name (the CLI entry point)."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if strategy == ACCUMULATE:
        if batch_size is None:
            raise ValueError("the accumulate baseline needs a batch size")
        return run_baseline_accumulate(
            model, epsilon=epsilon, N=batch_size, T=T, seed=seed, eta=eta, c=c,
            use_marginals=use_marginals,
            collect_records=collect_records,
        )
    return _simulate((strategy,), model, epsilon=epsilon, T=T, seed=seed, eta=eta, c=c,
                     use_marginals=use_marginals, collect_records=collect_records)[0]
