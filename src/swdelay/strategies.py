"""Transmission-control strategies at the entropy level.

Implements the deferred-encoding strategy (accumulate blocks until the
per-block quantile rate drops to the channel rate), the deferred-decoding
strategy (ship channel-rate messages every block, decode once the quantile
is covered), and three reference baselines.  Messages carry sizes, never
symbols: a decoded batch is in outage exactly when its realised entropy sum
exceeds the bits delivered for it, the idealised large-block decoding model.

``simulate`` runs any mix of strategies on one (eta, seed): it samples one
trace per model it needs, segments each trace once per stop rule, then makes
one accounting pass per strategy.  One loop, ``_segment``, cuts the trace
into quantile-rated batches, memoized per run by the batch's group-count
vector (a memo hit could flip a decision only for a tail within rounding of
epsilon): ``we`` and ``wd`` close on the same test, tail(K*c) <= epsilon, so a
run asking for both segments once; ``accumulate`` closes every ``batch_size``
blocks.  ``known-joint`` and ``blockwise`` ship every block, on one table.
Accounting charges the delays on one of two sides, following the closed-form
cycle analysis so that the deterministic worst cases are exact:

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
from .model import (BlockTrace, EntropyStats, ModelError, SourceModel, check_blocks,
                    check_epsilon, check_eta, compute_stats, sample_trace)
from .rate import RateAccumulator

# absorbs float accumulation noise when comparing realised entropy sums
# against delivered rate; both sides are sums of the same per-block values
OUTAGE_TOL = 1e-9

WAIT_TO_ENCODE = "we"
WAIT_TO_DECODE = "wd"
KNOWN_JOINT = "known-joint"
BLOCKWISE = "blockwise"
ACCUMULATE = "accumulate"

STRATEGIES = (WAIT_TO_ENCODE, WAIT_TO_DECODE, KNOWN_JOINT, BLOCKWISE, ACCUMULATE)
# the stop rule each strategy's batches close on; one segmentation pass per rule
_RULE = {WAIT_TO_ENCODE: "adaptive", WAIT_TO_DECODE: "adaptive", ACCUMULATE: "fixed",
         KNOWN_JOINT: "one-block", BLOCKWISE: "one-block"}


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
    """Returns (c, eta) from whichever parameter was given; eta is below 1."""
    _check_channel(eta, c)
    if stats.e_h <= 0:
        raise ModelError("the mean conditional entropy is 0: eta = 1 - E[H]/c is 1 "
                         "at every channel rate c")
    if eta is not None:
        return stats.e_h / (1.0 - eta), eta
    eta = 1.0 - stats.e_h / c
    if eta >= 1:  # E[H]/c is below the float spacing just under 1
        raise ValueError(f"channel rate c = {c!r} is too large for E[H] = {stats.e_h!r}: "
                         f"eta = 1 - E[H]/c rounds to 1")
    return float(c), eta


def _check_channel(eta: float | None, c: float | None) -> None:
    if (eta is None) == (c is None):
        raise ValueError("give exactly one of eta or c")
    if eta is not None:
        check_eta(eta)
    if c is not None and not 0 < c < math.inf:
        raise ValueError(f"channel rate must be positive and finite, got c = {c}")


def check_run(strategies, *, epsilon: float | None, T: int, eta: float | None = None,
              c: float | None = None, batch_size: int | None = None) -> None:
    """Raises ValueError for a bad run argument, before any work.

    epsilon is checked whenever it is given; it may be omitted only when every
    strategy asked for is ``known-joint`` or ``blockwise``, which never outage.
    """
    if not strategies:
        raise ValueError("a run needs at least one strategy")
    for s in strategies:
        if s not in STRATEGIES:
            raise ValueError(f"unknown strategy {s!r}; expected one of {STRATEGIES}")
    if epsilon is not None or any(_RULE[s] != "one-block" for s in strategies):
        check_epsilon(epsilon)
    check_blocks(T)
    if ACCUMULATE in strategies and (batch_size is None or batch_size < 1):
        raise ValueError(f"the accumulate baseline needs a batch size >= 1, got {batch_size}")
    _check_channel(eta, c)


def _entropy_x_proxy(model: SourceModel) -> float | None:
    """Mean marginal entropy of X, available only when pmfs are present."""
    if any(e.joint_pmf is None for e in model.entries):
        return None
    return sum(e.prob * entropy_bits(marginal_x(e.joint_pmf)) for e in model.entries)


_MISS = object()  # memo sentinel: stored values are None or a rate, which can be 0.0


def _segment(trace: BlockTrace, model: SourceModel, *, c: float, epsilon: float,
             batch_size: int | None = None) -> tuple[list[int], list[float], list[float]]:
    """A batch table: sizes K, realised entropy sums (added block by block) and
    epsilon-quantile rates.  A batch closes at the first block with
    tail(K*c) <= epsilon (``we``/``wd``), or at K = ``batch_size`` when one is
    given (``accumulate``); blocks after the last close are never decoded.

    Convolution commutes, so the decision and the quantile depend only on the
    group-count vector, memoized under one integer key (a count field of
    ``T.bit_length() + 1`` bits per group: no collisions for K <= T).  A hit
    queues the block unpushed; a miss pushes the queue and then the block, in
    arrival order, as pushing every block would.  The memo holds <= T entries.
    """
    acc = RateAccumulator(model)
    push, tail_above, quantile = acc.push_block, acc.tail_above, acc.rate_quantile
    width = len(trace.h).bit_length() + 1
    bit = [0] + [1 << (width * g) for g in range(model.m)]
    memo: dict[int, float | None] = {}
    pending: list[int] = []
    sizes, ents, rates = [], [], []
    K, key, ent = 0, 0, 0.0
    for group, h in zip(trace.groups.tolist(), trace.h.tolist()):
        K += 1
        ent += h
        key += bit[group]
        rate = memo.get(key, _MISS)
        if rate is _MISS:
            for g in pending:
                push(g)
            pending.clear()
            push(group)
            # accumulate waits for batch_size blocks; we/wd wait while quantile/K > c,
            # i.e. while the tail above K*c exceeds eps
            wait = K < batch_size if batch_size else tail_above(K * c) > epsilon
            rate = memo[key] = None if wait else quantile(epsilon)
        else:
            pending.append(group)
        if rate is not None:
            sizes.append(K)
            ents.append(ent)
            rates.append(rate)
            if acc.k:  # a batch answered wholly from the memo pushed nothing
                acc.reset()
            pending.clear()
            K, key, ent = 0, 0, 0.0
    return sizes, ents, rates


def simulate(model: SourceModel, strategies, *, epsilon: float | None, T: int, seed: int,
             eta: float | None = None, c: float | None = None, batch_size: int | None = None,
             use_marginals: bool = True, collect_records: bool = False,
             collect_batches: bool = False) -> tuple[SimulationResult, ...]:
    """One result per strategy asked for, in that order, all on one (eta, seed).

    The trace of each model used is sampled once and cut once per stop rule.
    Without ``use_marginals`` a multi-group model is collapsed, once, for the
    batched strategies (blind encoder and decoder); its trace has the same
    entropies, as it draws the same entries.  Blind ``we``/``wd`` report no
    compression ratio, blind ``accumulate`` the model's.  The one-block
    baselines keep the model.
    """
    check_run(strategies, epsilon=epsilon, T=T, eta=eta, c=c, batch_size=batch_size)
    epsilon = None if epsilon is None else float(epsilon)
    stats = compute_stats(model)
    c, eta = resolve_channel_rate(stats, eta, c)
    if c <= stats.e_h and set(strategies) != {BLOCKWISE}:  # blockwise reports `unstable`
        warnings.warn(
            f"channel rate {c!r} does not exceed the mean conditional entropy "
            f"{stats.e_h!r}; delay may diverge",
            RuntimeWarning,
            stacklevel=2,
        )
    blind = not use_marginals and model.m > 1 and any(_RULE[s] != "one-block"
                                                      for s in strategies)
    batch_model = model.collapse_marginals() if blind else model
    traces: dict[bool, BlockTrace] = {}  # keyed by "runs on the model as given"
    tables = {}
    results = []
    for strategy in strategies:
        rule = _RULE[strategy]
        if rule not in tables:
            on = model if rule == "one-block" else batch_model
            if (on is model) not in traces:
                traces[on is model] = sample_trace(on, T, seed)
            trace = traces[on is model]
            if rule == "one-block":  # shipped at its own entropy (blockwise: H_max)
                ents = trace.h.tolist()
                table = [1] * T, ents, ents
            else:
                table = _segment(trace, on, c=c, epsilon=epsilon,
                                 batch_size=batch_size if rule == "fixed" else None)
            proxy = _entropy_x_proxy(on if rule == "adaptive" else model)
            tables[rule] = (proxy, *table)
        proxy, sizes, ents, rates = tables[rule]
        if strategy == WAIT_TO_DECODE:  # the decoder holds K*c bits at a close
            rates = [K * c for K in sizes]
        elif strategy == BLOCKWISE:
            rates = [stats.h_max] * T
        results.append(_account(
            strategy, sizes, ents, rates, n=model.block_len_n, c=c, eta=eta,
            epsilon=None if rule == "one-block" else epsilon, seed=seed, T=T,
            proxy=proxy, collect_records=collect_records, collect_batches=collect_batches))
    return tuple(results)


def _account(strategy: str, sizes: list[int], ents: list[float], batch_rates: list[float],
             *, n: int, c: float, eta: float, epsilon: float | None, seed: int, T: int,
             proxy: float | None, collect_records: bool, collect_batches: bool
             ) -> SimulationResult:
    """The accounting pass of one strategy over its batch table."""
    d = sum(sizes)
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
    return SimulationResult(
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
    )


# The benchmark imports these three names (bench/run.py the run_wait_* pair,
# bench/tracer.py run_strategy), so they stay as one-strategy simulate calls.
def run_wait_to_encode(model: SourceModel, **kw) -> SimulationResult:
    return simulate(model, (WAIT_TO_ENCODE,), **kw)[0]


def run_wait_to_decode(model: SourceModel, **kw) -> SimulationResult:
    return simulate(model, (WAIT_TO_DECODE,), **kw)[0]


def run_strategy(strategy: str, model: SourceModel, **kw) -> SimulationResult:
    return simulate(model, (strategy,), **kw)[0]
