"""Transmission-control strategies at the entropy level.

Implements the deferred-encoding strategy (accumulate blocks until the
per-block quantile rate drops to the channel rate), the deferred-decoding
strategy (ship channel-rate messages every block, decode once the quantile
is covered), and three reference baselines.  Messages carry sizes, never
symbols: a decoded batch is in outage exactly when its realised entropy sum
exceeds the bits delivered for it, the idealised large-block decoding model.

``simulate`` runs any mix of strategies on one (eta, seed): it samples one
trace, segments it once per stop rule, then makes one accounting pass per
strategy; a blind run is a run on the collapsed model.  One loop,
``_segment``, cuts the trace into quantile-rated batches, memoized per run by
the batch's group-count vector (a memo hit could flip a decision only for a
tail within rounding of epsilon): ``we`` and ``wd`` close on the same test,
tail(K*c) <= epsilon, so a run asking for both segments once; ``accumulate``
closes every ``batch_size`` blocks.  ``known-joint`` and ``blockwise`` ship
every block, on one table.
Accounting charges the delays on one of two sides, following the closed-form
cycle analysis so that the deterministic worst cases are exact; every size is
in bits per symbol, so no result depends on the block length n:

* encoder side (deferred encoding, the baselines): the batch of K blocks
  closing at t ships K*q bits per symbol (q its rate per block) as one message
  into the FIFO channel queue, which drains c per block: W_E(tau) = t - tau + 1,
  W_C from the queue, W_D = 0;
* decoder side (deferred decoding): c bits per symbol every block saturate
  the channel, so W_E = W_C = 1, and W_D(tau) = t - tau at decode time t.

On request a result keeps its batch table, one row per decoded batch;
``block_delays`` derives the per-block delays from it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .channel import ChannelQueue
from .entropy import row_divergences_bits
from .model import (BlockTrace, EntropyStats, SourceModel, check_channel_rate, check_count,
                    check_epsilon, check_eta, check_mean_entropy, compute_stats, sample_trace)
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
    # the batch table, kept with collect_batches=True: one row per decoded
    # batch, with its size K, t (the closing block), the rate delivered and the
    # realised entropy sum (bits per symbol), the outage flag, and W_C
    # (departure - arrival; 1.0 on the decoder side)
    batch_log: np.recarray | None = None


def check_run(model: SourceModel, strategies, *, epsilon: float | None, T: int,
              eta: float | None = None, c: float | None = None,
              batch_size: int | None = None) -> tuple[EntropyStats, float, float]:
    """The one check of a run's arguments, before any work: the strategies,
    epsilon, T, the batch size, then eta or c, and only then the model's E[H].
    Returns (stats, c, eta), eta below 1.  From eta, c is above E[H]; a given
    c <= E[H] returns eta <= 0, which ``simulate`` runs with its warning.

    epsilon and the batch size are checked whenever given; epsilon may be omitted
    only when every strategy is ``known-joint`` or ``blockwise``, which never outage.
    """
    if not strategies:
        raise ValueError("a run needs at least one strategy")
    for s in strategies:
        if s not in STRATEGIES:
            raise ValueError(f"unknown strategy {s!r}; expected one of {STRATEGIES}")
    if epsilon is not None or any(_RULE[s] != "one-block" for s in strategies):
        check_epsilon(epsilon)
    check_count("block count", T)
    if batch_size is not None:
        check_count("batch_size", batch_size)
    elif ACCUMULATE in strategies:
        raise ValueError("the accumulate baseline needs a batch size >= 1, got None")
    if (eta is None) == (c is None):
        raise ValueError("give exactly one of eta or c")
    if eta is not None:
        check_eta(eta)
    else:
        check_channel_rate(c)
    stats = compute_stats(model)
    check_mean_entropy(stats.e_h)
    if eta is not None:
        c = stats.e_h / (1.0 - eta)
        if c <= stats.e_h:  # eta is too small to move c off E[H] in floats
            raise ValueError(f"eta = {eta!r} is too small: c = E[H]/(1 - eta) rounds to "
                             f"E[H] = {stats.e_h!r}")
        return stats, c, eta
    eta = 1.0 - stats.e_h / c
    if eta >= 1:  # E[H]/c is below the float spacing just under 1
        raise ValueError(f"channel rate c = {c!r} is too large for E[H] = {stats.e_h!r}: "
                         f"eta = 1 - E[H]/c rounds to 1")
    return stats, float(c), eta


def _entropy_x_proxy(model: SourceModel) -> float | None:
    """Mean marginal entropy of X, available only when pmfs are present; one
    ``row_divergences_bits`` call over the zero-padded X marginals."""
    if any(e.joint_pmf is None for e in model.entries):
        return None
    x = np.zeros((len(model.entries), max(len(e.joint_pmf) for e in model.entries)))
    for row, e in zip(x, model.entries):
        row[:len(e.joint_pmf)] = e.joint_pmf.sum(axis=1)
    return sum(e.prob * -h for e, h in zip(model.entries, row_divergences_bits(x, 1.0).tolist()))


_MISS = object()  # memo sentinel: stored values are None or a rate, which can be 0.0


def _segment(trace: BlockTrace, model: SourceModel, *, c: float, epsilon: float,
             batch_size: int | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A batch table as three columns: sizes K (int64), realised entropy sums
    (added block by block) and epsilon-quantile rates.  A batch closes at the
    first block with tail(K*c) <= epsilon (``we``/``wd``), or at K =
    ``batch_size`` when one is given (``accumulate``); blocks after the last
    close are never decoded.

    Convolution commutes, so the decision and the quantile depend only on the
    group-count vector, memoized under one integer key (a count field of
    ``T.bit_length() + 1`` bits per group: no collisions for K <= T).  Every
    block is queued, and a miss pushes the queue in arrival order, as pushing
    every block would.  The memo holds <= T entries.

    The one-block decision of each group in the trace is taken first, as the
    loop would take it at K = 1, and seeds the memo.  When every such group
    closes alone (light traffic), so does every block, and the table follows
    without the loop.  ``rate.k_c`` decides K = 1 with the same test.  The
    seeding spares the loop its K = 1 tests (unseeded, the demo at eta = 0.05,
    T = 10 000, seed 11 makes 4 176 stop tests, not 4 173), but outside light
    traffic a probed group is pushed again when the loop first needs it: up to
    one more ``push_block`` per group the probe visits.
    """
    acc = RateAccumulator(model)
    push, tail_exceeds, quantile = acc.push_block, acc.tail_exceeds, acc.rate_quantile

    def close_rate(K: int) -> float | None:
        """None while the batch waits, else its quantile rate.  accumulate waits
        for batch_size blocks; we/wd wait while quantile/K > c, i.e. while the
        tail above K*c exceeds eps."""
        wait = K < batch_size if batch_size else tail_exceeds(K * c, epsilon)
        return None if wait else quantile(epsilon)

    width = len(trace.h).bit_length() + 1
    bit = [0] + [1 << (width * g) for g in range(model.m)]
    memo: dict[int, float | None] = {}
    if batch_size in (None, 1):  # a larger fixed batch never closes at K = 1
        alone = np.zeros(model.m + 1)
        for g in np.flatnonzero(np.bincount(trace.groups)).tolist():  # the groups drawn
            push(g)
            rate = memo[bit[g]] = close_rate(1)
            acc.reset()
            if rate is None:
                break
            alone[g] = rate
        else:  # 0.0 + h as the loop adds it (-0.0 becomes 0.0)
            return np.ones(len(trace.h), dtype=np.int64), 0.0 + trace.h, alone[trace.groups]

    pending: list[int] = []
    sizes, ents, rates = [], [], []
    K, key, ent = 0, 0, 0.0
    for group, h in zip(trace.groups.tolist(), trace.h.tolist()):
        K += 1
        ent += h
        key += bit[group]
        pending.append(group)
        rate = memo.get(key, _MISS)
        if rate is _MISS:
            for g in pending:
                push(g)
            pending.clear()
            rate = memo[key] = close_rate(K)
        if rate is not None:
            sizes.append(K)
            ents.append(ent)
            rates.append(rate)
            if acc.k:  # a batch answered wholly from the memo pushed nothing
                acc.reset()
            pending.clear()
            K, key, ent = 0, 0, 0.0
    return np.array(sizes, dtype=np.int64), np.array(ents), np.array(rates)


def simulate(model: SourceModel, strategies, *, epsilon: float | None, T: int, seed: int,
             eta: float | None = None, c: float | None = None, batch_size: int | None = None,
             collect_batches: bool = False) -> tuple[SimulationResult, ...]:
    """One result per strategy asked for, in that order, all on one (eta, seed).

    The trace is sampled once and cut once per stop rule.  A blind run, an
    encoder and decoder that see no marginal groups, is a run on
    ``model.collapse_marginals()``.  ``collect_batches`` keeps each result's
    batch table, ``batch_log``.
    """
    stats, c, eta = check_run(model, strategies, epsilon=epsilon, T=T, eta=eta, c=c,
                              batch_size=batch_size)
    epsilon = None if epsilon is None else float(epsilon)
    if c <= stats.e_h and set(strategies) != {BLOCKWISE}:  # blockwise reports `unstable`
        warnings.warn(
            f"channel rate {c!r} does not exceed the mean conditional entropy "
            f"{stats.e_h!r}; delay may diverge",
            RuntimeWarning,
            stacklevel=2,
        )
    trace = sample_trace(model, T, seed)
    proxy = _entropy_x_proxy(model)
    tables = {}
    results = []
    for strategy in strategies:
        rule = _RULE[strategy]
        if rule not in tables:
            if rule == "one-block":  # shipped at its own entropy (blockwise: H_max)
                tables[rule] = np.ones(T, dtype=np.int64), trace.h, trace.h
            else:
                tables[rule] = _segment(trace, model, c=c, epsilon=epsilon,
                                        batch_size=batch_size if rule == "fixed" else None)
        sizes, ents, rates = tables[rule]
        if strategy == WAIT_TO_DECODE:  # the decoder holds K*c bits at a close
            rates = sizes * c
        elif strategy == BLOCKWISE:
            rates = np.full(T, stats.h_max)
        results.append(_account(
            strategy, sizes, ents, rates, c=c, eta=eta, seed=seed, T=T, proxy=proxy,
            epsilon=None if rule == "one-block" else epsilon, collect_batches=collect_batches))
    return tuple(results)


def block_delays(result: SimulationResult) -> tuple[np.ndarray, ...]:
    """Per-block delays of the decoded blocks, from a result's batch table
    (kept with ``collect_batches=True``): block tau, W_E, W_C and W_D arrays.
    The encoder side charges W_E = t - tau + 1 and W_D = 0, the decoder side
    W_E = 1 and W_D = t - tau; every block of a batch has the batch's W_C."""
    log = result.batch_log
    if log is None:
        raise ValueError("per-block delays need a run with collect_batches=True")
    d = result.decoded_blocks
    block = np.arange(1, d + 1, dtype=np.int64)
    lag = np.repeat(log.end, log.k) - block  # t - tau
    w_c = np.repeat(log.w_c, log.k)
    if result.strategy == WAIT_TO_DECODE:
        return block, np.ones(d), w_c, lag.astype(float)
    return block, (lag + 1).astype(float), w_c, np.zeros(d)


def _sum_in_order(x: np.ndarray) -> float:
    """0.0 + x[0] + x[1] + ..., added left to right as a loop would: np.cumsum
    adds in order, where np.add.reduce adds pairwise."""
    return float(np.cumsum(x)[-1]) if len(x) else 0.0


def _account(strategy: str, k: np.ndarray, ents: np.ndarray, rates: np.ndarray,
             *, c: float, eta: float, epsilon: float | None, seed: int, T: int,
             proxy: float | None, collect_batches: bool) -> SimulationResult:
    """One strategy's accounting pass over its batch table (the columns K, entropy
    sum and rate, in bits per symbol, shared and left unchanged): the encoder side
    ships each batch as one message of K*q, its rate cell, into a queue draining c
    per block, the decoder side c every block.  Float sums add in batch order."""
    ends = np.cumsum(k)  # t, the block that closes each batch
    d = int(k.sum())
    outage = ents > rates + OUTAGE_TOL
    outage_blocks = int(k[outage].sum())
    squares = int(k @ k)  # sum K(K±1)/2 = (sum K^2 ± sum K)/2, in integers
    if strategy == WAIT_TO_DECODE:
        sum_we = sum_wc = float(d)
        sum_wd = float((squares - d) // 2)
        bits_emitted = c * T
        unstable = False
    else:
        queue = ChannelQueue(rate_bits_per_block=c)
        wcs = queue.enqueue_many(rates, ends)
        wcs -= ends  # departure - arrival
        sum_we = float((squares + d) // 2)
        sum_wc = _sum_in_order(wcs * k)
        bits_emitted = _sum_in_order(rates)
        sum_wd = 0.0
        # superlinear queue growth: the backlog at the end never drained
        unstable = (strategy != WAIT_TO_ENCODE
                    and (queue.busy_until - T) > max(5.0, 0.02 * T))

    batch_log = None
    if collect_batches:
        w_c = np.ones(len(k)) if strategy == WAIT_TO_DECODE else wcs
        batch_log = np.rec.fromarrays(
            (k, ends, rates, ents, outage, w_c),
            names=("k", "end", "rate_total", "entropy_total", "outage", "w_c"))

    mean_we, mean_wc, mean_wd = (s / d if d else math.nan
                                 for s in (sum_we, sum_wc, sum_wd))
    mean_rate = bits_emitted / T
    return SimulationResult(
        strategy=strategy,
        eta=eta,
        epsilon=epsilon,
        seed=seed,
        blocks=T,
        decoded_blocks=d,
        batches=len(k),
        mean_delay=mean_we + mean_wc + mean_wd,
        mean_w_e=mean_we,
        mean_w_c=mean_wc,
        mean_w_d=mean_wd,
        outage_rate=outage_blocks / d if d else math.nan,
        mean_encoding_rate=mean_rate,
        compression_ratio=(mean_rate / proxy) if proxy else None,
        c=c,
        unstable=unstable,
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
