"""Transmission-control strategies at the entropy level.

Implements the deferred-encoding strategy (accumulate blocks until the
per-block quantile rate drops to the channel rate), the deferred-decoding
strategy (ship channel-rate messages every block, decode once the quantile
is covered), and three reference baselines.  Messages carry sizes, never
symbols: a decoded batch is in outage exactly when its realised entropy sum
exceeds the bits delivered for it, the idealised large-block decoding model.

Both adaptive strategies close a batch on the same test, tail(K*c) <= epsilon
on the accumulated conditional-entropy sum, through one stopping rule that
memoizes the decision (and the quantile) per run by the batch's group-count
vector.  A memo hit reuses a decision computed from another arrival order of
the same groups; the two sums differ at most in their last bits, so the
decision could flip only for a tail within rounding of epsilon.

Delay conventions follow the closed-form cycle analysis so that the
deterministic worst cases are exact:

* deferred encoding: W_E(tau) = t - tau + 1 for a batch flushed at t,
  W_D = 0, W_C from the FIFO channel queue;
* deferred decoding: W_E = 1 and W_C = 1 for every block (the channel is
  exactly saturated, no queue forms), W_D(tau) = t - tau at decode time t.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .channel import ChannelQueue
from .entropy import entropy_bits, marginal_x
from .model import EntropyStats, SourceModel, compute_stats, sample_trace
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


@dataclass(frozen=True)
class Message:
    """Per-block encoder output: payload size and the block range it covers."""

    emitted_at: int
    bits: float
    covers: tuple[int, int] | None  # inclusive block range, None when blank
    blank: bool

    def __post_init__(self):
        if self.blank != (self.bits == 0) or self.blank != (self.covers is None):
            raise ValueError("blank <=> zero bits <=> empty cover range")
        if self.bits < 0:
            raise ValueError("message size must be nonnegative")


@dataclass(frozen=True)
class DelayRecord:
    block: int
    w_e: float
    w_c: float
    w_d: float

    @property
    def total(self) -> float:
        return self.w_e + self.w_c + self.w_d


@dataclass(frozen=True)
class BatchOutcome:
    """Accounting for one jointly decoded batch."""

    covers: tuple[int, int]
    rate_total: float      # bits delivered for the batch (per-symbol units)
    entropy_total: float   # realised sum of conditional entropies
    outage: bool


class DelayRecords:
    """Array-backed per-block delay stream (sequence of DelayRecord)."""

    __slots__ = ("block", "w_e", "w_c", "w_d")

    def __init__(self, block, w_e, w_c, w_d):
        self.block = block
        self.w_e = w_e
        self.w_c = w_c
        self.w_d = w_d

    def __len__(self):
        return len(self.block)

    def __getitem__(self, i: int) -> DelayRecord:
        return DelayRecord(
            int(self.block[i]), float(self.w_e[i]), float(self.w_c[i]), float(self.w_d[i])
        )

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]


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
    messages: tuple[Message, ...] | None = None


def _check_epsilon(epsilon) -> float:
    if epsilon is None or not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    return float(epsilon)


def resolve_channel_rate(
    stats: EntropyStats, eta: float | None, c: float | None
) -> tuple[float, float]:
    """Returns (c, eta) from whichever parameter was given."""
    if (eta is None) == (c is None):
        raise ValueError("give exactly one of eta or c")
    if eta is not None:
        if not 0 < eta < 1:
            raise ValueError(f"eta must be in (0, 1), got {eta}")
        return stats.e_h / (1.0 - eta), eta
    if c <= 0:
        raise ValueError(f"channel rate must be positive, got {c}")
    return float(c), 1.0 - stats.e_h / c


def _warn_if_overloaded(stats: EntropyStats, c: float) -> None:
    if c <= stats.e_h:
        warnings.warn(
            f"channel rate {c!r} does not exceed the mean conditional entropy "
            f"{stats.e_h!r}; delay may diverge",
            RuntimeWarning,
            stacklevel=3,
        )


def _entropy_x_proxy(model: SourceModel, stats: EntropyStats) -> float | None:
    """Mean marginal entropy of X, available only when pmfs are present."""
    if any(e.joint_pmf is None for e in model.entries):
        return None
    return sum(e.prob * entropy_bits(marginal_x(e.joint_pmf)) for e in model.entries)


class _RunTally:
    """Shared bookkeeping for the per-run sums and optional record streams."""

    def __init__(self, T: int, collect_records: bool, collect_batches: bool):
        self.sum_we = 0.0
        self.sum_wc = 0.0
        self.sum_wd = 0.0
        self.decoded = 0
        self.outage_blocks = 0
        self.batches = 0
        self.bits_emitted = 0.0
        if collect_records:
            self.rec_block = np.zeros(T, dtype=np.int64)
            self.rec_we = np.zeros(T)
            self.rec_wc = np.zeros(T)
            self.rec_wd = np.zeros(T)
        else:
            self.rec_block = None
        self.batch_log: list[BatchOutcome] | None = [] if collect_batches else None
        self.messages: list[Message] | None = [] if collect_batches else None

    def record_block(self, tau: int, w_e: float, w_c: float, w_d: float) -> None:
        i = self.decoded - 1  # caller bumps decoded before recording
        self.rec_block[i] = tau
        self.rec_we[i] = w_e
        self.rec_wc[i] = w_c
        self.rec_wd[i] = w_d

    def result(
        self,
        strategy: str,
        model: SourceModel,
        stats: EntropyStats,
        *,
        eta: float,
        c: float,
        epsilon: float | None,
        seed: int,
        T: int,
        unstable: bool = False,
    ) -> SimulationResult:
        d = self.decoded
        mean_we = self.sum_we / d if d else math.nan
        mean_wc = self.sum_wc / d if d else math.nan
        mean_wd = self.sum_wd / d if d else math.nan
        mean_rate = self.bits_emitted / (model.block_len_n * T)
        proxy = _entropy_x_proxy(model, stats)
        records = None
        if self.rec_block is not None:
            records = DelayRecords(
                self.rec_block[:d].copy(),
                self.rec_we[:d].copy(),
                self.rec_wc[:d].copy(),
                self.rec_wd[:d].copy(),
            )
        return SimulationResult(
            strategy=strategy,
            eta=eta,
            epsilon=epsilon,
            seed=seed,
            blocks=T,
            decoded_blocks=d,
            batches=self.batches,
            mean_delay=mean_we + mean_wc + mean_wd,
            mean_w_e=mean_we,
            mean_w_c=mean_wc,
            mean_w_d=mean_wd,
            outage_rate=self.outage_blocks / d if d else math.nan,
            mean_encoding_rate=mean_rate,
            compression_ratio=(mean_rate / proxy) if proxy else None,
            c=c,
            unstable=unstable,
            records=records,
            batch_log=None if self.batch_log is None else tuple(self.batch_log),
            messages=None if self.messages is None else tuple(self.messages),
        )


_MISS = object()  # memo sentinel: stored values are None or a rate, which can be 0.0


class _StoppingRule:
    """The shared ``we``/``wd`` batch stop, tail(K*c) <= epsilon, memoized per run.

    Convolution commutes, so the stop decision and the quantile depend only on
    the batch's group-count vector, packed here into one integer key (one count
    field of ``T.bit_length() + 1`` bits per group, so no collisions for
    K <= T).  A hit answers from the memo and queues the group unpushed; a miss
    first pushes the queued groups and then the new one, in arrival order,
    which leaves the accumulator exactly where pushing every block would, and
    then queries it.  Each miss pushes at least once, so the memo holds at
    most T entries.
    """

    def __init__(self, model: SourceModel, *, c: float, epsilon: float, T: int,
                 quantile: bool):
        self.acc = RateAccumulator(model)
        self.c = c
        self.epsilon = epsilon
        self.quantile = quantile
        width = T.bit_length() + 1
        self._bit = {g: 1 << (width * (g - 1)) for g in range(1, model.m + 1)}
        self._k = 0
        self._key = 0
        self._pending: list[int] = []
        self._memo: dict[int, float | None] = {}
        self._exact = self.acc.exact  # lattice mode at the start of the batch

    def push(self, group: int) -> float | None:
        """Adds one block: None while the batch waits, else the batch's rate at
        the flush (the epsilon-quantile with ``quantile``, else K*c); the next
        push then starts a new batch."""
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
        elif self.quantile:
            rate = acc.rate_quantile(self.epsilon)
        else:
            rate = K * self.c
        self._memo[self._key] = rate
        return rate

    def _flush(self) -> None:
        if self.acc.k:  # a batch answered wholly from the memo pushed nothing
            self.acc.reset()
        self._k = 0
        self._key = 0
        self._pending.clear()
        if self.acc.exact != self._exact:
            # the coarse grid is sticky across reset(): entries from the exact
            # lattice, and from the batch that crossed over, no longer hold
            self._memo.clear()
            self._exact = self.acc.exact


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
    quantile/K exceeds c only blank messages are emitted and the blocks wait
    at the encoder.  At a flush the whole batch ships as one message sized at
    the quantile, and the accumulator starts afresh.
    """
    epsilon = _check_epsilon(epsilon)
    stats = compute_stats(model)
    c, eta = resolve_channel_rate(stats, eta, c)
    _warn_if_overloaded(stats, c)
    trace = sample_trace(model, T, seed)
    groups = trace.groups.tolist()
    hs = trace.h.tolist()
    n = model.block_len_n

    rule = _StoppingRule(model, c=c, epsilon=epsilon, T=T, quantile=True)
    queue = ChannelQueue(rate_bits_per_block=n * c)
    tally = _RunTally(T, collect_records, collect_batches)

    K = 0
    ent_sum = 0.0
    for t0 in range(T):
        K += 1
        ent_sum += hs[t0]
        r = rule.push(groups[t0])
        if r is None:
            continue
        t = t0 + 1
        bits = n * r
        departure = queue.enqueue(bits, float(t))
        w_c = departure - t
        tally.sum_we += K * (K + 1) / 2.0  # W_E(tau) = t - tau + 1
        tally.sum_wc += w_c * K
        tally.batches += 1
        tally.bits_emitted += bits
        outage = ent_sum > r + OUTAGE_TOL
        if outage:
            tally.outage_blocks += K
        if tally.rec_block is not None or tally.batch_log is not None:
            for tau in range(t - K + 1, t + 1):
                tally.decoded += 1
                if tally.rec_block is not None:
                    tally.record_block(tau, t - tau + 1, w_c, 0.0)
            if tally.batch_log is not None:
                tally.batch_log.append(
                    BatchOutcome((t - K + 1, t), r, ent_sum, outage)
                )
                tally.messages.append(
                    Message(emitted_at=t, bits=bits, covers=(t - K + 1, t), blank=False)
                )
        else:
            tally.decoded += K
        K = 0
        ent_sum = 0.0

    return tally.result(
        WAIT_TO_ENCODE, model, stats,
        eta=eta, c=c, epsilon=epsilon, seed=seed, T=T,
    )


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
    epsilon = _check_epsilon(epsilon)
    stats = compute_stats(model)
    c, eta = resolve_channel_rate(stats, eta, c)
    _warn_if_overloaded(stats, c)
    trace = sample_trace(model, T, seed)
    groups = trace.groups.tolist()
    hs = trace.h.tolist()
    n = model.block_len_n

    rule = _StoppingRule(model, c=c, epsilon=epsilon, T=T, quantile=False)
    tally = _RunTally(T, collect_records, collect_batches)

    K = 0
    ent_sum = 0.0
    for t0 in range(T):
        K += 1
        ent_sum += hs[t0]
        if tally.messages is not None:
            # one channel-rate message per block, covering the pending batch
            tally.messages.append(
                Message(emitted_at=t0 + 1, bits=n * c, covers=(t0 + 2 - K, t0 + 1),
                        blank=False)
            )
        r = rule.push(groups[t0])  # K*c once the batch decodes
        if r is None:
            continue
        t = t0 + 1
        tally.sum_we += K
        tally.sum_wc += K
        tally.sum_wd += K * (K - 1) / 2.0  # W_D(tau) = t - tau
        tally.batches += 1
        outage = ent_sum > r + OUTAGE_TOL
        if outage:
            tally.outage_blocks += K
        if tally.rec_block is not None or tally.batch_log is not None:
            for tau in range(t - K + 1, t + 1):
                tally.decoded += 1
                if tally.rec_block is not None:
                    tally.record_block(tau, 1.0, 1.0, float(t - tau))
            if tally.batch_log is not None:
                tally.batch_log.append(BatchOutcome((t - K + 1, t), r, ent_sum, outage))
        else:
            tally.decoded += K
        K = 0
        ent_sum = 0.0

    tally.bits_emitted = n * c * T  # constant-rate encoder, blanks never occur
    return tally.result(
        WAIT_TO_DECODE, model, stats,
        eta=eta, c=c, epsilon=epsilon, seed=seed, T=T,
    )


def _run_immediate(
    strategy: str,
    model: SourceModel,
    bits_of_block,
    *,
    eta: float | None,
    c: float | None,
    T: int,
    seed: int,
    collect_records: bool,
    require_stable: bool,
) -> SimulationResult:
    """Shared loop for the block-by-block baselines (W_E = 1, W_D = 0)."""
    stats = compute_stats(model)
    c, eta = resolve_channel_rate(stats, eta, c)
    if require_stable:
        _warn_if_overloaded(stats, c)
    trace = sample_trace(model, T, seed)
    hs = trace.h.tolist()
    n = model.block_len_n

    rate = n * c
    busy = 0.0
    tally = _RunTally(T, collect_records, collect_batches=False)
    for t0 in range(T):
        t = t0 + 1
        bits = n * bits_of_block(hs[t0])
        start = busy if busy > t else float(t)
        busy = start + bits / rate
        w_c = busy - t
        tally.sum_we += 1.0
        tally.sum_wc += w_c
        tally.decoded += 1
        tally.batches += 1
        tally.bits_emitted += bits
        if tally.rec_block is not None:
            tally.record_block(t, 1.0, w_c, 0.0)

    # superlinear queue growth: the backlog at the end never drained
    unstable = (busy - T) > max(5.0, 0.02 * T)
    return tally.result(
        strategy, model, stats,
        eta=eta, c=c, epsilon=None, seed=seed, T=T, unstable=unstable,
    )


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
    return _run_immediate(
        KNOWN_JOINT, model, lambda h: h,
        eta=eta, c=c, T=T, seed=seed,
        collect_records=collect_records, require_stable=True,
    )


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
    stats = compute_stats(model)
    h_max = stats.h_max
    return _run_immediate(
        BLOCKWISE, model, lambda h: h_max,
        eta=eta, c=c, T=T, seed=seed,
        collect_records=collect_records, require_stable=False,
    )


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
    epsilon = _check_epsilon(epsilon)
    stats = compute_stats(model)
    c, eta = resolve_channel_rate(stats, eta, c)
    _warn_if_overloaded(stats, c)
    trace = sample_trace(model, T, seed)
    groups = trace.groups.tolist()
    hs = trace.h.tolist()
    n = model.block_len_n

    acc = RateAccumulator(model) if use_marginals else None
    fixed_rate = None if use_marginals else rate_unconditional(model, N, epsilon)
    queue = ChannelQueue(rate_bits_per_block=n * c)
    tally = _RunTally(T, collect_records, collect_batches)

    ent_sum = 0.0
    for t0 in range(T):
        if acc is not None:
            acc.push_block(groups[t0])
        ent_sum += hs[t0]
        t = t0 + 1
        if t % N:
            continue
        r = acc.rate_quantile(epsilon) if acc is not None else fixed_rate
        bits = n * r
        departure = queue.enqueue(bits, float(t))
        w_c = departure - t
        tally.sum_we += N * (N + 1) / 2.0
        tally.sum_wc += w_c * N
        tally.batches += 1
        tally.bits_emitted += bits
        outage = ent_sum > r + OUTAGE_TOL
        if outage:
            tally.outage_blocks += N
        if tally.rec_block is not None or tally.batch_log is not None:
            for tau in range(t - N + 1, t + 1):
                tally.decoded += 1
                if tally.rec_block is not None:
                    tally.record_block(tau, t - tau + 1, w_c, 0.0)
            if tally.batch_log is not None:
                tally.batch_log.append(BatchOutcome((t - N + 1, t), r, ent_sum, outage))
                tally.messages.append(
                    Message(emitted_at=t, bits=bits, covers=(t - N + 1, t), blank=False)
                )
        else:
            tally.decoded += N
        if acc is not None:
            acc.reset()
        ent_sum = 0.0

    unstable = (queue.busy_until - T) > max(5.0, 0.02 * T)
    return tally.result(
        ACCUMULATE, model, stats,
        eta=eta, c=c, epsilon=epsilon, seed=seed, T=T, unstable=unstable,
    )


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
    work = model if use_marginals else model.collapse_marginals()
    if strategy == WAIT_TO_ENCODE:
        return run_wait_to_encode(
            work, epsilon=epsilon, T=T, seed=seed, eta=eta, c=c,
            collect_records=collect_records,
        )
    if strategy == WAIT_TO_DECODE:
        return run_wait_to_decode(
            work, epsilon=epsilon, T=T, seed=seed, eta=eta, c=c,
            collect_records=collect_records,
        )
    if strategy == KNOWN_JOINT:
        return run_baseline_known_joint(
            model, T=T, seed=seed, eta=eta, c=c, collect_records=collect_records,
        )
    if strategy == BLOCKWISE:
        return run_baseline_blockwise(
            model, T=T, seed=seed, eta=eta, c=c, collect_records=collect_records,
        )
    if strategy == ACCUMULATE:
        if batch_size is None:
            raise ValueError("the accumulate baseline needs a batch size")
        return run_baseline_accumulate(
            model, epsilon=epsilon, N=batch_size, T=T, seed=seed, eta=eta, c=c,
            use_marginals=use_marginals and model.m > 1,
            collect_records=collect_records,
        )
    raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
