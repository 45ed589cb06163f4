import dataclasses
import itertools
import math
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swdelay import (
    CdfEntry,
    ChannelQueue,
    RateAccumulator,
    SourceModel,
    block_delays,
    bsc_pair_model,
    compute_stats,
    demo_model,
    k_c,
    lb_delay,
    rate_unconditional,
    sample_trace,
    simulate,
    ub_delay,
)

from swdelay.strategies import (OUTAGE_TOL, STRATEGIES, WAIT_TO_DECODE, WAIT_TO_ENCODE,
                                SimulationResult, _segment)
from swdelay import strategies as strategies_mod

from conftest import (lindley_wc, random_dyadic_model, random_offlattice_model,
                      two_group_pmf_model)
from oracles import exact_renewal


def test_we_single_entry_hand_trace(single_cdf_model):
    # H = 2, c = 4: every block flushes alone, service is half a block
    res, = simulate(single_cdf_model, ("we",), epsilon=0.01, T=100, seed=0, c=4.0)
    assert res.mean_w_e == 1.0
    assert res.mean_w_c == pytest.approx(0.5, abs=1e-12)
    assert res.mean_w_d == 0.0
    assert res.mean_delay == pytest.approx(1.5, abs=1e-12)
    assert res.outage_rate == 0.0
    assert res.batches == 100


def test_wd_single_entry_hand_trace(single_cdf_model):
    res, = simulate(single_cdf_model, ("wd",), epsilon=0.01, T=100, seed=0, c=4.0)
    assert res.mean_delay == pytest.approx(2.0, abs=1e-12)
    assert (res.mean_w_e, res.mean_w_c, res.mean_w_d) == (1.0, 1.0, 0.0)
    assert res.mean_encoding_rate == pytest.approx(4.0)


def test_wd_collapsed_deterministic_cycle(six_cdf_model):
    """Blind decoding always happens at exactly K_c blocks."""
    flat = six_cdf_model.collapse_marginals()
    for eta in (0.5, 0.25):
        c = 4.17 / (1 - eta)
        kc = k_c(six_cdf_model, c, 0.01)
        res, = simulate(flat, ("wd",), epsilon=0.01, T=4000, seed=2, eta=eta,
                        collect_batches=True)
        assert res.mean_delay == pytest.approx(kc / 2 + 1.5, abs=1e-12)
        assert (res.batch_log.k == kc).all()


def test_we_collapsed_deterministic_cycle(six_cdf_model):
    flat = six_cdf_model.collapse_marginals()
    for eta in (0.5, 0.25):
        c = compute_stats(flat).e_h / (1 - eta)
        kc = k_c(six_cdf_model, c, 0.01)
        rx = rate_unconditional(six_cdf_model, kc, 0.01)
        res, = simulate(flat, ("we",), epsilon=0.01, T=4000, seed=2, eta=eta)
        expected = (kc + 1) / 2 + rx / c
        assert res.mean_delay == pytest.approx(expected, abs=1e-9)
        assert res.mean_delay <= 1.5 * kc + 0.5 + 1e-9


def test_one_group_runs_equal_their_closed_form():
    """A one-group run has no Monte Carlo noise.  Every batch has K = k_c
    blocks and `we` ships the quantile q <= K*c, so no batch waits for the
    channel: W_C = q/c, `we` = (K + 1)/2 + q/c and `wd` = (K - 1)/2 + 2.  `wd`
    matches exactly, `we` and W_C to rel 1e-12, on the collapsed demo (K = 4,
    38, 167 and 1 129 at eta = 0.25 ... 0.02) and on seeded random dyadic
    one-group models (K > 2 000 skipped).  Shipping K*c bits instead of q would
    make `we` 1.5K + 0.5, which the worst-case envelope check lets pass.  Over
    eta = 0.1, 0.05 and 0.02 the log-log slopes of K, `we` and `wd` lie in
    [-2.25, -1.75], the Theta(1/eta^2) of the bounds (-2.11, -2.10, -2.06)."""
    flat = demo_model().collapse_marginals()
    cases = [(flat, eta) for eta in (0.25, 0.1, 0.05, 0.02)]
    rng = np.random.default_rng(1)
    for _ in range(4):
        model = random_dyadic_model(rng, max_groups=1)
        cases += [(model, eta) for eta in (0.25, 0.1) if compute_stats(model).e_h > 0]
    seen = {}
    for model, eta in cases:
        c = compute_stats(model).e_h / (1 - eta)
        K = k_c(model, c, 0.01)
        if K > 2000:
            continue
        q = rate_unconditional(model, K, 0.01)
        we, wd = simulate(model, ("we", "wd"), epsilon=0.01, T=20 * K, seed=1, eta=eta)
        assert wd.mean_delay == (K - 1) / 2 + 2, (eta, K)
        assert we.mean_w_c == pytest.approx(q / c, rel=1e-12, abs=0), (eta, K)
        assert we.mean_delay == pytest.approx((K + 1) / 2 + q / c, rel=1e-12, abs=0), (eta, K)
        if model is flat:
            seen[eta] = (K, we.mean_delay, wd.mean_delay)
    assert [seen[eta][0] for eta in (0.25, 0.1, 0.05, 0.02)] == [4, 38, 167, 1129]
    etas = (0.1, 0.05, 0.02)
    for column in zip(*(seen[eta] for eta in etas)):
        slope = np.polyfit(np.log(etas), np.log(column), 1)[0]
        assert -2.25 <= slope <= -1.75, (column, slope)


# ---------------------------------------------------------------------------
# the exact renewal-reward oracle (tests/oracles.py)
# ---------------------------------------------------------------------------

def _cheap_case(model_seed: int, eta: float, max_k: int = 8):
    """A random dyadic model of at most 3 groups and its channel rate at eta,
    or None when no eta defines a rate or the one-group batch size k_c is
    above max_k: the oracle pushes every state's blocks from reset, and the
    state count grows fast with the batch size (over 4 000 states, about 1 s,
    for some k_c = 8 cases)."""
    model = random_dyadic_model(np.random.default_rng(model_seed))
    stats = compute_stats(model)
    if stats.e_h == 0:
        return None
    c = stats.e_h / (1 - eta)
    return (model, stats, c) if k_c(model, c, 0.01) <= max_k else None


def _ratio_z(value: float, k: np.ndarray, reward: np.ndarray, exact: float,
             outage: bool = False) -> float:
    """(value - exact) in standard errors of value as a ratio estimator over
    batches, sum reward / sum k, whose error is sqrt(sum (reward - value k)^2)
    / sum k.  An outage seen in few batches has an error near 0, so its error
    is at least that of batches in outage independently with the exact
    probability."""
    total = k.sum()
    assert value == pytest.approx(reward.sum() / total, rel=1e-12)
    se = np.sqrt(((reward - value * k) ** 2).sum()) / total
    if outage:
        se = max(se, np.sqrt(exact * (1 - exact) * (k * k).sum()) / total)
    if not se:
        return 0.0 if value == exact else math.inf
    return (value - exact) / se


def test_exact_oracle_reproduces_the_demo_value():
    """The demo at epsilon = 0.01 and eta = 0.25: 58 count vectors, nothing
    pruned, and the wd mean delay 3.0676 of the renewal-reward DP."""
    model = demo_model()
    exact = exact_renewal(model, compute_stats(model).e_h / 0.75, 0.01)
    assert (exact.states, exact.pruned) == (58, 0.0)
    assert exact.wd_delay == pytest.approx(3.0676, abs=5e-5)
    assert exact.we_w_e == pytest.approx(exact.wd_delay - 1, abs=1e-12)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(model_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 1000),
       eta=st.floats(0.2, 0.5))
def test_simulated_delays_and_outage_match_the_exact_oracle(model_seed, seed, eta):
    """simulate's wd mean delay, we W_E and both per-block outage rates lie
    within 4 standard errors of the oracle's exact values, the errors taken
    over the batches of batch_log (batches are the renewal cycles; blocks of
    one batch share its fate)."""
    case = _cheap_case(model_seed, eta)
    if case is None:
        return
    model, _, c = case
    exact = exact_renewal(model, c, 0.01)
    assert exact.pruned < 1e-9
    we, wd = simulate(model, ("we", "wd"), epsilon=0.01, T=20_000, seed=seed, c=c,
                      collect_batches=True)
    k_we, k_wd = we.batch_log.k.astype(float), wd.batch_log.k.astype(float)
    z = [
        _ratio_z(wd.mean_delay, k_wd, k_wd * (k_wd - 1) / 2 + 2 * k_wd, exact.wd_delay),
        _ratio_z(we.mean_w_e, k_we, k_we * (k_we + 1) / 2, exact.we_w_e),
        _ratio_z(we.outage_rate, k_we, k_we * we.batch_log.outage, exact.we_outage, True),
        _ratio_z(wd.outage_rate, k_wd, k_wd * wd.batch_log.outage, exact.wd_outage, True),
    ]
    assert max(map(abs, z)) <= 4, (z, exact)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(model_seed=st.integers(0, 2**32 - 1), eta=st.floats(0.2, 0.5))
def test_bounds_bracket_the_exact_delay_below_h_max(model_seed, eta):
    """Wherever c < h_max, lb_delay <= exact wd <= ub_delay (the genie lower
    bound needs a group of several members).  Above h_max every batch is one
    block and the bounds need not hold."""
    case = _cheap_case(model_seed, eta)
    if case is None:
        return
    model, stats, c = case
    if c >= stats.h_max:
        return
    exact = exact_renewal(model, c, 0.01)
    assert exact.wd_delay <= ub_delay(stats, eta, 0.01, "WD"), exact
    if max(stats.group_sizes) > 1:
        assert lb_delay(stats, eta, 0.01, "WD").value <= exact.wd_delay, exact


def test_blind_run_on_multigroup_pmf_model():
    """A blind run, a run on the collapse of a multi-group model with joint
    pmfs, runs at the entropy level: exactly as on the collapse of the same
    model without its pmfs."""
    kw = dict(epsilon=0.05, T=300, seed=3, eta=0.3)
    blind = simulate(two_group_pmf_model().collapse_marginals(), ("we", "wd"), **kw)
    assert blind == simulate(two_group_pmf_model(with_pmfs=False).collapse_marginals(),
                             ("we", "wd"), **kw)


@pytest.mark.parametrize("marginals", [True, False])
@pytest.mark.parametrize("strategies", [
    STRATEGIES,
    ("accumulate", "wd", "blockwise", "we", "known-joint"),
    ("known-joint", "wd"),
    ("blockwise", "accumulate"),
])
def test_mixed_run_equals_single_runs(strategies, marginals):
    """One run of several strategies returns, in the order asked, each one's
    own single-strategy result, on the model as given and (blind) on its
    collapse."""
    kw = dict(epsilon=0.05, T=400, seed=5, eta=0.2, batch_size=3, collect_batches=True)
    for model in (demo_model(), two_group_pmf_model()):
        if not marginals:
            model = model.collapse_marginals()
        mixed = simulate(model, strategies, **kw)
        assert [r.strategy for r in mixed] == list(strategies)
        assert _bits(mixed) == _bits(tuple(simulate(model, (s,), **kw)[0] for s in strategies))


def test_we_quantile_degenerates_at_large_epsilon(single_cdf_model):
    # eps -> 1: the quantile collapses to the minimum entropy sum
    model = SourceModel((CdfEntry(1, 1, 0.5, 1.0), CdfEntry(1, 2, 0.5, 3.0)))
    res, = simulate(model, ("we",), epsilon=0.99, T=50, seed=1, c=2.5)
    assert res.batches == 50  # 1.0 <= c always flushes immediately
    assert res.mean_encoding_rate == pytest.approx(1.0)
    assert res.outage_rate > 0.2  # min-entropy coding loses often


def test_known_joint_baseline(single_cdf_model, six_cdf_model):
    res, = simulate(single_cdf_model, ("known-joint",), epsilon=None, T=200, seed=0, c=4.0)
    assert res.mean_delay == pytest.approx(1.5, abs=1e-12)
    assert res.outage_rate == 0.0

    # matches an independent Lindley replay of the same trace
    T = 3000
    res, = simulate(six_cdf_model, ("known-joint",), epsilon=None, T=T, seed=7, eta=0.1)
    tr = sample_trace(six_cdf_model, T, seed=7)
    c = 4.17 / 0.9
    wcs = lindley_wc(tr.h.tolist(), [float(t) for t in range(1, T + 1)], c)
    assert res.mean_w_c == pytest.approx(float(np.mean(wcs)), abs=1e-9)
    assert res.mean_delay == pytest.approx(1.0 + float(np.mean(wcs)), abs=1e-9)


def test_blockwise_baseline(six_cdf_model):
    res, = simulate(six_cdf_model, ("blockwise",), epsilon=None, T=500, seed=1, c=8.34)
    assert res.mean_delay == pytest.approx(1 + 6 / 8.34, abs=1e-12)
    assert not res.unstable
    assert res.outage_rate == 0.0
    res, = simulate(six_cdf_model, ("blockwise",), epsilon=None, T=2000, seed=1, c=5.0)
    assert res.unstable  # H_max = 6 > c


def test_accumulate_baseline_n1_is_per_block_quantile(six_cdf_model):
    res, = simulate(six_cdf_model.collapse_marginals(), ("accumulate",), epsilon=0.01,
                    batch_size=1, T=400, seed=3, c=8.34)
    assert res.batches == 400
    # every block ships the one-block unconditional quantile
    assert res.mean_encoding_rate == pytest.approx(
        rate_unconditional(six_cdf_model, 1, 0.01)
    )


def test_accumulate_at_kc_matches_we_worst_case(six_cdf_model):
    flat = six_cdf_model.collapse_marginals()
    eta = 0.25
    c = 4.17 / (1 - eta)
    kc = k_c(six_cdf_model, c, 0.01)
    we, = simulate(flat, ("we",), epsilon=0.01, T=2000, seed=5, eta=eta)
    accum, = simulate(flat, ("accumulate",), epsilon=0.01, batch_size=kc, T=2000,
                      seed=5, eta=eta)
    assert accum.mean_delay == pytest.approx(we.mean_delay, abs=1e-9)
    assert accum.mean_encoding_rate == pytest.approx(we.mean_encoding_rate, abs=1e-12)


def test_accumulate_rate_approaches_mean_entropy(six_cdf_model):
    # larger batches average the source out: per-block rate drops toward E[H]
    flat = six_cdf_model.collapse_marginals()
    rates = []
    for N in (1, 4, 16, 64):
        res, = simulate(flat, ("accumulate",), epsilon=0.05, batch_size=N, T=640,
                        seed=9, c=8.34)
        rates.append(res.mean_encoding_rate / 1.0)
    assert rates == sorted(rates, reverse=True)
    assert rates[-1] < rates[0]
    assert rates[-1] >= 4.17


def test_delay_components_sum(six_cdf_model):
    for res in simulate(six_cdf_model, ("we", "wd", "known-joint", "blockwise"),
                        epsilon=0.05, T=2000, seed=11, eta=0.25):
        assert res.mean_delay == pytest.approx(
            res.mean_w_e + res.mean_w_c + res.mean_w_d, abs=1e-9
        )


def test_flush_feasibility_and_decode_minimality(six_cdf_model):
    """Replay the trace and check the stopping rules block by block."""
    T = 1500
    eta, eps = 0.25, 0.05
    c = 4.17 / (1 - eta)
    for res in simulate(six_cdf_model, ("we", "wd"), epsilon=eps, T=T, seed=13, eta=eta,
                        collect_batches=True):
        tr = sample_trace(six_cdf_model, T, seed=13)
        acc = RateAccumulator(six_cdf_model)
        for batch in res.batch_log:
            lo, hi = batch.end - batch.k + 1, batch.end
            acc.reset()
            for tau in range(lo, hi + 1):
                acc.push_block(int(tr.groups[tau - 1]))
                K = acc.k
                q = acc.rate_quantile(eps)
                if tau < hi:
                    assert q > K * c  # kept waiting strictly before the stop
                else:
                    assert q <= K * c  # feasible at the flush/decode block
            realized = float(np.sum(tr.h[lo - 1:hi]))
            assert batch.entropy_total == pytest.approx(realized, abs=1e-9)
            assert batch.outage == (realized > batch.rate_total + 1e-9)


def test_outage_guarantee_moderate_runs(six_cdf_model):
    for eta, eps in ((0.25, 0.05), (0.1, 0.05)):
        for res in simulate(six_cdf_model, ("we", "wd"), epsilon=eps, T=30_000, seed=17,
                            eta=eta):
            slack = 3 * math.sqrt(eps * (1 - eps) / res.batches)
            assert res.outage_rate <= eps + slack, (res.strategy, eta)


def test_records_stream(six_cdf_model):
    res, = simulate(six_cdf_model, ("wd",), epsilon=0.05, T=300, seed=19, eta=0.25,
                    collect_batches=True)
    block, w_e, w_c, w_d = block_delays(res)
    assert len(block) == res.decoded_blocks
    assert (w_e == 1.0).all() and (w_c == 1.0).all() and (w_d >= 0.0).all()
    mean = float(np.mean(w_e + w_c + w_d))
    assert mean == pytest.approx(res.mean_delay, abs=1e-9)
    # covered blocks are contiguous from the start
    assert block.tolist() == list(range(1, res.decoded_blocks + 1))
    res, = simulate(six_cdf_model, ("wd",), epsilon=0.05, T=300, seed=19, eta=0.25)
    with pytest.raises(ValueError, match="collect_batches"):
        block_delays(res)


def test_overload_warns(six_cdf_model):
    """The warning names the caller's line, not a line inside the package."""
    for strategy in ("we", "accumulate"):
        with pytest.warns(RuntimeWarning, match="delay may diverge") as record:
            simulate(six_cdf_model, (strategy,), epsilon=0.05, T=50, seed=1, c=4.0,
                     batch_size=3)
        assert record[0].filename == __file__, strategy


def test_epsilon_required_and_bounded(six_cdf_model):
    """epsilon is checked whenever it is given; only a run of the baselines
    that never outage may leave it out."""
    kw = dict(T=10, seed=1, eta=0.5, batch_size=2)
    for strategies in (("we",), ("wd",), ("accumulate",), ("known-joint", "we")):
        for bad in (None, 0.0, 1.0, -0.1):
            with pytest.raises(ValueError, match="epsilon"):
                simulate(six_cdf_model, strategies, epsilon=bad, **kw)
    never_out = ("known-joint", "blockwise")
    for bad in (0.0, 1.0, 2.0):
        with pytest.raises(ValueError, match="epsilon"):
            simulate(six_cdf_model, never_out, epsilon=bad, **kw)
    assert [r.epsilon for r in simulate(six_cdf_model, never_out, epsilon=None, **kw)] \
        == [None, None]


def test_run_needs_known_strategies(six_cdf_model):
    """check_run refuses an empty strategy list and an unknown name."""
    kw = dict(epsilon=0.01, T=10, seed=1, eta=0.5)
    with pytest.raises(ValueError, match="^a run needs at least one strategy$"):
        simulate(six_cdf_model, (), **kw)
    with pytest.raises(ValueError, match=r"^unknown strategy 'wait'; expected one of \("
                                         r"'we', 'wd', 'known-joint', 'blockwise', "
                                         r"'accumulate'\)$"):
        simulate(six_cdf_model, ("we", "wait"), **kw)


def test_run_refuses_an_eta_whose_channel_rate_rounds_to_e_h(six_cdf_model):
    """Below about 1e-16, c = E[H]/(1 - eta) is E[H] itself: the run would be
    made at eta = 0, so it is refused, naming eta."""
    with pytest.raises(ValueError, match=r"^eta = 1e-160 is too small: c = E\[H\]/\(1 - eta\) "
                                         r"rounds to E\[H\] = "):
        simulate(six_cdf_model, ("we",), epsilon=0.01, T=10, seed=1, eta=1e-160)


def test_determinism_same_seed(six_cdf_model):
    a, = simulate(six_cdf_model, ("we",), epsilon=0.05, T=5000, seed=23, eta=0.2)
    b, = simulate(six_cdf_model, ("we",), epsilon=0.05, T=5000, seed=23, eta=0.2)
    assert a == b


def test_compression_ratio_only_with_pmfs(six_cdf_model):
    res, = simulate(six_cdf_model, ("wd",), epsilon=0.05, T=100, seed=1, eta=0.5)
    assert res.compression_ratio is None

    from swdelay import bsc_pair_model

    bsc = bsc_pair_model(0.1)  # uniform X: the marginal-entropy proxy is 1 bit
    res, = simulate(bsc, ("wd",), epsilon=0.05, T=100, seed=1, eta=0.5)
    assert res.compression_ratio == pytest.approx(res.mean_encoding_rate / 1.0)


def test_encoding_rate_matches_batch_log(six_cdf_model):
    T = 200
    we, = simulate(six_cdf_model, ("we",), epsilon=0.05, T=T, seed=29, eta=0.25,
                   collect_batches=True)
    # one message per batch, sized by its quantile in bits per symbol
    assert len(we.batch_log) == we.batches
    total_bits = sum(b.rate_total for b in we.batch_log)
    assert we.mean_encoding_rate == pytest.approx(total_bits / T, abs=1e-12)

    wd, = simulate(six_cdf_model, ("wd",), epsilon=0.05, T=T, seed=29, eta=0.25)
    # the saturated encoder ships one channel-rate message every block
    assert wd.mean_encoding_rate == pytest.approx(wd.c)


# ---------------------------------------------------------------------------
# the shared we/wd stopping rule against a push-every-block reference
# ---------------------------------------------------------------------------

def _offlattice_model(rng: np.random.Generator) -> SourceModel:
    """1-3 groups of 2-4 members with uniform random entropies in [0, 4)."""
    entries = []
    for g in range(1, int(rng.integers(1, 4)) + 1):
        for j in range(1, int(rng.integers(2, 5)) + 1):
            entries.append((g, j, float(rng.integers(1, 20)), float(rng.uniform(0, 4))))
    total = sum(w for _, _, w, _ in entries)
    return SourceModel(tuple(CdfEntry(g, j, w / total, h) for g, j, w, h in entries))


# the first five columns of a batch table row
Batch = namedtuple("Batch", "k end rate_total entropy_total outage")


def _rows(res) -> list[Batch]:
    return [Batch(*row[:5]) for row in res.batch_log.tolist()]


def _covers(b: Batch) -> range:
    """The blocks tau of a batch."""
    return range(b.end - b.k + 1, b.end + 1)


def _reference_batches(model, trace, c, epsilon, quantile):
    """Batches of the stop rule, pushing and querying the accumulator every block."""
    acc = RateAccumulator(model)
    batches = []
    ent = 0.0
    for t, (g, h) in enumerate(zip(trace.groups.tolist(), trace.h.tolist()), start=1):
        acc.push_block(g)
        ent += h
        K = acc.k
        if acc.tail_above(K * c) > epsilon:
            continue
        rate = acc.rate_quantile(epsilon) if quantile else K * c
        batches.append(Batch(K, t, rate, ent, ent > rate + OUTAGE_TOL))
        acc.reset()
        ent = 0.0
    return batches


def _check_against_reference(model, *, epsilon, T, seed, eta):
    """we and wd runs, alone and as the two halves of one shared pass, equal
    the reference: batch table, per-block delays, summary."""
    kw = dict(epsilon=epsilon, T=T, seed=seed, eta=eta, collect_batches=True)
    pair = simulate(model, ("we", "wd"), **kw)
    trace = sample_trace(model, T, seed)
    for strategy, quantile, half in (("we", True, pair[0]), ("wd", False, pair[1])):
        res, = simulate(model, (strategy,), **kw)
        assert _bits(half) == _bits(res)
        batches = _reference_batches(model, trace, res.c, epsilon, quantile)
        assert _rows(res) == batches
        sizes = np.array([b.k for b in batches])
        block, w_e, w_c, w_d = block_delays(res)
        assert (res.batches, res.decoded_blocks) == (len(batches), int(sizes.sum()))
        assert block.tolist() == [tau for b in batches for tau in _covers(b)]
        assert res.outage_rate == pytest.approx(
            sizes[[b.outage for b in batches]].sum() / sizes.sum(), abs=1e-15)
        assert (res.mean_w_e, res.mean_w_c, res.mean_w_d) == pytest.approx(
            (w_e.mean(), w_c.mean(), w_d.mean()), rel=1e-12)
        if quantile:
            bits = [b.rate_total for b in batches]
            wc = lindley_wc(bits, [float(b.end) for b in batches], res.c)
            assert w_e.tolist() == [float(b.end - tau + 1) for b in batches for tau in _covers(b)]
            assert np.allclose(res.batch_log.w_c, wc, rtol=1e-12, atol=1e-9)
            assert np.allclose(w_c, np.repeat(wc, sizes), rtol=1e-12, atol=1e-9)
            assert not w_d.any()
            assert res.mean_encoding_rate == pytest.approx(sum(bits) / T)
        else:
            assert w_d.tolist() == [float(b.end - tau) for b in batches for tau in _covers(b)]
            assert (res.batch_log.w_c == 1.0).all()
            assert (w_e == 1.0).all() and (w_c == 1.0).all()
            assert res.mean_encoding_rate == pytest.approx(res.c)  # c bits every block


def test_stopping_rule_matches_reference_dyadic():
    rng = np.random.default_rng(41)
    for i in range(8):
        model = random_dyadic_model(rng, max_groups=4, max_total=8)
        for eta in (0.3, 0.12):
            _check_against_reference(model, epsilon=0.02, T=1500, seed=i, eta=eta)


def test_stopping_rule_matches_reference_offlattice():
    rng = np.random.default_rng(43)
    for i in range(4):
        model = _offlattice_model(rng)
        assert not RateAccumulator(model).exact
        _check_against_reference(model, epsilon=0.05, T=300, seed=i, eta=0.2)


def test_stopping_rule_matches_reference_thirds_lattice():
    """Thirds are exact on their own lattice but would round up on the coarse
    grid, so a decision taken on the wrong grid would show in the batch rates."""
    thirds = SourceModel((
        CdfEntry(1, 1, 0.2, 1 / 3), CdfEntry(1, 2, 0.1, 4 / 3),
        CdfEntry(2, 1, 0.15, 2 / 3), CdfEntry(2, 2, 0.15, 5 / 3),
        CdfEntry(2, 3, 0.1, 7 / 3), CdfEntry(3, 1, 0.3, 3.0),
    ))
    assert RateAccumulator(thirds).exact
    for eta in (0.3, 0.15):
        _check_against_reference(thirds, epsilon=0.02, T=1500, seed=5, eta=eta)


def test_stopping_rule_reuses_decisions(six_cdf_model, monkeypatch):
    """At eta = 0.5 every ``we`` block flushes alone, as does every block of
    ``accumulate`` at N = 1: three groups, three pushes."""
    calls = []
    push = RateAccumulator.push_block

    def counted(self, group):
        calls.append(group)
        return push(self, group)

    monkeypatch.setattr(RateAccumulator, "push_block", counted)
    for strategy, batch_size in (("we", None), ("accumulate", 1)):
        calls.clear()
        res, = simulate(six_cdf_model, (strategy,), epsilon=0.01, T=1000, seed=3, eta=0.5,
                        batch_size=batch_size)
        assert res.batches == 1000
        assert len(calls) <= 3, strategy


# ---------------------------------------------------------------------------
# the three baselines against a per-block replay
# ---------------------------------------------------------------------------

def _replay_fixed_batches(trace, N, rate_of_batch):
    """Every full N-block batch of the trace; rate_of_batch(lo, t) gives its rate."""
    batches, ent = [], 0.0
    for t, h in enumerate(trace.h.tolist(), start=1):
        ent += h
        if t % N == 0:
            rate = rate_of_batch(t - N + 1, t)
            batches.append(Batch(N, t, rate, ent, ent > rate + OUTAGE_TOL))
            ent = 0.0
    return batches


def _check_encoder_side(res, model, batches, *, strategy, T, seed, epsilon, proxy=None):
    """A baseline run equals the replayed batches: W_E(tau) = t - tau + 1, W_C
    by the Lindley recursion on the batch messages, W_D = 0."""
    sizes = [b.k for b in batches]
    ends = [float(b.end) for b in batches]
    bits = [b.rate_total for b in batches]
    wc = lindley_wc(bits, ends, res.c)
    decoded = sum(sizes)

    assert _rows(res) == batches
    assert np.allclose(res.batch_log.w_c, wc, rtol=1e-12, atol=1e-9)
    block, w_e, w_c, w_d = block_delays(res)
    assert block.tolist() == [tau for b in batches for tau in _covers(b)]
    assert w_e.tolist() == [float(b.end - tau + 1) for b in batches for tau in _covers(b)]
    assert np.allclose(w_c, np.repeat(wc, sizes), rtol=1e-12, atol=1e-9)
    assert not w_d.any()

    assert (res.strategy, res.seed, res.blocks, res.epsilon) == (strategy, seed, T, epsilon)
    assert (res.batches, res.decoded_blocks) == (len(batches), decoded)
    busy = ends[-1] + wc[-1] if batches else 0.0
    assert res.unstable == ((busy - T) > max(5.0, 0.02 * T))
    assert res.mean_encoding_rate == pytest.approx(sum(bits) / T, rel=1e-12)
    if proxy is None:
        assert res.compression_ratio is None
    else:
        assert res.compression_ratio == pytest.approx(res.mean_encoding_rate / proxy)
    if not decoded:
        assert all(math.isnan(v) for v in (res.mean_delay, res.mean_w_e, res.mean_w_c,
                                          res.mean_w_d, res.outage_rate))
        return
    out = sum(k for k, b in zip(sizes, batches) if b.outage)
    assert res.outage_rate == out / decoded
    assert res.mean_w_e == pytest.approx(sum(k * (k + 1) / 2 for k in sizes) / decoded,
                                         rel=1e-12)
    assert res.mean_w_c == pytest.approx(
        sum(w * k for w, k in zip(wc, sizes)) / decoded, rel=1e-12, abs=1e-12)
    assert res.mean_w_d == 0.0
    assert res.mean_delay == res.mean_w_e + res.mean_w_c + res.mean_w_d


def _baseline_models():
    rng = np.random.default_rng(47)
    models = [demo_model(), _offlattice_model(rng)]
    models += [random_dyadic_model(rng, max_groups=3, max_total=6) for _ in range(3)]
    bsc = bsc_pair_model(0.1)
    models.append(SourceModel(bsc.entries, block_len_n=3))  # n > 1, marginal pmfs
    return models


def _proxy(model):
    return 1.0 if model.entries[0].joint_pmf is not None else None  # uniform X


@pytest.mark.parametrize("marginals", [True, False])
def test_accumulate_matches_reference(marginals):
    eps = 0.05
    unstable = set()
    for i, model in enumerate(_baseline_models()):
        if not marginals:  # blind: a run on the collapse
            model = model.collapse_marginals()
        c = 1.02 * compute_stats(model).e_h
        for N, T, kw in ((1, 600, dict(eta=0.3)), (3, 600, dict(eta=0.1)),
                         (7, 600, dict(eta=0.2)), (5, 600, dict(c=c)),
                         (41, 40, dict(eta=0.3))):  # no batch completes
            trace = sample_trace(model, T, seed=i)
            res, = simulate(
                model, ("accumulate",), epsilon=eps, batch_size=N, T=T, seed=i,
                collect_batches=True, **kw)
            if marginals:
                acc = RateAccumulator(model)

                def rate_of_batch(lo, t):
                    acc.reset()
                    for g in trace.groups[lo - 1:t].tolist():
                        acc.push_block(g)
                    return acc.rate_quantile(eps)
            else:
                fixed = rate_unconditional(model, N, eps)

                def rate_of_batch(lo, t):
                    return fixed
            batches = _replay_fixed_batches(trace, N, rate_of_batch)
            _check_encoder_side(res, model, batches, strategy="accumulate", T=T,
                                seed=i, epsilon=eps, proxy=_proxy(model))
            unstable.add(res.unstable)
    assert unstable == {True, False}


@pytest.mark.filterwarnings("ignore:channel rate .* delay may diverge")
def test_known_joint_and_blockwise_match_reference():
    T = 800
    unstable = set()
    for i, model in enumerate(_baseline_models()):
        stats = compute_stats(model)
        trace = sample_trace(model, T, seed=i)
        for kw in (dict(eta=0.3), dict(eta=0.05), dict(c=0.9 * stats.h_max)):
            kj, = simulate(model, ("known-joint",), epsilon=None, T=T, seed=i,
                           collect_batches=True, **kw)
            batches = _replay_fixed_batches(trace, 1, lambda lo, t: float(trace.h[t - 1]))
            assert not any(b.outage for b in batches)
            _check_encoder_side(kj, model, batches, strategy="known-joint", T=T, seed=i,
                                epsilon=None, proxy=_proxy(model))
            bw, = simulate(model, ("blockwise",), epsilon=None, T=T, seed=i,
                           collect_batches=True, **kw)
            batches = _replay_fixed_batches(trace, 1, lambda lo, t: stats.h_max)
            _check_encoder_side(bw, model, batches, strategy="blockwise", T=T, seed=i,
                                epsilon=None, proxy=_proxy(model))
            unstable.update((kj.unstable, bw.unstable))
    assert unstable == {True, False}


def _segment_without_memo(trace, model, c, epsilon, batch_size=None):
    """The batch table with no memo, as int64 and float64 columns: every block
    pushed, a batch closing at the first tail(K*c) <= epsilon (at K =
    batch_size when one is given) and the accumulator emptied."""
    acc = RateAccumulator(model)
    sizes, ents, rates = [], [], []
    K, ent = 0, 0.0
    for group, h in zip(trace.groups.tolist(), trace.h.tolist()):
        K += 1
        ent += h
        acc.push_block(group)
        if (K == batch_size) if batch_size else (acc.tail_above(K * c) <= epsilon):
            sizes.append(K)
            ents.append(ent)
            rates.append(acc.rate_quantile(epsilon))
            acc.reset()
            K, ent = 0, 0.0
    return (np.array(sizes, dtype=np.int64), np.array(ents, dtype=float),
            np.array(rates, dtype=float))


def test_segment_matches_memo_free_oracle():
    """The memoized we/wd pass gives exactly the sizes, entropy sums and rates
    of pushing every block, on exact lattices and on the coarse grid."""
    rng = np.random.default_rng(15)
    offlattice = random_offlattice_model(np.random.default_rng(3))
    assert any(k.atoms is not None for k in RateAccumulator(offlattice)._gpmf.values())
    models = [demo_model(), *(random_dyadic_model(rng) for _ in range(20)), offlattice]
    batched = 0
    for i, model in enumerate(models):
        e_h = compute_stats(model).e_h
        trace = sample_trace(model, 2000, seed=i)
        for eta in (0.5, 0.25, 0.1):
            got = _segment(trace, model, c=e_h / (1 - eta), epsilon=0.01)
            assert _bits(got) == _bits(_segment_without_memo(trace, model, e_h / (1 - eta),
                                                             0.01)), (i, eta)
            batched += max(got[0], default=0) > 1
    assert batched > 0  # some runs batched blocks, so the memo was exercised


def test_segment_pushes_batch_prefixes_in_order(six_cdf_model, monkeypatch):
    """On the demo at eta = 0.05, T = 10 000, seed 11, _segment makes 8 932
    pushes.  After the probe's one push per drawn group, each run of pushes
    between resets is a prefix of one batch's groups, in batch order; the open
    tail after the last close counts as a batch."""
    log = []
    push, reset = RateAccumulator.push_block, RateAccumulator.reset
    monkeypatch.setattr(RateAccumulator, "push_block",
                        lambda self, group: log.append(group) or push(self, group))
    monkeypatch.setattr(RateAccumulator, "reset", lambda self: log.append(None) or reset(self))
    trace = sample_trace(six_cdf_model, 10_000, 11)
    c = compute_stats(six_cdf_model).e_h / (1 - 0.05)
    sizes = _segment(trace, six_cdf_model, c=c, epsilon=0.01)[0]
    assert sum(g is not None for g in log) == 8932

    groups = trace.groups.tolist()
    drawn = sorted(set(groups))
    assert log[:2 * len(drawn)] == [x for g in drawn for x in (g, None)]
    ends = np.cumsum(sizes).tolist()
    batches = iter([groups[lo:hi] for lo, hi in zip([0, *ends], ends)] + [groups[ends[-1]:]])
    runs = [list(run) for pushed, run in itertools.groupby(log[2 * len(drawn):],
                                                           key=lambda g: g is not None)
            if pushed]
    assert len(runs) > 1
    for run in runs:  # each run matches a later batch than the run before it
        assert any(batch[:len(run)] == run for batch in batches)


# ---------------------------------------------------------------------------
# the one-pass accounting against a per-batch queue replay
# ---------------------------------------------------------------------------

def _account_per_batch(strategy, sizes, ents, batch_rates, *, c, eta, epsilon, seed, T,
                       proxy, collect_batches):
    """The accounting pass with one ChannelQueue.enqueue and one running float
    sum per batch, building the batch table row by row."""
    sizes, ents, batch_rates = sizes.tolist(), ents.tolist(), batch_rates.tolist()
    d = sum(sizes)
    ends = list(itertools.accumulate(sizes))
    outage = [ent > rate + OUTAGE_TOL for ent, rate in zip(ents, batch_rates)]
    outage_blocks = sum(K for K, out in zip(sizes, outage) if out)
    if strategy == WAIT_TO_DECODE:
        sum_we = sum_wc = float(d)
        sum_wd = float(sum(K * (K - 1) // 2 for K in sizes))
        bits_emitted = c * T
        unstable = False
        wcs = [1.0] * len(sizes)
    else:
        queue = ChannelQueue(rate_bits_per_block=c)
        sum_we = float(sum(K * (K + 1) // 2 for K in sizes))
        sum_wc = sum_wd = bits_emitted = 0.0
        wcs = []
        for K, t, rate in zip(sizes, ends, batch_rates):
            w_c = queue.enqueue(rate, float(t)) - t
            sum_wc += w_c * K
            bits_emitted += rate
            wcs.append(w_c)
        unstable = (strategy != WAIT_TO_ENCODE
                    and (queue.busy_until - T) > max(5.0, 0.02 * T))
    batch_log = np.rec.fromrecords(
        list(zip(sizes, ends, batch_rates, ents, outage, wcs)),
        dtype=[("k", np.int64), ("end", np.int64), ("rate_total", float),
               ("entropy_total", float), ("outage", bool), ("w_c", float)])
    mean_we, mean_wc, mean_wd = (x / d if d else math.nan for x in (sum_we, sum_wc, sum_wd))
    mean_rate = bits_emitted / T
    return SimulationResult(
        strategy=strategy, eta=eta, epsilon=epsilon, seed=seed, blocks=T, decoded_blocks=d,
        batches=len(sizes), mean_delay=mean_we + mean_wc + mean_wd, mean_w_e=mean_we,
        mean_w_c=mean_wc, mean_w_d=mean_wd,
        outage_rate=outage_blocks / d if d else math.nan, mean_encoding_rate=mean_rate,
        compression_ratio=(mean_rate / proxy) if proxy else None, c=c, unstable=unstable,
        batch_log=batch_log if collect_batches else None)


def _block_delays_per_block(res):
    """block_delays by a loop over the rows of the batch table and the blocks
    of each batch."""
    decoder = res.strategy == WAIT_TO_DECODE
    block, w_e, w_c, w_d = [], [], [], []
    for k, end, *_, wait in res.batch_log.tolist():
        for tau in range(end - k + 1, end + 1):
            block.append(tau)
            w_e.append(1.0 if decoder else float(end - tau + 1))
            w_c.append(wait)
            w_d.append(float(end - tau) if decoder else 0.0)
    return np.array(block, dtype=np.int64), *(np.array(x, dtype=float) for x in (w_e, w_c, w_d))


def _bits(value):
    """A value with every float as its hex string and every array as its dtype
    (column names included) and bytes, so that == compares bits (nan included)."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, np.ndarray):
        return value.dtype.descr, value.tobytes()
    if isinstance(value, (tuple, list)):
        return tuple(map(_bits, value))
    if dataclasses.is_dataclass(value):
        return _bits([getattr(value, f.name) for f in dataclasses.fields(value)])
    return type(value).__name__, value


@pytest.mark.filterwarnings("ignore:channel rate .* delay may diverge")
def test_account_matches_per_batch_replay(monkeypatch):
    """Every result field of all five strategies, the batch table included, and
    the per-block delays equal a per-batch queue replay bit for bit."""
    rng = np.random.default_rng(53)
    models = [demo_model(), random_offlattice_model(rng), random_dyadic_model(rng),
              SourceModel(bsc_pair_model(0.1).entries, block_len_n=3)]
    unstable_blockwise = False
    for i, model in enumerate(models):
        for blind, case in ((False, dict(eta=0.5)), (False, dict(eta=0.15)),
                            (True, dict(eta=0.3)),
                            (False, dict(c=0.9 * compute_stats(model).h_max))):
            run_model = model.collapse_marginals() if blind else model
            kw = dict(epsilon=0.02, T=600, seed=i, batch_size=4, collect_batches=True, **case)
            with monkeypatch.context() as mp:
                mp.setattr(strategies_mod, "_account", _account_per_batch)
                expected = simulate(run_model, STRATEGIES, **kw)
            got = simulate(run_model, STRATEGIES, **kw)
            for res, ref in zip(got, expected):
                assert _bits(res) == _bits(ref), (i, case, res.strategy)
                assert _bits(block_delays(res)) == _bits(_block_delays_per_block(ref)), \
                    (i, case, res.strategy)
            unstable_blockwise |= got[STRATEGIES.index("blockwise")].unstable
    assert unstable_blockwise


# ---------------------------------------------------------------------------
# metamorphic properties: transformed runs whose results are known exactly
# ---------------------------------------------------------------------------

@pytest.mark.filterwarnings("ignore:channel rate .* delay may diverge")
@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(model_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 1000),
       margin=st.sampled_from([0.0, 0.01, 0.5]), epsilon=st.sampled_from([0.3, 0.01, 1e-6]))
def test_light_traffic_flushes_every_block(model_seed, seed, margin, epsilon):
    """With c >= h_max every batch is one block: the wd delay is exactly 2 and
    the we W_E exactly 1."""
    model = random_dyadic_model(np.random.default_rng(model_seed))
    stats = compute_stats(model)
    if stats.e_h == 0:
        return  # no channel rate defines eta
    T = 300
    we, wd = simulate(model, ("we", "wd"), epsilon=epsilon, T=T, seed=seed,
                      c=stats.h_max * (1 + margin))
    for res in (we, wd):
        assert (res.batches, res.decoded_blocks) == (T, T)
    assert wd.mean_delay == 2.0
    assert we.mean_w_e == 1.0


def _rare_top_model() -> SourceModel:
    """Group 1 has a top value 7.3 of conditional probability 0.005 and a 0.01-
    quantile of 1.9; group 2 is 1.3, group 3 is -0.0 (a batch's entropy sum,
    0.0 + h, is 0.0).  At c = 2.5 < h_max every block closes alone at
    epsilon = 0.01 and those of value 7.3 are in outage."""
    return SourceModel((CdfEntry(1, 1, 0.3, 0.7), CdfEntry(1, 2, 0.1975, 1.9),
                        CdfEntry(1, 3, 0.0025, 7.3), CdfEntry(2, 1, 0.4, 1.3),
                        CdfEntry(3, 1, 0.1, -0.0)))


@pytest.mark.filterwarnings("ignore:channel rate .* delay may diverge")
def test_light_traffic_table_beyond_the_dyadic_lattice(monkeypatch):
    """Light traffic is decided by each group's one-block test, not by c >= h_max:
    where every group closes alone (off-lattice with c above h_max, c < h_max
    with every one-block quantile <= c, accumulate at N = 1) every batch is one
    block, shipped at its group's quantile.  On the coarse grid h_max rounds up
    above c = h_max, so batches there can hold more blocks.  Each table equals
    the memo-free oracle column by column, and every result field of the run
    equals the per-batch replay."""
    eps, T = 0.01, 600
    offlattice = random_offlattice_model(np.random.default_rng(7))
    h_max = compute_stats(offlattice).h_max
    cases = [  # model, c, batch size, every batch one block
        (offlattice, h_max + 2e-3, None, True),
        (offlattice, h_max, None, False),
        (_rare_top_model(), 2.5, None, True),
        (_rare_top_model(), 1.6, 1, True),
        (offlattice, 0.5 * h_max, 1, True),
        (demo_model(), 4.5, 1, True),
    ]
    outage = False
    for i, (model, c, N, alone) in enumerate(cases):
        trace = sample_trace(model, T, seed=i)
        got = _segment(trace, model, c=c, epsilon=eps, batch_size=N)
        assert _bits(got) == _bits(_segment_without_memo(trace, model, c, eps, N)), i
        assert (got[0] == 1).all() == alone, i
        kw = dict(epsilon=eps, T=T, seed=i, c=c, batch_size=N, collect_batches=True)
        strategies = ("we", "wd") if N is None else ("accumulate",)
        with monkeypatch.context() as mp:
            mp.setattr(strategies_mod, "_account", _account_per_batch)
            expected = simulate(model, strategies, **kw)
        for res, ref in zip(simulate(model, strategies, **kw), expected):
            assert _bits(res) == _bits(ref), (i, res.strategy)
            outage |= res.outage_rate > 0
    assert outage


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(model_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 1000),
       eta=st.sampled_from([0.3, 0.15, 0.08]))
def test_doubled_entropies_keep_every_delay(model_seed, seed, eta):
    """Doubling every entropy at the same eta doubles c, every rate and every
    entropy sum exactly on a dyadic lattice: delays and batch counts are equal."""
    model = random_dyadic_model(np.random.default_rng(model_seed))
    if compute_stats(model).e_h == 0:
        return
    doubled = SourceModel(tuple(dataclasses.replace(e, cond_entropy=2 * e.cond_entropy)
                                for e in model.entries))
    kw = dict(epsilon=0.02, T=400, seed=seed, eta=eta)
    fields = ("batches", "decoded_blocks", "mean_delay", "mean_w_e", "mean_w_c", "mean_w_d",
              "outage_rate")
    for res, twice in zip(simulate(model, ("we", "wd"), **kw),
                          simulate(doubled, ("we", "wd"), **kw)):
        assert twice.c == 2 * res.c
        assert _bits([getattr(twice, f) for f in fields]) == _bits(
            [getattr(res, f) for f in fields]), res.strategy


def test_block_length_changes_no_result():
    """Every size is in bits per symbol, so the block length n never enters a
    run: at n = 7, 180 and 500 every result field, the batch table included,
    and the per-block delays equal the n = 1 run bit for bit."""
    rng = np.random.default_rng(15)
    models = (demo_model(), random_dyadic_model(rng), random_offlattice_model(rng))
    for i, model in enumerate(models):
        for eta in (0.5, 0.25, 0.1):
            kw = dict(epsilon=0.01, T=600, seed=i, eta=eta, batch_size=4,
                      collect_batches=True)
            base = simulate(model, STRATEGIES, **kw)
            for n in (7, 180, 500):
                runs = simulate(SourceModel(model.entries, block_len_n=n), STRATEGIES, **kw)
                for res, ref in zip(runs, base):
                    assert _bits(res) == _bits(ref), (i, eta, n, res.strategy)
                    assert _bits(block_delays(res)) == _bits(block_delays(ref)), \
                        (i, eta, n, res.strategy)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(model_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 1000),
       eta=st.sampled_from([0.3, 0.15, 0.08]))
def test_shorter_run_is_a_prefix(model_seed, seed, eta):
    """The trace of a shorter run is a prefix of the longer one's, and a batch
    and its W_C depend only on the blocks and batches before it (Lindley's
    recursion is causal): the we and wd batch tables of T = 300 are the first
    rows of T = 1 200, and hold every batch closing by block 300."""
    model = random_dyadic_model(np.random.default_rng(model_seed))
    if compute_stats(model).e_h == 0:
        return
    kw = dict(epsilon=0.02, seed=seed, eta=eta, collect_batches=True)
    for short, full in zip(simulate(model, ("we", "wd"), T=300, **kw),
                           simulate(model, ("we", "wd"), T=1200, **kw)):
        rows = len(short.batch_log)
        assert rows == int((full.batch_log.end <= 300).sum()), short.strategy
        assert _bits(short.batch_log) == _bits(full.batch_log[:rows]), short.strategy


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(model_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 1000),
       eta=st.sampled_from([0.3, 0.15, 0.08]))
def test_relabelled_groups_keep_every_delay(model_seed, seed, eta):
    """Swapping group labels 1 and 2, with the entries kept in order, draws
    the same entries and convolves the same kernels, block by block: delays,
    batch counts and outage rates are equal."""
    model = random_dyadic_model(np.random.default_rng(model_seed))
    if model.m < 2 or compute_stats(model).e_h == 0:
        return
    swap = {1: 2, 2: 1}
    relabelled = SourceModel(tuple(dataclasses.replace(e, group=swap.get(e.group, e.group))
                                   for e in model.entries))
    kw = dict(epsilon=0.02, T=400, seed=seed, eta=eta)
    fields = ("batches", "decoded_blocks", "mean_delay", "mean_w_e", "mean_w_c", "mean_w_d",
              "outage_rate")
    for res, swapped in zip(simulate(model, ("we", "wd"), **kw),
                            simulate(relabelled, ("we", "wd"), **kw)):
        assert _bits([getattr(swapped, f) for f in fields]) == _bits(
            [getattr(res, f) for f in fields]), res.strategy
