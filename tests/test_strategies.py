import dataclasses
import math

import numpy as np
import pytest

from swdelay import (
    BatchOutcome,
    CdfEntry,
    RateAccumulator,
    SourceModel,
    bsc_pair_model,
    compute_stats,
    demo_model,
    k_c,
    rate_unconditional,
    sample_trace,
    simulate,
)

from swdelay.entropy import entropy_bits, marginal_x
from swdelay.strategies import OUTAGE_TOL, STRATEGIES, _segment

from conftest import (lindley_wc, random_dyadic_model, random_offlattice_model,
                      two_group_pmf_model)


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
        assert all(b.covers[1] - b.covers[0] + 1 == kc for b in res.batch_log)


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


def test_blind_run_on_multigroup_pmf_model():
    """Without marginals, a multi-group model with joint pmfs runs at the
    entropy level: exactly as the same model without its pmfs."""
    kw = dict(epsilon=0.05, T=300, seed=3, eta=0.3, use_marginals=False)
    blind = simulate(two_group_pmf_model(), ("we", "wd"), **kw)
    assert blind == simulate(two_group_pmf_model(with_pmfs=False), ("we", "wd"), **kw)


def test_blind_pair_run_equals_single_runs(monkeypatch):
    """A blind we and wd run collapses the model once for both."""
    collapse = SourceModel.collapse_marginals
    calls = []

    def counted(self):
        calls.append(self)
        return collapse(self)

    kw = dict(epsilon=0.05, T=300, seed=3, eta=0.3, use_marginals=False)
    singles = tuple(simulate(two_group_pmf_model(), (s,), **kw)[0] for s in ("we", "wd"))
    monkeypatch.setattr(SourceModel, "collapse_marginals", counted)
    assert simulate(two_group_pmf_model(), ("we", "wd"), **kw) == singles
    assert len(calls) == 1


def test_blind_accumulate_keeps_the_model_compression_ratio():
    """Blind accumulate cuts its batches on the collapsed model, which has no
    pmfs, but reports the compression ratio of the model as given."""
    model = two_group_pmf_model()
    res, = simulate(model, ("accumulate",), epsilon=0.05, T=300, seed=3, eta=0.3,
                    batch_size=4, use_marginals=False)
    proxy = sum(e.prob * entropy_bits(marginal_x(e.joint_pmf)) for e in model.entries)
    assert res.compression_ratio == res.mean_encoding_rate / proxy


def test_blind_run_leaves_one_group_model_as_is():
    """A one-group model has no marginal information to forget."""
    bsc = bsc_pair_model(0.1)
    kw = dict(epsilon=0.05, T=300, seed=3, eta=0.3)
    blind = simulate(bsc, ("we", "wd"), use_marginals=False, **kw)
    assert blind == simulate(bsc, ("we", "wd"), use_marginals=True, **kw)
    assert all(res.compression_ratio is not None for res in blind)


@pytest.mark.parametrize("use_marginals", [True, False])
@pytest.mark.parametrize("strategies", [
    STRATEGIES,
    ("accumulate", "wd", "blockwise", "we", "known-joint"),
    ("known-joint", "wd"),
    ("blockwise", "accumulate"),
])
def test_mixed_run_equals_single_runs(strategies, use_marginals):
    """One run of several strategies returns, in the order asked, each one's
    own single-strategy result: blind we/wd on the collapsed model, the
    baselines on the model as given."""
    kw = dict(epsilon=0.05, T=400, seed=5, eta=0.2, batch_size=3,
              use_marginals=use_marginals, collect_batches=True)
    for model in (demo_model(), two_group_pmf_model()):
        mixed = simulate(model, strategies, **kw)
        assert [r.strategy for r in mixed] == list(strategies)
        assert mixed == tuple(simulate(model, (s,), **kw)[0] for s in strategies)


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
    res, = simulate(six_cdf_model, ("accumulate",), epsilon=0.01, batch_size=1, T=400,
                    seed=3, c=8.34, use_marginals=False)
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
    accum, = simulate(six_cdf_model, ("accumulate",), epsilon=0.01, batch_size=kc, T=2000,
                      seed=5, eta=eta, use_marginals=False)
    assert accum.mean_delay == pytest.approx(we.mean_delay, abs=1e-9)
    assert accum.mean_encoding_rate == pytest.approx(we.mean_encoding_rate, abs=1e-12)


def test_accumulate_rate_approaches_mean_entropy(six_cdf_model):
    # larger batches average the source out: per-block rate drops toward E[H]
    rates = []
    for N in (1, 4, 16, 64):
        res, = simulate(six_cdf_model, ("accumulate",), epsilon=0.05, batch_size=N, T=640,
                        seed=9, c=8.34, use_marginals=False)
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
            lo, hi = batch.covers
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
                    collect_records=True)
    rec = res.records
    assert len(rec) == res.decoded_blocks
    assert (rec.w_e == 1.0).all() and (rec.w_c == 1.0).all() and (rec.w_d >= 0.0).all()
    mean = float(np.mean(rec.w_e + rec.w_c + rec.w_d))
    assert mean == pytest.approx(res.mean_delay, abs=1e-9)
    # covered blocks are contiguous from the start
    assert rec.block.tolist() == list(range(1, res.decoded_blocks + 1))


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
    # one message per batch, sized n * quantile
    assert len(we.batch_log) == we.batches
    n = six_cdf_model.block_len_n
    total_bits = sum(n * b.rate_total for b in we.batch_log)
    assert we.mean_encoding_rate == pytest.approx(total_bits / (n * T), abs=1e-12)

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


def _reference_batches(model, trace, c, epsilon, quantile):
    """Batches of the stop rule, pushing and querying the accumulator every block."""
    acc = RateAccumulator(model)
    batches = []
    lo, ent = 1, 0.0
    for t, (g, h) in enumerate(zip(trace.groups.tolist(), trace.h.tolist()), start=1):
        acc.push_block(g)
        ent += h
        K = acc.k
        if acc.tail_above(K * c) > epsilon:
            continue
        rate = acc.rate_quantile(epsilon) if quantile else K * c
        batches.append(BatchOutcome((lo, t), rate, ent, ent > rate + OUTAGE_TOL))
        acc.reset()
        lo, ent = t + 1, 0.0
    return batches


def _check_against_reference(model, *, epsilon, T, seed, eta):
    """we and wd runs, alone and as the two halves of one shared pass, equal
    the reference: batches, records, summary."""
    kw = dict(epsilon=epsilon, T=T, seed=seed, eta=eta,
              collect_records=True, collect_batches=True)
    pair = simulate(model, ("we", "wd"), **kw)
    trace = sample_trace(model, T, seed)
    for strategy, quantile, half in (("we", True, pair[0]), ("wd", False, pair[1])):
        res, = simulate(model, (strategy,), **kw)
        assert dataclasses.replace(half, records=None) == dataclasses.replace(res, records=None)
        for field in ("block", "w_e", "w_c", "w_d"):
            assert getattr(half.records, field).tolist() == getattr(res.records, field).tolist()
        batches = _reference_batches(model, trace, res.c, epsilon, quantile)
        assert res.batch_log == tuple(batches)
        sizes = np.array([b.covers[1] - b.covers[0] + 1 for b in batches])
        blocks = [tau for b in batches for tau in range(b.covers[0], b.covers[1] + 1)]
        n = model.block_len_n
        assert (res.batches, res.decoded_blocks) == (len(batches), int(sizes.sum()))
        assert res.records.block.tolist() == blocks
        assert res.outage_rate == pytest.approx(
            sizes[[b.outage for b in batches]].sum() / sizes.sum(), abs=1e-15)
        rec = res.records
        assert (res.mean_w_e, res.mean_w_c, res.mean_w_d) == pytest.approx(
            (rec.w_e.mean(), rec.w_c.mean(), rec.w_d.mean()), rel=1e-12)
        if quantile:
            bits = [n * b.rate_total for b in batches]
            w_c = np.repeat(lindley_wc(bits, [float(b.covers[1]) for b in batches],
                                       n * res.c), sizes)
            assert res.records.w_e.tolist() == [
                float(b.covers[1] - tau + 1) for b in batches
                for tau in range(b.covers[0], b.covers[1] + 1)
            ]
            assert np.allclose(res.records.w_c, w_c, rtol=1e-12, atol=1e-9)
            assert not res.records.w_d.any()
            assert res.mean_encoding_rate == pytest.approx(sum(bits) / (n * T))
        else:
            assert res.records.w_d.tolist() == [
                float(b.covers[1] - tau) for b in batches
                for tau in range(b.covers[0], b.covers[1] + 1)
            ]
            assert (res.records.w_e == 1.0).all() and (res.records.w_c == 1.0).all()
            assert res.mean_encoding_rate == pytest.approx(res.c)  # n*c bits every block


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
    batches, lo, ent = [], 1, 0.0
    for t, h in enumerate(trace.h.tolist(), start=1):
        ent += h
        if t % N == 0:
            rate = rate_of_batch(lo, t)
            batches.append(BatchOutcome((lo, t), rate, ent, ent > rate + OUTAGE_TOL))
            lo, ent = t + 1, 0.0
    return batches


def _check_encoder_side(res, model, batches, *, strategy, T, seed, epsilon,
                        proxy=None, logged=True):
    """A baseline run equals the replayed batches: W_E(tau) = t - tau + 1, W_C
    by the Lindley recursion on the batch messages, W_D = 0."""
    n = model.block_len_n
    sizes = [b.covers[1] - b.covers[0] + 1 for b in batches]
    ends = [float(b.covers[1]) for b in batches]
    bits = [n * b.rate_total for b in batches]
    wc = lindley_wc(bits, ends, n * res.c)
    decoded = sum(sizes)

    rec = res.records
    assert rec.block.tolist() == [
        tau for b in batches for tau in range(b.covers[0], b.covers[1] + 1)]
    assert rec.w_e.tolist() == [
        float(b.covers[1] - tau + 1) for b in batches
        for tau in range(b.covers[0], b.covers[1] + 1)]
    assert np.allclose(rec.w_c, np.repeat(wc, sizes), rtol=1e-12, atol=1e-9)
    assert not rec.w_d.any()
    assert res.batch_log == (tuple(batches) if logged else None)

    assert (res.strategy, res.seed, res.blocks, res.epsilon) == (strategy, seed, T, epsilon)
    assert (res.batches, res.decoded_blocks) == (len(batches), decoded)
    busy = ends[-1] + wc[-1] if batches else 0.0
    assert res.unstable == ((busy - T) > max(5.0, 0.02 * T))
    assert res.mean_encoding_rate == pytest.approx(sum(bits) / (n * T), rel=1e-12)
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


@pytest.mark.parametrize("use_marginals", [True, False])
def test_accumulate_matches_reference(use_marginals):
    eps = 0.05
    unstable = set()
    for i, model in enumerate(_baseline_models()):
        c = 1.02 * compute_stats(model).e_h
        for N, T, kw in ((1, 600, dict(eta=0.3)), (3, 600, dict(eta=0.1)),
                         (7, 600, dict(eta=0.2)), (5, 600, dict(c=c)),
                         (41, 40, dict(eta=0.3))):  # no batch completes
            trace = sample_trace(model, T, seed=i)
            res, = simulate(
                model, ("accumulate",), epsilon=eps, batch_size=N, T=T, seed=i,
                use_marginals=use_marginals, collect_records=True, collect_batches=True, **kw)
            if use_marginals:
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
            kj, = simulate(model, ("known-joint",), epsilon=None, T=T, seed=i, collect_records=True, **kw)
            batches = _replay_fixed_batches(trace, 1, lambda lo, t: float(trace.h[t - 1]))
            assert not any(b.outage for b in batches)
            _check_encoder_side(kj, model, batches, strategy="known-joint", T=T, seed=i,
                                epsilon=None, proxy=_proxy(model), logged=False)
            bw, = simulate(model, ("blockwise",), epsilon=None, T=T, seed=i, collect_records=True, **kw)
            batches = _replay_fixed_batches(trace, 1, lambda lo, t: stats.h_max)
            _check_encoder_side(bw, model, batches, strategy="blockwise", T=T, seed=i,
                                epsilon=None, proxy=_proxy(model), logged=False)
            unstable.update((kj.unstable, bw.unstable))
    assert unstable == {True, False}


def _segment_without_memo(trace, model, c, epsilon):
    """The adaptive batch table with no memo: every block pushed, a batch
    closing at the first tail(K*c) <= epsilon and the accumulator emptied."""
    acc = RateAccumulator(model)
    sizes, ents, rates = [], [], []
    K, ent = 0, 0.0
    for group, h in zip(trace.groups.tolist(), trace.h.tolist()):
        K += 1
        ent += h
        acc.push_block(group)
        if acc.tail_above(K * c) <= epsilon:
            sizes.append(K)
            ents.append(ent)
            rates.append(acc.rate_quantile(epsilon))
            acc.reset()
            K, ent = 0, 0.0
    return sizes, ents, rates


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
            assert got == _segment_without_memo(trace, model, e_h / (1 - eta), 0.01), (i, eta)
            batched += max(got[0], default=0) > 1
    assert batched > 0  # some runs batched blocks, so the memo was exercised
