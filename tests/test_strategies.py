import math

import numpy as np
import pytest

from swdelay import (
    BatchOutcome,
    CdfEntry,
    Message,
    RateAccumulator,
    SourceModel,
    bsc_pair_model,
    compute_stats,
    demo_model,
    k_c,
    rate_unconditional,
    run_baseline_accumulate,
    run_baseline_blockwise,
    run_baseline_known_joint,
    run_strategy,
    run_wait_to_decode,
    run_wait_to_encode,
    sample_trace,
)

from swdelay.strategies import OUTAGE_TOL

from conftest import lindley_wc, random_dyadic_model


def test_message_invariants():
    Message(emitted_at=3, bits=8.0, covers=(1, 3), blank=False)
    Message(emitted_at=3, bits=0.0, covers=None, blank=True)
    with pytest.raises(ValueError):
        Message(emitted_at=3, bits=0.0, covers=(1, 3), blank=False)
    with pytest.raises(ValueError):
        Message(emitted_at=3, bits=4.0, covers=None, blank=True)


def test_we_single_entry_hand_trace(single_cdf_model):
    # H = 2, c = 4: every block flushes alone, service is half a block
    res = run_wait_to_encode(single_cdf_model, epsilon=0.01, T=100, seed=0, c=4.0)
    assert res.mean_w_e == 1.0
    assert res.mean_w_c == pytest.approx(0.5, abs=1e-12)
    assert res.mean_w_d == 0.0
    assert res.mean_delay == pytest.approx(1.5, abs=1e-12)
    assert res.outage_rate == 0.0
    assert res.batches == 100


def test_wd_single_entry_hand_trace(single_cdf_model):
    res = run_wait_to_decode(single_cdf_model, epsilon=0.01, T=100, seed=0, c=4.0)
    assert res.mean_delay == pytest.approx(2.0, abs=1e-12)
    assert (res.mean_w_e, res.mean_w_c, res.mean_w_d) == (1.0, 1.0, 0.0)
    assert res.mean_encoding_rate == pytest.approx(4.0)


def test_wd_collapsed_deterministic_cycle(six_cdf_model):
    """Blind decoding always happens at exactly K_c blocks."""
    flat = six_cdf_model.collapse_marginals()
    for eta in (0.5, 0.25):
        c = 4.17 / (1 - eta)
        kc = k_c(six_cdf_model, c, 0.01)
        res = run_wait_to_decode(
            flat, epsilon=0.01, T=4000, seed=2, eta=eta, collect_batches=True
        )
        assert res.mean_delay == pytest.approx(kc / 2 + 1.5, abs=1e-12)
        assert all(b.covers[1] - b.covers[0] + 1 == kc for b in res.batch_log)


def test_we_collapsed_deterministic_cycle(six_cdf_model):
    flat = six_cdf_model.collapse_marginals()
    for eta in (0.5, 0.25):
        c = compute_stats(flat).e_h / (1 - eta)
        kc = k_c(six_cdf_model, c, 0.01)
        rx = rate_unconditional(six_cdf_model, kc, 0.01)
        res = run_wait_to_encode(flat, epsilon=0.01, T=4000, seed=2, eta=eta)
        expected = (kc + 1) / 2 + rx / c
        assert res.mean_delay == pytest.approx(expected, abs=1e-9)
        assert res.mean_delay <= 1.5 * kc + 0.5 + 1e-9


def test_we_quantile_degenerates_at_large_epsilon(single_cdf_model):
    # eps -> 1: the quantile collapses to the minimum entropy sum
    model = SourceModel((CdfEntry(1, 1, 0.5, 1.0), CdfEntry(1, 2, 0.5, 3.0)))
    res = run_wait_to_encode(model, epsilon=0.99, T=50, seed=1, c=2.5)
    assert res.batches == 50  # 1.0 <= c always flushes immediately
    assert res.mean_encoding_rate == pytest.approx(1.0)
    assert res.outage_rate > 0.2  # min-entropy coding loses often


def test_known_joint_baseline(single_cdf_model, six_cdf_model):
    res = run_baseline_known_joint(single_cdf_model, T=200, seed=0, c=4.0)
    assert res.mean_delay == pytest.approx(1.5, abs=1e-12)
    assert res.outage_rate == 0.0

    # matches an independent Lindley replay of the same trace
    T = 3000
    res = run_baseline_known_joint(six_cdf_model, T=T, seed=7, eta=0.1)
    tr = sample_trace(six_cdf_model, T, seed=7)
    c = 4.17 / 0.9
    wcs = lindley_wc(tr.h.tolist(), [float(t) for t in range(1, T + 1)], c)
    assert res.mean_w_c == pytest.approx(float(np.mean(wcs)), abs=1e-9)
    assert res.mean_delay == pytest.approx(1.0 + float(np.mean(wcs)), abs=1e-9)


def test_blockwise_baseline(six_cdf_model):
    res = run_baseline_blockwise(six_cdf_model, T=500, seed=1, c=8.34)
    assert res.mean_delay == pytest.approx(1 + 6 / 8.34, abs=1e-12)
    assert not res.unstable
    assert res.outage_rate == 0.0
    res = run_baseline_blockwise(six_cdf_model, T=2000, seed=1, c=5.0)
    assert res.unstable  # H_max = 6 > c


def test_accumulate_baseline_n1_is_per_block_quantile(six_cdf_model):
    res = run_baseline_accumulate(
        six_cdf_model, epsilon=0.01, N=1, T=400, seed=3, c=8.34
    )
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
    we = run_wait_to_encode(flat, epsilon=0.01, T=2000, seed=5, eta=eta)
    accum = run_baseline_accumulate(
        six_cdf_model, epsilon=0.01, N=kc, T=2000, seed=5, eta=eta
    )
    assert accum.mean_delay == pytest.approx(we.mean_delay, abs=1e-9)
    assert accum.mean_encoding_rate == pytest.approx(we.mean_encoding_rate, abs=1e-12)


def test_accumulate_rate_approaches_mean_entropy(six_cdf_model):
    # larger batches average the source out: per-block rate drops toward E[H]
    rates = []
    for N in (1, 4, 16, 64):
        res = run_baseline_accumulate(
            six_cdf_model, epsilon=0.05, N=N, T=640, seed=9, c=8.34
        )
        rates.append(res.mean_encoding_rate / 1.0)
    assert rates == sorted(rates, reverse=True)
    assert rates[-1] < rates[0]
    assert rates[-1] >= 4.17


def test_delay_components_sum(six_cdf_model):
    for strategy in ("we", "wd", "known-joint", "blockwise"):
        res = run_strategy(
            strategy, six_cdf_model, epsilon=0.05, T=2000, seed=11, eta=0.25
        )
        assert res.mean_delay == pytest.approx(
            res.mean_w_e + res.mean_w_c + res.mean_w_d, abs=1e-9
        )


def test_flush_feasibility_and_decode_minimality(six_cdf_model):
    """Replay the trace and check the stopping rules block by block."""
    T = 1500
    eta, eps = 0.25, 0.05
    c = 4.17 / (1 - eta)
    for run, strategy in (
        (run_wait_to_encode, "we"),
        (run_wait_to_decode, "wd"),
    ):
        res = run(six_cdf_model, epsilon=eps, T=T, seed=13, eta=eta,
                  collect_batches=True)
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
    for strategy, run in (("we", run_wait_to_encode), ("wd", run_wait_to_decode)):
        for eta, eps in ((0.25, 0.05), (0.1, 0.05)):
            res = run(six_cdf_model, epsilon=eps, T=30_000, seed=17, eta=eta)
            slack = 3 * math.sqrt(eps * (1 - eps) / res.batches)
            assert res.outage_rate <= eps + slack, (strategy, eta)


def test_records_stream(six_cdf_model):
    res = run_wait_to_decode(
        six_cdf_model, epsilon=0.05, T=300, seed=19, eta=0.25,
        collect_records=True,
    )
    recs = list(res.records)
    assert len(recs) == res.decoded_blocks
    assert all(r.w_e == 1.0 and r.w_c == 1.0 and r.w_d >= 0.0 for r in recs)
    mean = float(np.mean([r.total for r in recs]))
    assert mean == pytest.approx(res.mean_delay, abs=1e-9)
    # covered blocks are contiguous from the start
    assert [r.block for r in recs] == sorted(r.block for r in recs)


def test_overload_warns(six_cdf_model):
    with pytest.warns(RuntimeWarning, match="delay may diverge"):
        run_wait_to_encode(six_cdf_model, epsilon=0.05, T=50, seed=1, c=4.0)


def test_epsilon_required_and_bounded(six_cdf_model):
    for bad in (None, 0.0, 1.0, -0.1):
        with pytest.raises(ValueError, match="epsilon"):
            run_wait_to_encode(six_cdf_model, epsilon=bad, T=10, seed=1, eta=0.5)
        with pytest.raises(ValueError, match="epsilon"):
            run_wait_to_decode(six_cdf_model, epsilon=bad, T=10, seed=1, eta=0.5)


def test_determinism_same_seed(six_cdf_model):
    a = run_wait_to_encode(six_cdf_model, epsilon=0.05, T=5000, seed=23, eta=0.2)
    b = run_wait_to_encode(six_cdf_model, epsilon=0.05, T=5000, seed=23, eta=0.2)
    assert a == b


def test_compression_ratio_only_with_pmfs(six_cdf_model):
    res = run_wait_to_decode(six_cdf_model, epsilon=0.05, T=100, seed=1, eta=0.5)
    assert res.compression_ratio is None

    from swdelay import bsc_pair_model

    bsc = bsc_pair_model(0.1)  # uniform X: the marginal-entropy proxy is 1 bit
    res = run_wait_to_decode(bsc, epsilon=0.05, T=100, seed=1, eta=0.5)
    assert res.compression_ratio == pytest.approx(res.mean_encoding_rate / 1.0)


def test_message_streams(six_cdf_model):
    T = 200
    we = run_wait_to_encode(
        six_cdf_model, epsilon=0.05, T=T, seed=29, eta=0.25, collect_batches=True
    )
    # one non-blank message per batch, sized n * quantile, covering the batch
    assert len(we.messages) == we.batches
    for msg, batch in zip(we.messages, we.batch_log):
        assert not msg.blank
        assert msg.covers == batch.covers
        assert msg.emitted_at == batch.covers[1]
        assert msg.bits == pytest.approx(batch.rate_total * 1.0)
    total_bits = sum(m.bits for m in we.messages)
    assert we.mean_encoding_rate == pytest.approx(total_bits / T, abs=1e-12)

    wd = run_wait_to_decode(
        six_cdf_model, epsilon=0.05, T=T, seed=29, eta=0.25, collect_batches=True
    )
    # the saturated encoder ships one channel-rate message every block
    assert len(wd.messages) == T
    assert all(m.bits == pytest.approx(wd.c) for m in wd.messages)
    assert wd.messages[0].covers == (1, 1)


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
    """Batches of the stop rule, pushing and querying the accumulator every block.

    Returns (BatchOutcomes, lattice mode at each flush).
    """
    acc = RateAccumulator(model)
    batches, exact = [], []
    lo, ent = 1, 0.0
    for t, (g, h) in enumerate(zip(trace.groups.tolist(), trace.h.tolist()), start=1):
        acc.push_block(g)
        ent += h
        K = acc.k
        if acc.tail_above(K * c) > epsilon:
            continue
        rate = acc.rate_quantile(epsilon) if quantile else K * c
        batches.append(BatchOutcome((lo, t), rate, ent, ent > rate + OUTAGE_TOL))
        exact.append(acc.exact)
        acc.reset()
        lo, ent = t + 1, 0.0
    return batches, exact


def _check_against_reference(model, *, epsilon, T, seed, eta):
    """we and wd runs equal the reference: batches, records, messages, summary."""
    modes = set()
    for run, quantile in ((run_wait_to_encode, True), (run_wait_to_decode, False)):
        res = run(model, epsilon=epsilon, T=T, seed=seed, eta=eta,
                  collect_records=True, collect_batches=True)
        trace = sample_trace(model, T, seed)
        batches, exact = _reference_batches(model, trace, res.c, epsilon, quantile)
        modes.update(exact)
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
            assert res.messages == tuple(
                Message(emitted_at=b.covers[1], bits=n * b.rate_total,
                        covers=b.covers, blank=False) for b in batches
            )
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
            starts = {1} | {b.covers[1] + 1 for b in batches}
            expect, lo = [], 1
            for t in range(1, T + 1):
                lo = t if t in starts else lo
                expect.append(Message(emitted_at=t, bits=n * res.c,
                                      covers=(lo, t), blank=False))
            assert res.messages == tuple(expect)
            assert res.records.w_d.tolist() == [
                float(b.covers[1] - tau) for b in batches
                for tau in range(b.covers[0], b.covers[1] + 1)
            ]
            assert (res.records.w_e == 1.0).all() and (res.records.w_c == 1.0).all()
    return modes


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


def test_stopping_rule_matches_reference_across_coarse_switch(monkeypatch):
    """The exact -> coarse switch inside a run leaves the batches unchanged.

    Thirds are exact on their own lattice but round up on the coarse grid, so
    a decision kept from the exact lattice would show in the batch rates.
    """
    thirds = SourceModel((
        CdfEntry(1, 1, 0.2, 1 / 3), CdfEntry(1, 2, 0.1, 4 / 3),
        CdfEntry(2, 1, 0.15, 2 / 3), CdfEntry(2, 2, 0.15, 5 / 3),
        CdfEntry(2, 3, 0.1, 7 / 3), CdfEntry(3, 1, 0.3, 3.0),
    ))
    assert RateAccumulator(thirds).exact
    defaults = RateAccumulator.__init__.__defaults__
    monkeypatch.setattr(RateAccumulator.__init__, "__defaults__",
                        defaults[:-1] + (32,))  # max_points
    for eta in (0.3, 0.15):
        modes = _check_against_reference(thirds, epsilon=0.02, T=1500, seed=5, eta=eta)
        assert modes == {True, False}  # flushes on both lattices


def test_stopping_rule_reuses_decisions(six_cdf_model, monkeypatch):
    """At eta = 0.5 every block flushes alone: three groups, three pushes."""
    calls = []
    push = RateAccumulator.push_block

    def counted(self, group):
        calls.append(group)
        return push(self, group)

    monkeypatch.setattr(RateAccumulator, "push_block", counted)
    res = run_wait_to_encode(six_cdf_model, epsilon=0.01, T=1000, seed=3, eta=0.5)
    assert res.batches == 1000
    assert len(calls) <= 3


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
    if logged:
        assert res.batch_log == tuple(batches)
        assert res.messages == tuple(
            Message(emitted_at=b.covers[1], bits=n * b.rate_total, covers=b.covers,
                    blank=False) for b in batches)
    else:
        assert res.batch_log is None and res.messages is None

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
            res = run_baseline_accumulate(
                model, epsilon=eps, N=N, T=T, seed=i, use_marginals=use_marginals,
                collect_records=True, collect_batches=True, **kw)
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
            kj = run_baseline_known_joint(model, T=T, seed=i, collect_records=True, **kw)
            batches = _replay_fixed_batches(trace, 1, lambda lo, t: float(trace.h[t - 1]))
            assert not any(b.outage for b in batches)
            _check_encoder_side(kj, model, batches, strategy="known-joint", T=T, seed=i,
                                epsilon=None, proxy=_proxy(model), logged=False)
            bw = run_baseline_blockwise(model, T=T, seed=i, collect_records=True, **kw)
            batches = _replay_fixed_batches(trace, 1, lambda lo, t: stats.h_max)
            _check_encoder_side(bw, model, batches, strategy="blockwise", T=T, seed=i,
                                epsilon=None, proxy=_proxy(model), logged=False)
            unstable.update((kj.unstable, bw.unstable))
    assert unstable == {True, False}
