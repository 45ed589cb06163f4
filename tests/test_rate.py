import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swdelay import rate as rate_mod
from swdelay import (
    CdfEntry,
    ModelError,
    RateAccumulator,
    SourceModel,
    compute_stats,
    demo_model,
    k_c,
    k_c_chernoff,
    rate_unconditional,
    sample_trace,
)
from swdelay.strategies import _segment, simulate

from conftest import (enum_quantile, enum_tail, group_pmf, prior_pmf, random_dyadic_model,
                      random_offlattice_model)


def test_push_singleton_group(six_cdf_model):
    acc = RateAccumulator(six_cdf_model)
    d = acc.push_block(1).distribution()
    assert d.support.tolist() == [2.0]
    assert d.probs.tolist() == [1.0]


def test_push_group2_twice(six_cdf_model):
    acc = RateAccumulator(six_cdf_model)
    d = acc.push_block(2).push_block(2).distribution()
    assert d.support.tolist() == [6.0, 7.0, 8.0]
    assert d.probs.tolist() == pytest.approx([0.25, 0.5, 0.25], abs=1e-15)


def test_push_group3_once(six_cdf_model):
    acc = RateAccumulator(six_cdf_model)
    d = acc.push_block(3).distribution()
    assert d.support.tolist() == [4.0, 5.0, 6.0]
    assert d.probs.tolist() == pytest.approx([0.24, 0.38, 0.38], abs=1e-15)


def test_push_unknown_group(six_cdf_model):
    with pytest.raises(ModelError):
        RateAccumulator(six_cdf_model).push_block(4)


def test_distribution_validates(six_cdf_model):
    acc = RateAccumulator(six_cdf_model)
    for g in (1, 2, 3, 3, 2):
        acc.push_block(g)
    d = acc.distribution()
    assert d.support.ndim == 1 and d.support.shape == d.probs.shape
    assert abs(float(d.probs.sum()) - 1.0) <= 1e-10
    assert (d.support >= 0).all() and (d.probs > 0).all()
    assert (np.diff(d.support) >= rate_mod.H_RES_EXACT / 2).all()


def test_quantile_examples(six_cdf_model):
    acc = RateAccumulator(six_cdf_model)
    assert acc.push_block(1).rate_quantile(0.01) == 2.0
    acc.reset()
    acc.push_block(3)
    assert acc.rate_quantile(0.3) == 6.0
    assert acc.rate_quantile(0.4) == 5.0
    acc.reset()
    acc.push_block(2).push_block(2)
    assert acc.rate_quantile(0.01) == 8.0
    assert acc.rate_quantile(0.3) == 7.0


def test_quantile_resolves_tails_below_the_total_rounding(six_cdf_model):
    """Tails are summed from the top: an epsilon far below the ~1e-16 rounding
    of the total still picks the smallest support value whose strict tail,
    summed exactly, is at most epsilon."""
    acc = RateAccumulator(six_cdf_model)
    for g in (3, 2) * 40:
        acc.push_block(g)
    d = acc.distribution()
    tails = [math.fsum(d.probs[i + 1:]) for i in range(len(d.probs))]
    for eps, expected in ((1e-17, 390.0), (1e-20, 393.0), (1e-30, 400.0)):
        assert min(v for v, tail in zip(d.support, tails) if tail <= eps) == expected
        assert acc.rate_quantile(eps) == expected, eps


def test_quantile_empty_rejected(six_cdf_model):
    with pytest.raises(ValueError):
        RateAccumulator(six_cdf_model).rate_quantile(0.1)
    with pytest.raises(ValueError):
        RateAccumulator(six_cdf_model).push_block(1).rate_quantile(0.0)


def test_rate_unconditional_examples(six_cdf_model):
    assert rate_unconditional(six_cdf_model, 1, 0.01) == 6.0
    assert rate_unconditional(six_cdf_model, 1, 0.5) == 4.0
    assert rate_unconditional(six_cdf_model, 1, 0.999) == 2.0  # min entropy
    assert rate_unconditional(six_cdf_model, 4, 0.01) == 22.0


def test_rate_unconditional_equals_collapsed_pushes(six_cdf_model):
    flat = six_cdf_model.collapse_marginals()
    acc = RateAccumulator(flat)
    for K in range(1, 5):
        acc.push_block(1)
        assert acc.rate_quantile(0.05) == rate_unconditional(six_cdf_model, K, 0.05)


def test_quantile_matches_enumeration_exactly(six_cdf_model):
    """Dual-route check on the bundled model: DP vs full enumeration."""
    g_pmfs = {g: group_pmf(six_cdf_model, g) for g in (1, 2, 3)}
    for seq in [(1,), (3,), (2, 3), (3, 3, 2), (1, 2, 3, 3)]:
        for eps in (0.01, 0.05, 0.3, 0.7):
            acc = RateAccumulator(six_cdf_model)
            for g in seq:
                acc.push_block(g)
            expected = enum_quantile([g_pmfs[g] for g in seq], eps)
            assert acc.rate_quantile(eps) == expected, (seq, eps)


def test_quantile_matches_enumeration_random_models():
    """Exact equality on random dyadic-entropy models, K <= 4."""
    rng = np.random.default_rng(123)
    for _ in range(20):
        model = random_dyadic_model(rng)
        K = int(rng.integers(1, 5))
        seq = [int(g) for g in rng.integers(1, model.m + 1, size=K)]
        eps = float(rng.choice([0.01, 0.05, 0.2, 0.5]))
        acc = RateAccumulator(model)
        for g in seq:
            acc.push_block(g)
        expected = enum_quantile([group_pmf(model, g) for g in seq], eps)
        assert acc.rate_quantile(eps) == expected, (seq, eps)


def test_tail_matches_enumeration(six_cdf_model):
    acc = RateAccumulator(six_cdf_model)
    seq = [2, 3, 3]
    for g in seq:
        acc.push_block(g)
    pmfs = [group_pmf(six_cdf_model, g) for g in seq]
    for thr in (11.9, 12.0, 13.5, 14.0, 18.0, 5.0):
        assert acc.tail_above(thr) == pytest.approx(enum_tail(pmfs, thr), abs=1e-12)


def test_quantile_monotone_in_pushes_and_epsilon(six_cdf_model):
    rng = np.random.default_rng(5)
    acc = RateAccumulator(six_cdf_model)
    prev = 0.0
    for _ in range(30):
        acc.push_block(int(rng.integers(1, 4)))
        q = acc.rate_quantile(0.1)
        assert q >= prev
        prev = q
        grid = [acc.rate_quantile(e) for e in (0.01, 0.05, 0.1, 0.3, 0.6, 0.9)]
        assert grid == sorted(grid, reverse=True)


@pytest.mark.parametrize("values", [
    (math.log2(3), math.log2(5) / 7),  # irrational-ish values
    (1.0, 3.000001),  # a common step of 1e-6 bit: finer than the coarse grid
], ids=["irrational", "fine-step"])
def test_coarse_mode_is_conservative(values):
    """Entropies without a common step of at least 1e-3 bit fall back to the
    round-up grid, whose kernels span no more cells than the grid needs."""
    model = SourceModel(tuple(CdfEntry(1, j, 0.5, h) for j, h in enumerate(values, 1)))
    acc = RateAccumulator(model)
    assert not acc.exact
    span = (max(values) - min(values)) / rate_mod.H_RES_COARSE + 2
    assert all(len(kernel.dense) <= span for kernel in acc._gpmf.values())
    for _ in range(3):
        acc.push_block(1)
    exact = enum_quantile([prior_pmf(model)] * 3, 0.2)
    got = acc.rate_quantile(0.2)
    assert exact <= got <= exact + 3 * 1e-3 + 1e-12


@settings(derandomize=True, max_examples=50, deadline=None, database=None)
@given(counts=st.lists(st.integers(0, 40), min_size=3, max_size=3).filter(any),
       epsilon=st.sampled_from([0.01, 1e-6]))
def test_coarse_twin_is_conservative_by_at_most_a_cell_a_block(counts, epsilon):
    """Adding 1e-7 bit to every demo entropy leaves no common step of 1e-3 bit,
    so the twin runs on the round-up grid.  Its sums are the demo's plus K*1e-7,
    and rounding up adds less than one 1e-3-bit cell a block: for any count of
    each group, K in all, the twin quantile lies in [exact + K*1e-7,
    exact + K*(1e-3 + 1e-7)]."""
    demo = demo_model()
    twin = SourceModel(tuple(CdfEntry(e.group, e.member, e.prob, e.cond_entropy + 1e-7)
                             for e in demo.entries))
    exact, coarse = RateAccumulator(demo), RateAccumulator(twin)
    assert exact.exact and not coarse.exact
    for g, count in enumerate(counts, 1):
        for _ in range(count):
            exact.push_block(g)
            coarse.push_block(g)
    K, q = sum(counts), exact.rate_quantile(epsilon)
    assert q + K * 1e-7 <= coarse.rate_quantile(epsilon) <= q + K * (1e-3 + 1e-7)


def test_k_c_examples(six_cdf_model):
    s = compute_stats(six_cdf_model)
    # c >= h_max decodes every block alone
    assert k_c(six_cdf_model, s.e_h / 0.5, 0.01) == 1
    assert k_c(six_cdf_model, 7.0, 0.3) == 1
    assert k_c(six_cdf_model, s.e_h / 0.75, 0.01) == 4


def test_k_c_single_entry(single_cdf_model):
    assert k_c(single_cdf_model, 4.0, 0.01) == 1


def test_k_c_rejects_overload(six_cdf_model):
    with pytest.raises(ModelError, match="no finite batch size"):
        k_c(six_cdf_model, 4.0, 0.01)


def test_k_c_is_the_simulated_batch_size_on_one_group_models():
    """On a one-group model every decoded we and wd batch has exactly k_c
    blocks, at c = h_max, just above it and below it: on the coarse grid,
    which rounds h_max up, c >= h_max does not make a batch one block."""
    rng = np.random.default_rng(61)
    models = [random_dyadic_model(rng, max_groups=1) for _ in range(4)]
    models += [random_offlattice_model(rng).collapse_marginals() for _ in range(4)]
    models.append(SourceModel((CdfEntry(1, 1, 0.5, 0.1234567), CdfEntry(1, 2, 0.5, 1.0000004))))
    eps, T = 0.05, 300
    below_h_max, above_h_max = set(), set()
    for i, model in enumerate(models):
        s = compute_stats(model)
        for c in (s.h_max, s.h_max + 1e-4, (s.e_h + s.h_max) / 2):
            if c <= s.e_h:  # a constant entropy: no channel rate above the mean
                continue
            kc = k_c(model, c, eps)
            if kc > T // 2:
                continue
            for res in simulate(model, ("we", "wd"), epsilon=eps, T=T, seed=i, c=c,
                                collect_batches=True):
                assert res.batches and (res.batch_log.k == kc).all(), (i, c, res.strategy)
            (above_h_max if c >= s.h_max else below_h_max).add(kc)
    assert above_h_max == {1, 2, 5}  # batches of 2 and 5 blocks on the coarse grid
    assert min(below_h_max) > 1


def test_k_c_definition_by_enumeration(six_cdf_model):
    """k_c is the smallest K whose enumerated tail above K*c is <= eps."""
    pm = prior_pmf(six_cdf_model)
    for eta, eps in ((0.25, 0.01), (0.25, 0.05), (0.18, 0.05)):
        c = 4.17 / (1 - eta)
        got = k_c(six_cdf_model, c, eps)
        assert enum_tail([pm] * got, got * c) <= eps
        if got > 1:
            assert enum_tail([pm] * (got - 1), (got - 1) * c) > eps


def test_chernoff_example(six_cdf_model):
    s = compute_stats(six_cdf_model)
    cher = k_c_chernoff(s, 0.5, 0.01)
    assert cher.value == pytest.approx(2.1529936651547135, abs=1e-12)
    assert cher.k_int == 3
    assert not cher.degenerate
    # the integer ceiling satisfies the defining exponential inequality
    c = s.e_h / 0.5
    expo = math.exp(
        -cher.k_int * 0.25 * c * c / (2 * (s.var_h + s.m_h * c * 0.5 / 3))
    )
    assert expo <= 0.01


def test_chernoff_degenerate_and_eps_one(single_cdf_model, six_cdf_model):
    s = compute_stats(single_cdf_model)
    cher = k_c_chernoff(s, 0.5, 0.01)
    assert cher == (0.0, 1, True)
    s6 = compute_stats(six_cdf_model)
    with pytest.raises(ValueError, match=r"epsilon must be in \(0, 1\), got 1.0"):
        k_c_chernoff(s6, 0.5, 1.0)


def test_k_c_below_chernoff_ceiling(six_cdf_model):
    s = compute_stats(six_cdf_model)
    for eta in (0.5, 0.25, 0.1):
        for eps in (0.01, 0.05, 0.2):
            c = s.e_h / (1 - eta)
            assert k_c(six_cdf_model, c, eps) <= k_c_chernoff(s, eta, eps).k_int


def _coarse_kernel(model: SourceModel, group: int) -> tuple[int, np.ndarray]:
    """Group pmf rounded up onto the 1e-3 grid, as (offset index, dense cells)."""
    vals, probs = model.conditional_pmf(group)
    idx = np.ceil(vals / 1e-3 - 1e-6).astype(np.int64)
    dense = np.zeros(int(idx.max() - idx.min()) + 1)
    np.add.at(dense, idx - idx.min(), probs)
    return int(idx.min()), dense


def test_atom_convolution_matches_dense_reference():
    """Sparse coarse kernels convolved over their atoms equal np.convolve."""
    rng = np.random.default_rng(2024)
    paths = set()
    for _ in range(6):
        model = random_offlattice_model(rng)
        acc = RateAccumulator(model)
        assert not acc.exact
        paths |= {k.atoms is None for k in acc._gpmf.values()}
        kernels = {g: _coarse_kernel(model, g) for g in range(1, model.m + 1)}
        K = int(rng.integers(1, 61))
        ref_off, ref = 0, np.ones(1)
        for g in rng.integers(1, model.m + 1, size=K):
            acc.push_block(int(g))
            off, dense = kernels[int(g)]
            ref_off, ref = ref_off + off, np.convolve(ref, dense)
        nz = np.flatnonzero(ref)
        support = (ref_off + nz) * 1e-3
        d = acc.distribution()
        np.testing.assert_array_equal(d.support, support)
        np.testing.assert_allclose(d.probs, ref[nz], rtol=0, atol=1e-15)

        c = compute_stats(model).e_h / (1 - float(rng.uniform(0.05, 0.5)))
        ref_tail = float(ref[nz][support > K * c].sum())
        tails = ref[nz][::-1].cumsum()[::-1] - ref[nz]
        for eps in (0.01, 0.1):
            assert (acc.tail_above(K * c) <= eps) == (ref_tail <= eps)
            assert acc.rate_quantile(eps) == support[np.argmax(tails <= eps)]
    assert paths == {True, False}  # both convolution paths were exercised


def test_atom_convolution_simulation_matches_dense(monkeypatch):
    """we/wd runs on an off-lattice model equal runs with dense kernels only."""
    model = random_offlattice_model(np.random.default_rng(7))
    runs = [dict(epsilon=0.01, T=200, seed=3, eta=eta) for eta in (0.5, 0.25)]
    got = [simulate(model, ("wd", "we"), **kw) for kw in runs]
    monkeypatch.setattr(rate_mod, "_CELLS_PER_ATOM", math.inf)
    assert all(k.atoms is None for k in RateAccumulator(model)._gpmf.values())
    assert got == [simulate(model, ("wd", "we"), **kw) for kw in runs]


def test_exact_lattice_push_matches_np_convolve_bytes():
    """A dense push is np.convolve byte for byte, both while the support is
    shorter than the kernel (the first push of a 3-cell or 24-cell kernel) and
    once it is longer (up to 200 pushes)."""
    for model in (demo_model(), random_dyadic_model(np.random.default_rng(1))):
        acc = RateAccumulator(model)
        assert acc.exact and all(k.atoms is None for k in acc._gpmf.values())
        groups = np.random.default_rng(5).integers(1, model.m + 1, size=200).tolist()
        longer = []
        for g in [model.m, *groups]:
            kernel = acc._gpmf[g].dense
            longer.append(len(acc._dense) >= len(kernel))
            expected = np.convolve(acc._dense, kernel)
            acc.push_block(g)
            assert acc._dense.tobytes() == expected.tobytes(), (model.m, acc.k)
        assert len(acc._gpmf[model.m].dense) >= 3
        assert not longer[0] and longer[-1]


# ---------------------------------------------------------------------------
# the certified stop test and the quantile scan
# ---------------------------------------------------------------------------

# model makers of one rng: the demo and random dyadic models are exact, the
# random off-lattice models coarse
_MODELS = {"demo": lambda rng: demo_model(), "dyadic": random_dyadic_model,
           "offlattice": random_offlattice_model}


def _random_accumulator(seed: int, kind: str, groups: list[int]) -> RateAccumulator:
    """An accumulator of a ``_MODELS`` model, pushed with ``groups`` taken modulo
    the model's group count."""
    model = _MODELS[kind](np.random.default_rng(seed))
    acc = RateAccumulator(model)
    for g in groups:
        acc.push_block(g % model.m + 1)
    return acc


def test_tail_exceeds_equals_the_summed_test():
    """tail_exceeds(x, eps) is tail_above(x) > eps for thresholds on a cell (among
    them each quantile, where the answer turns, and the cell under the top one,
    whose test reads the last cell), between cells, below the support and above
    it, through both branches."""
    summed = set()

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(sorted(_MODELS)),
           groups=st.lists(st.integers(0, 15), min_size=1, max_size=40), data=st.data())
    def check(seed, kind, groups, data):
        acc = _random_accumulator(seed, kind, groups)
        support = acc.distribution().support.tolist()
        lo, hi = support[0], support[-1]
        x = data.draw(st.one_of(
            st.sampled_from(support),
            st.sampled_from([*(acc.rate_quantile(eps) for eps in (0.5, 0.01, 1e-6)),
                             support[-2 if len(support) > 1 else -1]]),
            st.floats(lo, hi),
            st.floats(lo - 5.0, lo, exclude_max=True),
            st.floats(hi, hi + 5.0, exclude_min=True)), label="threshold")
        tail_above = acc.tail_above
        calls = []
        acc.tail_above = lambda threshold: calls.append(threshold) or tail_above(threshold)
        for eps in (0.5, 0.01, 1e-6):
            calls.clear()
            assert acc.tail_exceeds(x, eps) == (tail_above(x) > eps), (x, eps)
            summed.add(bool(calls))

    check()
    assert summed == {True, False}  # certified without a sum, and summed


def test_stop_tests_rarely_sum(six_cdf_model, monkeypatch):
    """On the demo at eta = 0.05 most stop tests are certified by one cell: at
    most 700 of the 4 173 reach the sum."""
    tests, sums = [], []
    exceeds, above = RateAccumulator.tail_exceeds, RateAccumulator.tail_above
    monkeypatch.setattr(RateAccumulator, "tail_exceeds",
                        lambda self, x, eps: tests.append(x) or exceeds(self, x, eps))
    monkeypatch.setattr(RateAccumulator, "tail_above",
                        lambda self, x: sums.append(x) or above(self, x))
    c = compute_stats(six_cdf_model).e_h / (1 - 0.05)
    _segment(sample_trace(six_cdf_model, 10_000, 11), six_cdf_model, c=c, epsilon=0.01)
    assert len(tests) == 4173
    assert len(sums) <= 700


def _quantile_by_tails(acc: RateAccumulator, epsilon: float) -> float:
    """The quantile from every support point's strict tail, summed down from the top."""
    dense = acc._dense
    tails = np.zeros(len(dense))
    np.cumsum(dense[:0:-1], out=tails[-2::-1])
    nz = np.flatnonzero(dense)
    ok = nz[tails[nz] <= epsilon]
    return float((acc._off + int(ok[0])) * acc._step)


def test_quantile_equals_the_tail_table():
    """rate_quantile equals the tail-table formulation bit for bit, on exact and
    coarse accumulators, and on cells whose lowest one is empty (as underflow
    can leave it) while the tail above it is already within epsilon."""
    rng = np.random.default_rng(21)
    accs = []
    for i in range(40):
        groups = rng.integers(0, 16, size=int(rng.integers(1, 120))).tolist()
        kind = sorted(_MODELS)[i % 3]
        accs.append(_random_accumulator(int(rng.integers(2**32)), kind, groups))
    emptied = RateAccumulator(demo_model()).push_block(2)
    emptied._dense = np.array([0.0, 0.0, 0.25, 0.0, 0.5])
    accs.append(emptied)
    for i, acc in enumerate(accs):
        for eps in (0.5, 0.01, 1e-6, 1e-17, 1e-30, 0.8):
            assert acc.rate_quantile(eps) == _quantile_by_tails(acc, eps), (i, eps)
    assert emptied.rate_quantile(0.8) == 5.0  # cell 2 on the offset of 3


def test_point_mass_push_only_shifts(six_cdf_model):
    """Demo group 1 is one entry: its push moves the offset and keeps the cells."""
    acc = RateAccumulator(six_cdf_model).push_block(3)
    cells = acc._dense
    assert acc._gpmf[1].rev is None
    acc.push_block(1)
    assert acc._dense is cells
    assert acc.distribution().support.tolist() == [6.0, 7.0, 8.0]
