import math

import numpy as np
import pytest

from swdelay import rate as rate_mod
from swdelay import (
    CdfEntry,
    ModelError,
    RateAccumulator,
    SourceModel,
    compute_stats,
    k_c,
    k_c_chernoff,
    rate_unconditional,
)
from swdelay.strategies import simulate

from conftest import enum_quantile, enum_tail, group_pmf, prior_pmf, random_dyadic_model


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
    assert k_c_chernoff(s6, 0.5, 1.0).value == 0.0


def test_k_c_below_chernoff_ceiling(six_cdf_model):
    s = compute_stats(six_cdf_model)
    for eta in (0.5, 0.25, 0.1):
        for eps in (0.01, 0.05, 0.2):
            c = s.e_h / (1 - eta)
            assert k_c(six_cdf_model, c, eps) <= k_c_chernoff(s, eta, eps).k_int


def _random_offlattice_model(rng: np.random.Generator) -> SourceModel:
    """Several groups of 1-16 members with uniform random entropies in [0, 1).

    The first group has one member, so its one-cell kernel keeps np.convolve.
    """
    sizes = rng.integers(1, 17, size=int(rng.integers(2, 5)))
    sizes[0] = 1
    weights = rng.random(int(sizes.sum())) + 0.05
    weights /= weights.sum()
    entries = []
    pos = 0
    for g, size in enumerate(sizes, start=1):
        for j in range(1, int(size) + 1):
            entries.append(CdfEntry(g, j, float(weights[pos]), float(rng.random())))
            pos += 1
    return SourceModel(tuple(entries))


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
        model = _random_offlattice_model(rng)
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
    model = _random_offlattice_model(np.random.default_rng(7))
    runs = [dict(epsilon=0.01, T=200, seed=3, eta=eta) for eta in (0.5, 0.25)]
    got = [simulate(model, ("wd", "we"), **kw) for kw in runs]
    monkeypatch.setattr(rate_mod, "_CELLS_PER_ATOM", math.inf)
    assert all(k.atoms is None for k in RateAccumulator(model)._gpmf.values())
    assert got == [simulate(model, ("wd", "we"), **kw) for kw in runs]
