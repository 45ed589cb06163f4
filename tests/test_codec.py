import itertools
import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, given, settings, strategies as st

from codec_oracle import ExactCodec, Laws, typical
from swdelay import (
    CdfEntry,
    Codebook,
    ModelError,
    SourceModel,
    bsc_pair_model,
    run_codec_trials,
)
from swdelay import codec
from swdelay.codec import CodecTrialReport, encode, jointly_typical
from swdelay.entropy import cond_entropy_x_given_y_bits


def _uniform_pair_entry() -> CdfEntry:
    # independent uniform X and Y
    return CdfEntry(1, 1, 1.0, 1.0, np.full((2, 2), 0.25))


def _identity_pair_model(p1=0.7) -> SourceModel:
    """Two same-marginal members: Y = X and Y = NOT X, both zero H(X|Y)."""
    eq = np.array([[0.5, 0.0], [0.0, 0.5]])
    ne = np.array([[0.0, 0.5], [0.5, 0.0]])
    return SourceModel((CdfEntry(1, 1, p1, 0.0, eq), CdfEntry(1, 2, 1 - p1, 0.0, ne)))


def _uniform_model(ax, ay, groups=1) -> SourceModel:
    """Independent uniform X and Y on ax x ay symbols in each of ``groups`` groups."""
    pmf = np.full((ax, ay), 1 / (ax * ay))
    return SourceModel(tuple(CdfEntry(g, 1, 1 / groups, cond_entropy_x_given_y_bits(pmf), pmf)
                             for g in range(1, groups + 1)))


def test_codebook_guards():
    Codebook(bsc_pair_model(0.1), (1,), n=12, delta=0.5)
    with pytest.raises(ValueError):
        Codebook(_uniform_model(5, 2), (1,), n=4, delta=0.5)
    with pytest.raises(ValueError):
        Codebook(bsc_pair_model(0.1), (1,), n=17, delta=0.5)
    with pytest.raises(ValueError):
        Codebook(bsc_pair_model(0.1), (1, 1, 1), n=4, delta=0.5)
    with pytest.raises(ValueError):
        Codebook(bsc_pair_model(0.1), (1,), n=4, delta=0.0)
    with pytest.raises(ValueError):
        Codebook(bsc_pair_model(0.1), (1,), n=4, delta=0.5).bins(-1.0)
    with pytest.raises(ValueError):
        Codebook(_uniform_model(4, 4), (1, 1), n=16, delta=0.5)  # 4**32 sequences
    # every stage seed (seed + 1 .. seed + K when sequential) must fit a uint64
    for blocks, seed in ((1, -1), (2, 2 ** 64 - 2), (1, 2 ** 64)):
        with pytest.raises(ValueError, match=f"^seed must be between 0 and {2 ** 64 - 1 - blocks}, "
                                             f"got {seed}$"):
            Codebook(bsc_pair_model(0.1), (1,) * blocks, n=4, delta=0.5, seed=seed)
    top = dict(n=4, delta=0.5, seed=2 ** 64 - 2)
    for kind in ("batch", "sequential"):
        book = Codebook(bsc_pair_model(0.1), (1,), **top, kind=kind)
        assert book.bins(2.0) < book.total
        assert 1 <= np.min(encode(book, [0, 1, 1, 0], 2.0)) <= book.bins(2.0)  # X uniform: typical


def test_codebook_checks_n_and_delta_first():
    """n, then delta, are refused before K, the groups, the alphabets, the
    sequence guard, the kind and the seed, each with its own message."""
    no_pmf = SourceModel((CdfEntry(1, 1, 1.0, 1.0),))
    bad = dict(kind="stream", seed=-1)
    with pytest.raises(ValueError, match="^block length n must be between 1 and 16, got 17$"):
        Codebook(no_pmf, (1, 1, 1), n=17, delta=0.0, **bad)
    with pytest.raises(ValueError, match="^delta must be positive and finite, got inf$"):
        Codebook(no_pmf, (1, 1, 1), n=16, delta=float("inf"), **bad)
    with pytest.raises(ValueError, match="^block count K must be 1 or 2$"):
        Codebook(no_pmf, (1, 1, 1), n=16, delta=0.5, **bad)
    with pytest.raises(ModelError, match=r"^cdf \(1,1\) has no joint pmf$"):
        Codebook(no_pmf, (1, 1), n=16, delta=0.5, **bad)
    with pytest.raises(ValueError, match="exceeds the exhaustive-decoding guard"):
        Codebook(bsc_pair_model(0.1), (1, 1), n=16, delta=0.5, **bad)
    with pytest.raises(ValueError, match="^kind must be"):
        Codebook(bsc_pair_model(0.1), (1, 1), n=8, delta=0.5, **bad)
    with pytest.raises(ValueError, match=f"^seed must be between 0 and {2 ** 64 - 3}, got -1$"):
        Codebook(bsc_pair_model(0.1), (1, 1), n=8, delta=0.5, seed=-1)


def test_codebook_and_trials_refuse_counts_that_are_not_integers():
    """n, the seed, the group indices, the trial count and the trial seed
    are Python or numpy integers, not bools or floats; each refusal names the
    argument."""
    model = bsc_pair_model(0.1)
    for bad, message in ((dict(n=2.5), "block length n must be an integer, got 2.5"),
                         (dict(n=True), "block length n must be an integer, got True"),
                         (dict(seed=1.5), "seed must be an integer, got 1.5"),
                         (dict(seed=True), "seed must be an integer, got True")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Codebook(model, (1,), **{"n": 4, "delta": 0.5, **bad})
    for groups in ((1.5,), (True,)):
        with pytest.raises(ValueError, match=f"^group index must be an integer, got {groups[0]}$"):
            Codebook(model, groups, n=4, delta=0.5)
    book = Codebook(model, (1,), n=4, delta=0.5)
    for bad, message in ((dict(trials=2.5), "trials must be an integer, got 2.5"),
                         (dict(trials=True), "trials must be an integer, got True"),
                         (dict(trials=-1), "trials must be >= 0, got -1"),
                         (dict(seed=1.5), "trial seed must be an integer, got 1.5"),
                         (dict(seed=True), "trial seed must be an integer, got True"),
                         (dict(seed=-1), "trial seed must be >= 0, got -1")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_codec_trials(book, 2.0, **{"trials": 10, "seed": 0, **bad})
    numpy = Codebook(model, (np.int64(1),), n=np.int64(4), delta=0.5, seed=np.uint64(3))
    assert (run_codec_trials(numpy, 2.0, trials=np.int32(50), seed=np.int64(7))
            == run_codec_trials(Codebook(model, (1,), n=4, delta=0.5, seed=3), 2.0,
                                trials=50, seed=7))


def test_codebook_takes_its_settings_by_keyword():
    """n, delta, the seed and the kind are keywords: settings given by
    position, or a config object in the groups' place, are refused."""
    with pytest.raises(TypeError):
        Codebook(bsc_pair_model(0.1), (1,), 12, 0.5)
    with pytest.raises(TypeError):
        Codebook(bsc_pair_model(0.1), (1,), n=12, delta=0.5, seed=0, kind="batch", rate=10.0)
    with pytest.raises(TypeError):
        Codebook(bsc_pair_model(0.1), (1,))


def test_codebook_takes_k_and_alphabets_from_the_groups():
    """K is the number of observed groups and the alphabets the shape of their
    pmfs; groups whose pmfs differ in shape are refused."""
    book = Codebook(_uniform_model(3, 2, groups=2), (2, 1), n=2, delta=0.5)
    assert (book.blocks, book.alphabet_x, book.alphabet_y, book.total) == (2, 3, 2, 3 ** 4)
    pmfs = (np.full((2, 2), 0.25), np.full((2, 3), 1 / 6))
    mixed = SourceModel(tuple(CdfEntry(g, 1, 0.5, cond_entropy_x_given_y_bits(p), p)
                              for g, p in enumerate(pmfs, start=1)))
    Codebook(mixed, (2, 2), n=2, delta=0.5)
    with pytest.raises(ModelError, match="differ in shape"):
        Codebook(mixed, (1, 2), n=2, delta=0.5)


def test_codebook_refuses_what_it_cannot_bin():
    """A group without joint pmfs, an unknown kind and a sequence of the
    wrong length are refused with their own messages."""
    with pytest.raises(ModelError, match=r"^cdf \(1,1\) has no joint pmf$"):
        Codebook(SourceModel((CdfEntry(1, 1, 1.0, 1.0),)), (1,), n=2, delta=0.5)
    with pytest.raises(ValueError, match="^kind must be 'batch' or 'sequential'$"):
        Codebook(bsc_pair_model(0.1), (1,), n=2, delta=0.5, kind="stream")
    book = Codebook(bsc_pair_model(0.1), (1,), n=4, delta=0.5)
    with pytest.raises(ValueError, match=r"^sequence length 3 does not match K\*n = 4$"):
        encode(book, [0, 1, 1], 2.0)


def _x_typical(x_blocks, entries, delta) -> bool:
    """X-typicality of x under the cdfs, one per block; the oracle and
    ``codec._typical`` must agree on it."""
    law = Laws(entries)
    ll = law.ll_x(np.asarray(x_blocks).reshape(len(entries), -1))
    got = bool(typical(ll, law.h_x, delta))
    assert bool(codec._typical(ll, law.h_x, delta)) == got
    return got


def test_uniform_source_always_typical():
    e = _uniform_pair_entry()
    for seq in ([0, 0, 0, 0], [1, 0, 1, 1]):
        assert _x_typical(seq, [e], delta=1e-9)


def test_deterministic_source_zero_prob_symbol():
    pmf = np.array([[0.5, 0.5], [0.0, 0.0]])  # P(x=0) = 1
    e = CdfEntry(1, 1, 1.0, 0.0, pmf / pmf.sum())
    assert _x_typical([0, 0, 0, 0], [e], delta=0.5)
    assert not _x_typical([0, 0, 0, 1], [e], delta=0.5)


def test_biased_source_hand_deviation():
    # P(x=1) = 0.25, all-zeros sequence of n = 12:
    # deviation = |-log2(0.75) - H_b(0.25)| = 0.396..., so delta 0.1 rejects
    pmf = np.array([[0.375, 0.375], [0.125, 0.125]])
    e = CdfEntry(1, 1, 1.0, 0.8112781244591328, pmf)
    zeros = [0] * 12
    assert not _x_typical(zeros, [e], delta=0.1)
    assert _x_typical(zeros, [e], delta=0.396240625180289 + 1e-9)


def test_jointly_typical_identity_pair():
    eq = np.array([[0.5, 0.0], [0.0, 0.5]])
    e = CdfEntry(1, 1, 1.0, 0.0, eq)
    x = [0, 1, 1, 0]
    assert jointly_typical(x, x, [e], delta=1e-9)
    assert not jointly_typical(x, [0, 1, 1, 1], [e], delta=0.5)


def test_encode_injective_and_deterministic():
    model = bsc_pair_model(0.1)
    cfg = dict(n=8, delta=3.0, seed=7)
    book = Codebook(model, (1,), **cfg)
    assert book.bins(8.0) >= book.total
    xs = [np.array([i >> k & 1 for k in range(8)]) for i in range(40)]
    bins = [encode(book, x, 8.0) for x in xs]
    assert len(set(bins)) == len(bins)
    again = Codebook(model, (1,), **cfg)
    assert bins == [encode(again, x, 8.0) for x in xs]


def test_encode_atypical_goes_to_bin_one():
    pmf = np.array([[0.5, 0.5], [0.0, 0.0]])
    model = SourceModel((CdfEntry(1, 1, 1.0, 0.0, pmf),))
    cfg = dict(n=4, delta=0.5, seed=1)
    book = Codebook(model, (1,), **cfg)
    bins = book.bins(4.0)
    assert encode(book, [0, 0, 0, 1], 4.0) == 1
    assert book._bins_of(np.array([1]), bins)[0, 0] == 2  # its raw bin: the rate is injective
    assert encode(book, [0, 0, 0, 0], 4.0) == book._bins_of(np.array([0]), bins)[0, 0]


def test_bin_uniformity_chi_square():
    model = bsc_pair_model(0.1)
    cfg = dict(n=12, delta=0.5, seed=3)
    book = Codebook(model, (1,), **cfg)
    assert book.bins(5.0) < book.total
    bins = [encode(book, seq, 5.0) for seq in itertools.product((0, 1), repeat=12)]  # all typical
    counts = np.bincount(np.asarray(bins) - 1, minlength=book.bins(5.0))
    assert counts.sum() == 4096
    _, pvalue = scipy.stats.chisquare(counts)
    assert pvalue > 0.001


def test_decode_exact_at_injective_rate_exhaustive():
    """An injective codebook at a delta wide enough that every pair is
    jointly typical decodes every trial; 2000 trials draw all 64 x."""
    cfg = dict(n=6, delta=3.0, seed=5)
    book = Codebook(bsc_pair_model(0.1), (1,), **cfg)
    assert book.bins(6.0) >= book.total
    assert run_codec_trials(book, 6.0, trials=2000, seed=0) == CodecTrialReport(2000, 0, 0, 0, 0)
    assert len(np.unique(book.draw(2000, 0)[0])) == 64


def test_decode_posterior_argmax_and_tiebreak():
    """The oracle by hand, for y = [0, 1] in one bin: the higher-prior member
    wins (Y = X explains x = y, Y = NOT X explains x = 1 - y), and on an exact
    tie the smallest sequence index.  ``_reference_cases`` holds these three
    codebooks, so ``run_codec_trials`` decodes as the oracle does."""
    cfg = dict(n=2, delta=1e-6, seed=2)
    for prior, decoded in ((0.7, [0, 1]), (0.3, [1, 0]), (0.5, [0, 1])):
        model = _identity_pair_model(prior)
        oracle = ExactCodec(model, (1,), Codebook(model, (1,), **cfg), 0.0)
        won = oracle.decode((1,), [[0, 1]])[0]
        assert oracle.seqs[won].ravel().tolist() == decoded, prior


def test_decode_failure_is_a_value():
    """P(x=1) = 0.7, n = 3 and delta 0.01: no sequence is typical, so no
    message has a candidate, and every trial counts as a source error."""
    pmf = np.array([[0.15, 0.15], [0.35, 0.35]])
    model = SourceModel((CdfEntry(1, 1, 1.0, cond_entropy_x_given_y_bits(pmf), pmf),))
    book = Codebook(model, (1,), n=3, delta=0.01, seed=1)
    assert len(book.typical) == 0
    assert run_codec_trials(book, 2.0, trials=200, seed=4) == CodecTrialReport(200, 200, 200, 0, 0)


def test_trials_identical_sources_never_err():
    x_is_y = np.array([[0.5, 0.0], [0.0, 0.5]])
    model = SourceModel((CdfEntry(1, 1, 1.0, 0.0, x_is_y),))
    cfg = dict(n=8, delta=0.5, seed=4)
    report = run_codec_trials(Codebook(model, (1,), **cfg), 0.0, trials=200, seed=9)
    assert report.errors == 0
    assert (report.eps1, report.eps2, report.eps3) == (0, 0, 0)


def test_trials_false_hypothesis_collisions():
    """With ambiguous members the wrong-posterior pick shows up as eps3."""
    model = _identity_pair_model(0.7)
    cfg = dict(n=6, delta=0.25, seed=4)
    report = run_codec_trials(Codebook(model, (1,), **cfg), 0.0, trials=400, seed=9)
    # errors happen exactly when the low-prior member was the truth
    assert report.err_rate == pytest.approx(0.3, abs=0.08)
    assert report.eps1 == 0 and report.eps2 == 0
    assert report.eps3 == report.errors


def test_trials_single_bin_collisions_dominate():
    model = bsc_pair_model(0.1)
    cfg = dict(n=8, delta=0.6, seed=6)
    report = run_codec_trials(Codebook(model, (1,), **cfg), 0.0, trials=300, seed=1)
    assert report.err_rate > 0.5
    assert report.eps2 > report.eps1
    assert report.eps2 + report.eps3 >= report.errors - report.eps1


def test_trials_tiny_delta_atypicality_dominates():
    model = bsc_pair_model(0.1)
    cfg = dict(n=8, delta=0.01, seed=6)
    report = run_codec_trials(Codebook(model, (1,), **cfg), 8.0, trials=300, seed=1)
    assert report.eps1 == report.errors > 0


def test_error_monotone_in_rate():
    model = bsc_pair_model(0.1)
    rates = [2.0, 4.0, 6.0, 8.0, 10.0]
    mean_err = []
    for rate in rates:
        errs = []
        for seed in range(10):
            cfg = dict(n=10, delta=0.5, seed=seed)
            errs.append(run_codec_trials(Codebook(model, (1,), **cfg), rate, trials=60,
                                         seed=100 + seed).err_rate)
        mean_err.append(float(np.mean(errs)))
    assert all(a >= b - 1e-12 for a, b in zip(mean_err, mean_err[1:]))


def test_sequential_kind_roundtrip():
    model = bsc_pair_model(0.1)
    cfg = dict(n=4, delta=3.0, seed=8)
    book = Codebook(model, (1, 1), **cfg, kind="sequential")
    assert book.bins(16.0) >= book.total
    bins = encode(book, [[0, 1, 1, 0], [1, 0, 0, 1]], 16.0)
    assert isinstance(bins, tuple) and len(bins) == 2
    assert run_codec_trials(book, 16.0, trials=500, seed=2) == CodecTrialReport(500, 0, 0, 0, 0)


def test_sequential_hashed_trials():
    model = bsc_pair_model(0.05)
    cfg = dict(n=5, delta=0.8, seed=8)
    report = run_codec_trials(Codebook(model, (1, 1), **cfg, kind="sequential"), 9.0,
                              trials=150, seed=3)
    assert 0 <= report.err_rate < 1.0
    assert report.eps1 + report.eps2 + report.eps3 == report.errors


def test_trials_count_an_atypical_stage_prefix_as_eps1():
    """The sequential encoder sends bin 1 for a stage whose prefix is
    atypical; with an injective codebook no bin collides, so every error is
    the source's (eps1), even when the whole sequence is typical."""
    pmf = np.array([[0.6, 0.1], [0.05, 0.25]])
    model = SourceModel((CdfEntry(1, 1, 1.0, cond_entropy_x_given_y_bits(pmf), pmf),))
    cfg = dict(n=4, delta=0.3, seed=1)
    book = Codebook(model, (1, 1), **cfg, kind="sequential")
    assert book.bins(16.0) >= book.total
    report = run_codec_trials(book, 16.0, trials=2000, seed=3)
    assert report == CodecTrialReport(2000, errors=987, eps1=987, eps2=0, eps3=0)


# ---------------------------------------------------------------------------
# reference: the exact decoder of codec_oracle on the codebook's own draw
# ---------------------------------------------------------------------------

def _shared_marginal_model(rng, ax, ay, groups, members) -> SourceModel:
    """Random model whose members share their group's X and Y marginals
    (and may have zero cells)."""
    entries = []
    prior = rng.dirichlet(np.ones(groups * members))
    for g in range(groups):
        base = np.outer(rng.dirichlet(np.ones(ax)), rng.dirichlet(np.ones(ay)))
        for j in range(members):
            i0, i1 = rng.choice(ax, 2, replace=False)
            j0, j1 = rng.choice(ay, 2, replace=False)
            move = np.zeros((ax, ay))
            move[i0, j0] = move[i1, j1] = 1.0
            move[i0, j1] = move[i1, j0] = -1.0
            lo, hi = -min(base[i0, j0], base[i1, j1]), min(base[i0, j1], base[i1, j0])
            pmf = np.clip(base + rng.choice([lo, hi, rng.uniform(lo, hi)]) * move, 0, None)
            pmf = pmf / pmf.sum()
            entries.append(CdfEntry(g + 1, j + 1, float(prior[g * members + j]),
                                    cond_entropy_x_given_y_bits(pmf), pmf))
    return SourceModel(tuple(entries))


def _exact_replay(model, groups, cfg, rate, kind, trials,
                  seed) -> tuple[CodecTrialReport, int]:
    """The oracle's report on the draw of a codebook of its own, and how many
    of its decodes found no candidate with a positive posterior."""
    book = Codebook(model, groups, **cfg, kind=kind)
    return ExactCodec(model, groups, book, rate).replay(trials, seed)


def _reference_cases():
    rng = np.random.default_rng(2024)
    cases = []
    for i in range(14):
        ax, ay = (int(a) for a in rng.choice([2, 3], 2))
        K = 1 + i % 2
        width = int(rng.integers(2, (7 if ax == 2 else 5) + 1))
        n = max(1, width // K)
        G, M = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        model = _shared_marginal_model(rng, ax, ay, G, M)
        full = n * K * np.log2(ax)
        rate = [0.0, full * K, float(rng.uniform(0, full))][i % 3]  # all, injective, hashed
        cfg = dict(n=n, delta=float(rng.choice([0.4, 0.8, 1.5])), seed=int(rng.integers(0, 50)))
        groups = tuple(int(g) for g in rng.integers(1, G + 1, size=K))
        cases.append((model, groups, cfg, rate, ("batch", "sequential")[i // 2 % 2]))
    # no sequence is typical: P(x=1) = 0.7, n = 3 and delta 0.01
    pmf = np.array([[0.15, 0.15], [0.35, 0.35]])
    model = SourceModel((CdfEntry(1, 1, 1.0, cond_entropy_x_given_y_bits(pmf), pmf),))
    cases.append((model, (1,), dict(n=3, delta=0.01, seed=1), 2.0, "batch"))
    # two uniform-marginal members the decoder tells apart by typicality alone:
    # some errors collide only under the false one (eps3)
    cases.append((uniform_marginal_pair_model(), (1,), dict(n=6, delta=0.5, seed=3), 4.0,
                  "batch"))
    # Y = X and Y = NOT X at priors 0.7, 0.3 and 0.5, one bin: the posterior
    # argmax, and on the exact tie the smallest index
    cases += [(_identity_pair_model(p), (1,), dict(n=2, delta=1e-6, seed=2), 0.0, "batch")
              for p in (0.7, 0.3, 0.5)]
    return cases


def uniform_marginal_pair_model() -> SourceModel:
    """One group of two binary members with uniform marginals, the
    benchmark's codec model."""
    pmfs = (np.array([[0.45, 0.05], [0.05, 0.45]]), np.full((2, 2), 0.25))
    return SourceModel(tuple(CdfEntry(1, j, 0.5, cond_entropy_x_given_y_bits(p), p)
                             for j, p in enumerate(pmfs, start=1)))


def test_trials_match_one_at_a_time_reference():
    totals = np.zeros(4, dtype=int)
    for i, (model, groups, cfg, rate, kind) in enumerate(_reference_cases()):
        report = run_codec_trials(Codebook(model, groups, **cfg, kind=kind), rate,
                                  trials=60, seed=i)
        expected, undecoded = _exact_replay(model, groups, cfg, rate, kind, 60, i)
        assert report == expected, (i, cfg, rate, kind)
        totals += (undecoded, report.eps1, report.eps2, report.eps3)
    assert np.all(totals > 0), totals  # every error event occurs somewhere


def _same_bits(hyp, laws) -> bool:
    return all(getattr(hyp, a).shape == getattr(laws, a).shape
               and getattr(hyp, a).tobytes() == getattr(laws, a).tobytes()
               for a in ("log_x", "log_y", "log_xy", "h_x", "h_y", "h_xy"))


@pytest.mark.parametrize("K", [1, 2])
def test_hypotheses_have_the_per_table_bits(K):
    """A hypothesis, built on the stack of its blocks' pmfs, has the bits of
    the oracle's table-by-table marginals, logs and cumulative entropies: on
    random pmfs with empty cells of every shape from 1x1 to 4x4, and on every
    hypothesis of the reference cases, whose X marginals are the first one.
    The codebook's stage typicality table and X-typical set are the oracle's."""
    rng = np.random.default_rng(K)
    for ax, ay in itertools.product(range(1, 5), repeat=2):
        for _ in range(5):
            flat = rng.dirichlet(np.full(ax * ay, 0.5), size=K)
            flat[:, 1:][rng.random((K, ax * ay - 1)) < 0.4] = 0.0
            pmfs = (flat / flat.sum(axis=1, keepdims=True)).reshape(K, ax, ay)
            entries = [CdfEntry(k + 1, 1, 1 / K, cond_entropy_x_given_y_bits(p), p)
                       for k, p in enumerate(pmfs)]
            assert _same_bits(codec._Hypothesis(entries), Laws(entries)), (ax, ay)
    for model, groups, cfg, rate, kind in _reference_cases():
        if len(groups) != K:
            continue
        book = Codebook(model, groups, **cfg, kind=kind)
        assert _same_bits(book.hypotheses[0][0],
                          Laws([model.group_entries(g)[0] for g in groups]))
        stages = ExactCodec(model, groups, book, rate).stages
        assert np.array_equal(book.stage_typical, stages)
        assert np.array_equal(book.typical, np.flatnonzero(stages[:, -1]))
        members = [model.group_entries(g) for g in groups]
        for (hyp, _), combo in zip(book.hypotheses, itertools.product(*members), strict=True):
            assert _same_bits(hyp, Laws(combo))


def test_draw_is_a_choice_per_block():
    """``Codebook.draw`` gives each trial's x, y and true hypothesis as one
    ``Generator.choice`` call per block would: the member, then its n pairs."""
    for i, (model, groups, cfg, _, kind) in enumerate(_reference_cases()):
        book = Codebook(model, groups, **cfg, kind=kind)
        index, y, true_hyp = book.draw(40, i)[:3]
        member_lists = [model.group_entries(g) for g in groups]
        rng = np.random.default_rng(i)
        for t in range(40):
            xs, ys, members = [], [], []
            for mem in member_lists:
                probs = np.array([e.prob for e in mem])
                members.append(rng.choice(len(mem), p=probs / probs.sum()))
                pmf = mem[members[-1]].joint_pmf
                flat = rng.choice(pmf.size, size=cfg["n"], p=pmf.ravel() / pmf.sum())
                xs.append(flat // book.alphabet_y)
                ys.append(flat % book.alphabet_y)
            x = np.ravel(xs)
            assert index[t] == np.ravel_multi_index(tuple(x), (book.alphabet_x,) * x.size)
            assert np.array_equal(y[t], ys), (i, t)
            assert true_hyp[t] == np.ravel_multi_index(members, [len(m) for m in member_lists])


def test_codebooks_of_one_command_match_the_reference_at_every_rate():
    """One codebook runs at every rate on one sequence table, X-typical set,
    hypotheses and trial draw; at each rate, in any order and repeated, its
    trials equal the one-at-a-time replay of a fresh codebook at that rate,
    decoded by the oracle.  A draw of other trials replaces the kept one."""
    rng = np.random.default_rng(7)
    cases = _reference_cases() + [  # the last one is the benchmark's model, batch
        (uniform_marginal_pair_model(), (1, 1), dict(n=3, delta=0.5, seed=3), 0.0, "sequential")]
    for i, (model, groups, cfg, _, kind) in enumerate(cases):
        book = Codebook(model, groups, **cfg, kind=kind)
        K = len(book.ends)
        # two hashed rates of 2 .. total - 1 bins a stage, 0, an injective rate
        hashed = [K * float(np.log2(b)) for b in rng.integers(2, book.total, 2)]
        rates = [hashed[0], 0.0, K * float(np.log2(book.total)), hashed[1], hashed[0]]
        expected = {}
        for rate in rates:  # on a codebook that has run its trials at the rates before
            bins = book.bins(rate)
            assert (bins >= book.total) == (rate == rates[2]) and (bins == 1) == (rate == 0)
            if rate not in expected:
                expected[rate] = _exact_replay(model, groups, cfg, rate, kind, 40, i)[0]
            assert run_codec_trials(book, rate, trials=40, seed=i) == expected[rate], (i, rate)
        assert (run_codec_trials(book, rate, trials=30, seed=i)
                == _exact_replay(model, groups, cfg, rate, kind, 30, i)[0]), i


@pytest.mark.parametrize("cells", [1, 10**12])
def test_trials_independent_of_chunking(monkeypatch, cells):
    """At 64 candidates of 12 cells per trial the default chunk holds about
    85 trials; one cell per chunk means one trial per chunk."""
    model = bsc_pair_model(0.1)
    cfg = dict(n=12, delta=0.5, seed=2)
    default = run_codec_trials(Codebook(model, (1,), **cfg), 6.0, trials=200, seed=5)
    assert default == _exact_replay(model, (1,), cfg, 6.0, "batch", 200, 5)[0]
    monkeypatch.setattr(codec, "_CHUNK_CELLS", cells)
    assert run_codec_trials(Codebook(model, (1,), **cfg), 6.0, trials=200, seed=5) == default


def test_typicality_adds_block_sums_in_order():
    """Deviations add per-block log-likelihood sums block by block; a sum over
    the whole width can differ in the last bit, which decides a pair lying
    exactly on the delta boundary."""
    rng = np.random.default_rng(11)
    entries = [CdfEntry(1, 1, 1.0, 0.5, np.array([[a, 0.5 - a], [0.5 - a, a]]))
               for a in (0.41, 0.07)]  # uniform marginals: X and Y deviations are 0
    logs = [np.log2(e.joint_pmf) for e in entries]
    h = sum(-(e.joint_pmf * lg).sum() for e, lg in zip(entries, logs))
    for _ in range(1000):
        x, y = rng.integers(0, 2, (2, 16)), rng.integers(0, 2, (2, 16))
        blocks = [lg[xk, yk] for lg, xk, yk in zip(logs, x, y)]
        dev = abs(-(float(blocks[0].sum()) + float(blocks[1].sum())) / 32 - h / 2)
        whole = abs(-float(np.concatenate(blocks).sum()) / 32 - h / 2)
        delta = dev - codec._TYP_TOL
        while np.nextafter(delta, 0) + codec._TYP_TOL >= dev:
            delta = np.nextafter(delta, 0)
        while delta + codec._TYP_TOL < dev:
            delta = np.nextafter(delta, 1)
        if whole != dev and delta + codec._TYP_TOL == dev:
            break
    else:
        pytest.fail("no pair whose block-order and whole-width sums differ")
    law = Laws(entries)
    for d, expected in ((delta, True), (np.nextafter(delta, 0), False)):
        assert jointly_typical(x, y, entries, d) == expected
        assert (typical(law.ll_x(x), law.h_x, d) & law.y_typical(y, d)
                & typical(law.ll_xy(x, y), law.h_xy, d)) == expected  # the oracle agrees


def test_decoder_index_and_scores_add_block_sums_in_order(monkeypatch):
    """The decoder's index and scores sum log-likelihoods as the encoder does,
    block by block: a sequence the encoder finds typical is a candidate, and an
    injective batch codebook decodes it from y = x in a run of that one pair."""
    pmf = np.array([[0.41, 0.0], [0.0, 0.59]])
    model = SourceModel((CdfEntry(1, 1, 1.0, cond_entropy_x_given_y_bits(pmf), pmf),))
    book = Codebook(model, (1, 1), n=8, delta=0.0800763843224229)
    x = np.array([[[1, 0, 1, 1, 0, 0, 0, 1], [1, 0, 1, 0, 0, 1, 0, 0]]])
    assert book.bins(32.0) >= book.total
    assert book.stage_typical[book.seq_index(x)].all()
    draw = (book.seq_index(x), x.astype(np.int8), np.zeros(1, dtype=int))
    monkeypatch.setattr(book, "draw", lambda trials, seed: draw)
    assert run_codec_trials(book, 32.0, trials=1, seed=0) == CodecTrialReport(1, 0, 0, 0, 0)


def test_popcount_paths_agree():
    """The byte-table popcount, used where numpy has no ``bitwise_count``,
    counts the set bits of uint16 masks as numpy's does."""
    masks = np.random.default_rng(5).integers(0, 2 ** 16, 20_000).astype(np.uint16)
    masks[:2] = 0, 0xFFFF
    expected = np.array([bin(int(m)).count("1") for m in masks])
    assert np.array_equal(codec._popcount_bytes(masks), expected)
    if hasattr(np, "bitwise_count"):
        assert codec._popcount is np.bitwise_count
        assert np.array_equal(np.bitwise_count(masks), expected)


def _positional(book, cand, trial, y, delta):
    """(candidates, hypotheses) joint typicality of each candidate with its
    trial's y, from ``_typical`` on the positional log-likelihoods, and the XY
    deviations those sums give."""
    K, n = book.blocks, book.n
    block = np.arange(K)[:, None]
    x, ys = book.all_sequences[cand].reshape(-1, K, n), y[trial]
    typical, devs = [], []
    for hyp, _ in book.hypotheses:
        ll = hyp.log_xy[block, x, ys]
        typical.append(codec._typical(hyp.log_y[block, ys], hyp.h_y, delta)
                       & codec._typical(ll, hyp.h_xy, delta))
        total = sum(ll.sum(axis=-1)[:, k] for k in range(K))
        devs.append(np.abs(-total / (K * n) - hyp.h_xy[K - 1] / K))
    return np.stack(typical, axis=-1), np.stack(devs, axis=-1)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), ax=st.integers(1, 4), ay=st.integers(1, 4),
       K=st.integers(1, 2), n=st.integers(1, 16), members=st.integers(1, 3))
def test_score_screen_decides_as_typical(seed, ax, ay, K, n, members):
    """The decoder's joint-type screen decides every candidate x hypothesis
    pair as ``_typical`` does on the positional sums, on random models with
    zero cells, alphabets of 1-4, K of 1-2 and n of 1-16 (cut to at most
    2**16 sequences): at a delta that puts one pair exactly on its float
    boundary, typical, and one ulp below it, atypical.  A spy shows that the
    boundary pair went back to ``_typical``."""
    while ax ** (n * K) > 2 ** 16:
        n -= 1
    rng = np.random.default_rng(seed)
    if min(ax, ay) > 1:
        model = _shared_marginal_model(rng, ax, ay, 2, members)
    else:  # one member per group: a one-symbol marginal pins the other
        flat = rng.dirichlet(np.ones(ax * ay), size=2)
        flat[:, 1:][rng.random((2, ax * ay - 1)) < 0.3] = 0.0
        pmfs = (flat / flat.sum(axis=1, keepdims=True)).reshape(2, ax, ay)
        model = SourceModel(tuple(CdfEntry(g + 1, 1, 0.5, cond_entropy_x_given_y_bits(p), p)
                                  for g, p in enumerate(pmfs)))
    groups = (1, 1 + int(rng.integers(2)))[:K]
    book = Codebook(model, groups, n=n, delta=0.5)
    trials = 6
    y = rng.integers(0, ay, (trials, K, n)).astype(np.int8)
    candidates = np.sort(rng.choice(book.total, min(book.total, 200), replace=False))
    lo = rng.integers(0, len(candidates), trials)
    hi = np.minimum(len(candidates), lo + rng.integers(1, 60, trials))
    cand, trial = book._score(candidates, lo, hi, y)[:2]
    devs = _positional(book, cand, trial, y, 0.5)[1]
    row, h = np.nonzero(np.isfinite(devs) & (devs > 1e-6))
    assume(len(row) > 0)
    pick = rng.integers(len(row))
    row, h, dev = row[pick], h[pick], devs[row[pick], h[pick]]
    delta = dev - codec._TYP_TOL  # the smallest delta with delta + _TYP_TOL >= dev
    while np.nextafter(delta, 0) + codec._TYP_TOL >= dev:
        delta = np.nextafter(delta, 0)
    while delta + codec._TYP_TOL < dev:
        delta = np.nextafter(delta, 1)
    for d in (delta, np.nextafter(delta, 0)):
        book = Codebook(model, groups, n=n, delta=float(d))
        expected = _positional(book, cand, trial, y, d)[0]
        calls = []

        def spy(ll, hs, dd, k=None, real=codec._typical):
            calls.append((ll, hs))
            return real(ll, hs, dd, k)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(codec, "_typical", spy)
            typical, best = book._score(candidates, lo, hi, y)[2:]
        assert np.array_equal(typical, expected)
        posts = np.array([post for _, post in book.hypotheses])
        assert np.array_equal(best, np.where(expected, posts, 0.0).max(axis=1))
        hyp = book.hypotheses[h][0]
        x = book.all_sequences[cand[row]].reshape(K, n)
        boundary = hyp.log_xy[np.arange(K)[:, None], x, y[trial[row]]]
        assert bool(codec._typical(boundary, hyp.h_xy, d)) == (d == delta)
        assert any(hs is hyp.h_xy and (ll == boundary).all(axis=(-2, -1)).any()
                   for ll, hs in calls)


# ---------------------------------------------------------------------------
# exact error probabilities
# ---------------------------------------------------------------------------

def _small_cases():
    """Codebooks of at most 2**8 X and Y sequences each, so that the oracle
    sums over every pair: the binary symmetric pair at three hashed rates,
    the benchmark's model, then random shared-marginal models."""
    cases = [(bsc_pair_model(0.1), (1,), dict(n=8, delta=0.5, seed=0), rate, "batch")
             for rate in (4.0, 6.0, 7.0)]
    cases.append((uniform_marginal_pair_model(), (1,), dict(n=8, delta=0.5, seed=3), 5.0,
                  "batch"))
    rng = np.random.default_rng(31)
    for i in range(8):
        ax, ay = (int(a) for a in rng.choice([2, 3], 2))
        K = 1 + i % 2
        n = (8 if ax == 2 else 5) // K
        model = _shared_marginal_model(rng, ax, ay, int(rng.integers(1, 3)),
                                       int(rng.integers(1, 3)))
        rate = float(rng.uniform(1, n * K * np.log2(ax)))
        cfg = dict(n=n, delta=float(rng.choice([0.4, 0.8, 1.5])), seed=i)
        groups = tuple(int(g) for g in rng.integers(1, model.m + 1, size=K))
        cases.append((model, groups, cfg, rate, ("batch", "sequential")[i // 2 % 2]))
    return cases


def test_trials_lie_in_a_binomial_interval_of_the_exact_error():
    """The oracle's exact error probability, the sum over every (x, y) and
    hypothesis of p(x, y) 1[decode(sent(x), y) != x], and its eps split; each
    count of 4000 trials lies in the central 1 - 1e-6 binomial interval."""
    trials = 4000
    for i, (model, groups, cfg, rate, kind) in enumerate(_small_cases()):
        book = Codebook(model, groups, **cfg, kind=kind)
        exact = ExactCodec(model, groups, book, rate).error_probability()
        assert exact[1:].sum() == pytest.approx(exact[0], abs=1e-12)
        report = run_codec_trials(book, rate, trials=trials, seed=i)
        counts = (report.errors, report.eps1, report.eps2, report.eps3)
        for count, p in zip(counts, np.clip(exact, 0, 1)):
            lo, hi = scipy.stats.binom.interval(1 - 1e-6, trials, p)
            assert lo <= count <= hi, (i, counts, exact * trials)
