import itertools

import numpy as np
import pytest
import scipy.stats

from swdelay import (
    CdfEntry,
    Codebook,
    CodecConfig,
    ModelError,
    SourceModel,
    bsc_pair_model,
    decode,
    encode,
    is_typical,
    jointly_typical,
    run_codec_trials,
)
from swdelay import codec
from swdelay.codec import CodecTrialReport
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


def test_config_guards():
    CodecConfig(12, 0.5, 10.0)
    with pytest.raises(ValueError):
        Codebook(_uniform_model(5, 2), CodecConfig(4, 0.5, 2.0), (1,))
    with pytest.raises(ValueError):
        CodecConfig(17, 0.5, 2.0)
    with pytest.raises(ValueError):
        Codebook(bsc_pair_model(0.1), CodecConfig(4, 0.5, 2.0), (1, 1, 1))
    with pytest.raises(ValueError):
        CodecConfig(4, 0.0, 2.0)
    with pytest.raises(ValueError):
        CodecConfig(4, 0.5, -1.0)
    with pytest.raises(ValueError):
        Codebook(_uniform_model(4, 4), CodecConfig(16, 0.5, 2.0), (1, 1))  # 4**32 sequences
    # every stage seed (seed + 1 .. seed + K when sequential) must fit a uint64
    for blocks, seed in ((1, -1), (2, 2 ** 64 - 2), (1, 2 ** 64)):
        with pytest.raises(ValueError, match="seed must be in"):
            Codebook(bsc_pair_model(0.1), CodecConfig(4, 0.5, 2.0, seed=seed), (1,) * blocks)
    top = CodecConfig(4, 0.5, 2.0, seed=2 ** 64 - 2)
    for kind in ("batch", "sequential"):
        book = Codebook(bsc_pair_model(0.1), top, (1,), kind)
        assert not book.injective
        assert 1 <= np.min(book.bin_of([0, 1, 1, 0])) <= book.bins


def test_codebook_takes_k_and_alphabets_from_the_groups():
    """K is the number of observed groups and the alphabets the shape of their
    pmfs; groups whose pmfs differ in shape are refused."""
    book = Codebook(_uniform_model(3, 2, groups=2), CodecConfig(2, 0.5, 2.0), (2, 1))
    assert (book.blocks, book.alphabet_x, book.alphabet_y, book.total) == (2, 3, 2, 3 ** 4)
    pmfs = (np.full((2, 2), 0.25), np.full((2, 3), 1 / 6))
    mixed = SourceModel(tuple(CdfEntry(g, 1, 0.5, cond_entropy_x_given_y_bits(p), p)
                              for g, p in enumerate(pmfs, start=1)))
    Codebook(mixed, CodecConfig(2, 0.5, 2.0), (2, 2))
    with pytest.raises(ModelError, match="differ in shape"):
        Codebook(mixed, CodecConfig(2, 0.5, 2.0), (1, 2))


def test_uniform_source_always_typical():
    e = _uniform_pair_entry()
    for seq in ([0, 0, 0, 0], [1, 0, 1, 1]):
        assert is_typical(seq, [e], delta=1e-9)


def test_deterministic_source_zero_prob_symbol():
    pmf = np.array([[0.5, 0.5], [0.0, 0.0]])  # P(x=0) = 1
    e = CdfEntry(1, 1, 1.0, 0.0, pmf / pmf.sum())
    assert is_typical([0, 0, 0, 0], [e], delta=0.5)
    assert not is_typical([0, 0, 0, 1], [e], delta=0.5)


def test_biased_source_hand_deviation():
    # P(x=1) = 0.25, all-zeros sequence of n = 12:
    # deviation = |-log2(0.75) - H_b(0.25)| = 0.396..., so delta 0.1 rejects
    pmf = np.array([[0.375, 0.375], [0.125, 0.125]])
    e = CdfEntry(1, 1, 1.0, 0.8112781244591328, pmf)
    zeros = [0] * 12
    assert not is_typical(zeros, [e], delta=0.1)
    assert is_typical(zeros, [e], delta=0.396240625180289 + 1e-9)


def test_jointly_typical_identity_pair():
    eq = np.array([[0.5, 0.0], [0.0, 0.5]])
    e = CdfEntry(1, 1, 1.0, 0.0, eq)
    x = [0, 1, 1, 0]
    assert jointly_typical(x, x, [e], delta=1e-9)
    assert not jointly_typical(x, [0, 1, 1, 1], [e], delta=0.5)


def test_encode_injective_and_deterministic():
    model = bsc_pair_model(0.1)
    cfg = CodecConfig(8, delta=3.0, rate_bits=8.0, seed=7)
    book = Codebook(model, cfg, (1,))
    assert book.injective
    xs = [np.array([i >> k & 1 for k in range(8)]) for i in range(40)]
    bins = [encode(book, x) for x in xs]
    assert len(set(bins)) == len(bins)
    again = Codebook(model, cfg, (1,))
    assert bins == [encode(again, x) for x in xs]


def test_encode_atypical_goes_to_bin_one():
    pmf = np.array([[0.5, 0.5], [0.0, 0.0]])
    model = SourceModel((CdfEntry(1, 1, 1.0, 0.0, pmf),))
    cfg = CodecConfig(4, delta=0.5, rate_bits=4.0, seed=1)
    book = Codebook(model, cfg, (1,))
    assert encode(book, [0, 0, 0, 1]) == 1
    assert encode(book, [0, 0, 0, 0]) == book.bin_of([0, 0, 0, 0])


def test_bin_uniformity_chi_square():
    model = bsc_pair_model(0.1)
    cfg = CodecConfig(12, delta=0.5, rate_bits=5.0, seed=3)
    book = Codebook(model, cfg, (1,))
    assert not book.injective
    bins = [book.bin_of(seq) for seq in itertools.product((0, 1), repeat=12)]
    counts = np.bincount(np.asarray(bins) - 1, minlength=book.bins)
    assert counts.sum() == 4096
    _, pvalue = scipy.stats.chisquare(counts)
    assert pvalue > 0.001


def test_decode_exact_at_injective_rate_exhaustive():
    """All 64 inputs recover exactly when binning is injective and delta wide."""
    model = bsc_pair_model(0.1)
    cfg = CodecConfig(6, delta=3.0, rate_bits=6.0, seed=5)
    book = Codebook(model, cfg, (1,))
    assert book.injective
    rng = np.random.default_rng(0)
    for idx in range(64):
        x = np.array([(idx >> k) & 1 for k in range(6)])
        flips = rng.random(6) < 0.1
        y = x ^ flips
        got = decode(book, encode(book, x), y)
        assert got is not None and np.array_equal(got.ravel(), x)


def test_decode_posterior_argmax_and_tiebreak():
    cfg = CodecConfig(2, delta=1e-6, rate_bits=0.0, seed=2)
    y = np.array([0, 1])
    # higher-prior member wins: Y = X explains x = y
    book = Codebook(_identity_pair_model(0.7), cfg, (1,))
    got = decode(book, 1, y)
    assert np.array_equal(got.ravel(), [0, 1])
    # swap the prior: Y = NOT X explains x = 1 - y
    book = Codebook(_identity_pair_model(0.3), cfg, (1,))
    got = decode(book, 1, y)
    assert np.array_equal(got.ravel(), [1, 0])
    # exact tie: lexicographically smallest candidate is returned
    book = Codebook(_identity_pair_model(0.5), cfg, (1,))
    got = decode(book, 1, y)
    assert np.array_equal(got.ravel(), [0, 1])


def test_decode_failure_is_a_value():
    # empty candidate set: wide rate, but no sequence is typical
    pmf = np.array([[0.5, 0.5], [0.0, 0.0]])
    model = SourceModel((CdfEntry(1, 1, 1.0, 0.0, pmf),))
    cfg = CodecConfig(4, delta=0.01, rate_bits=4.0, seed=1)
    book = Codebook(model, cfg, (1,))
    assert decode(book, 7, np.array([1, 1, 1, 1])) is None


@pytest.mark.parametrize("kind, rate", [("batch", 3.0), ("batch", 6.0),
                                        ("sequential", 3.0), ("sequential", 12.0)])
def test_decode_out_of_range_message_is_none(kind, rate):
    """A message with a bin outside 1..bins matches no candidate, at a hashed
    and at an injective rate; delta is wide, so every sequence is typical."""
    model = bsc_pair_model(0.1)
    cfg = CodecConfig(3, delta=3.0, rate_bits=rate, seed=5)
    book = Codebook(model, cfg, (1, 1), kind)
    assert book.injective == (rate > 3.0)
    x = np.array([[0, 1, 1], [1, 0, 0]])
    assert decode(book, encode(book, x), x) is not None
    b = book.bins
    if kind == "batch":
        bad = [0, -1, b + 1, 2 ** 70, -2 ** 70]
    else:
        bad = [(0, 0), (b + 1, b + 1), (1, -1), (2 ** 70, 1), (1, 2 ** 70)]
    for message in bad:
        assert decode(book, message, x) is None, message
    stages = len(book.ends)
    with pytest.raises(ValueError, match=f"message must have {stages} stage"):
        decode(book, (1,) * (stages + 1), x)


def test_trials_identical_sources_never_err():
    x_is_y = np.array([[0.5, 0.0], [0.0, 0.5]])
    model = SourceModel((CdfEntry(1, 1, 1.0, 0.0, x_is_y),))
    cfg = CodecConfig(8, delta=0.5, rate_bits=0.0, seed=4)
    report = run_codec_trials(model, (1,), cfg, trials=200, seed=9)
    assert report.errors == 0
    assert (report.eps1, report.eps2, report.eps3) == (0, 0, 0)


def test_trials_false_hypothesis_collisions():
    """With ambiguous members the wrong-posterior pick shows up as eps3."""
    model = _identity_pair_model(0.7)
    cfg = CodecConfig(6, delta=0.25, rate_bits=0.0, seed=4)
    report = run_codec_trials(model, (1,), cfg, trials=400, seed=9)
    # errors happen exactly when the low-prior member was the truth
    assert report.err_rate == pytest.approx(0.3, abs=0.08)
    assert report.eps1 == 0 and report.eps2 == 0
    assert report.eps3 == report.errors


def test_trials_single_bin_collisions_dominate():
    model = bsc_pair_model(0.1)
    cfg = CodecConfig(8, delta=0.6, rate_bits=0.0, seed=6)
    report = run_codec_trials(model, (1,), cfg, trials=300, seed=1)
    assert report.err_rate > 0.5
    assert report.eps2 > report.eps1
    assert report.eps2 + report.eps3 >= report.errors - report.eps1


def test_trials_tiny_delta_atypicality_dominates():
    model = bsc_pair_model(0.1)
    cfg = CodecConfig(8, delta=0.01, rate_bits=8.0, seed=6)
    report = run_codec_trials(model, (1,), cfg, trials=300, seed=1)
    assert report.eps1 == report.errors > 0


def test_error_monotone_in_rate():
    model = bsc_pair_model(0.1)
    rates = [2.0, 4.0, 6.0, 8.0, 10.0]
    mean_err = []
    for rate in rates:
        errs = []
        for seed in range(10):
            cfg = CodecConfig(10, delta=0.5, rate_bits=rate, seed=seed)
            errs.append(
                run_codec_trials(model, (1,), cfg, trials=60, seed=100 + seed).err_rate
            )
        mean_err.append(float(np.mean(errs)))
    assert all(a >= b - 1e-12 for a, b in zip(mean_err, mean_err[1:]))


def test_sequential_kind_roundtrip():
    model = bsc_pair_model(0.1)
    cfg = CodecConfig(4, delta=3.0, rate_bits=16.0, seed=8)
    book = Codebook(model, cfg, (1, 1), kind="sequential")
    assert book.injective
    x = np.array([[0, 1, 1, 0], [1, 0, 0, 1]])
    bins = encode(book, x)
    assert isinstance(bins, tuple) and len(bins) == 2
    got = decode(book, bins, x ^ 0)  # y = x
    assert np.array_equal(got, x)


def test_sequential_hashed_trials():
    model = bsc_pair_model(0.05)
    cfg = CodecConfig(5, delta=0.8, rate_bits=9.0, seed=8)
    report = run_codec_trials(model, (1, 1), cfg, kind="sequential",
                              trials=150, seed=3)
    assert 0 <= report.err_rate < 1.0
    assert report.eps1 + report.eps2 + report.eps3 == report.errors


# ---------------------------------------------------------------------------
# reference: the trials replayed one at a time through the public functions
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


def _replay_trials(model, groups, cfg, kind, trials, seed) -> CodecTrialReport:
    """Each trial drawn with choice() per block, coded with the public
    encode/decode, and a collision found by scanning the received bin."""
    book = Codebook(model, cfg, groups, kind)
    K, n = book.blocks, cfg.n
    in_bin = {}  # message -> X-typical sequences with that raw bin
    for seq in itertools.product(range(book.alphabet_x), repeat=K * n):
        s = np.array(seq).reshape(K, n)
        if is_typical(s, book.marginal_entries(), cfg.delta):
            in_bin.setdefault(book.bin_of(s), []).append(s)
    rng = np.random.default_rng(seed)
    member_lists = [model.group_entries(g) for g in groups]
    errors = failures = eps1 = eps2 = eps3 = 0
    for _ in range(trials):
        xs, ys, truth = [], [], []
        for mem in member_lists:
            probs = np.array([e.prob for e in mem])
            e = mem[rng.choice(len(mem), p=probs / probs.sum())]
            truth.append(e)
            pmf = e.joint_pmf
            flat = rng.choice(pmf.size, size=n, p=pmf.ravel() / pmf.sum())
            xs.append(flat // book.alphabet_y)
            ys.append(flat % book.alphabet_y)
        x, y = np.array(xs), np.array(ys)
        bins = encode(book, x)
        got = decode(book, bins, y)
        if got is not None and np.array_equal(got, x):
            continue
        errors += 1
        failures += got is None
        if not jointly_typical(x, y, truth, cfg.delta):
            eps1 += 1
        elif any(not np.array_equal(s, x) and jointly_typical(s, y, truth, cfg.delta)
                 for s in in_bin.get(bins, [])):
            eps2 += 1
        else:
            eps3 += 1
    return CodecTrialReport(trials, errors, failures, eps1, eps2, eps3)


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
        cfg = CodecConfig(n, float(rng.choice([0.4, 0.8, 1.5])), rate,
                          seed=int(rng.integers(0, 50)))
        groups = tuple(int(g) for g in rng.integers(1, G + 1, size=K))
        cases.append((model, groups, cfg, ("batch", "sequential")[i // 2 % 2]))
    # no sequence is typical: P(x=1) = 0.7, n = 3 and delta 0.01
    pmf = np.array([[0.15, 0.15], [0.35, 0.35]])
    model = SourceModel((CdfEntry(1, 1, 1.0, cond_entropy_x_given_y_bits(pmf), pmf),))
    cases.append((model, (1,), CodecConfig(3, 0.01, 2.0, seed=1), "batch"))
    return cases


def test_trials_match_one_at_a_time_reference():
    totals = np.zeros(4, dtype=int)
    for i, (model, groups, cfg, kind) in enumerate(_reference_cases()):
        report = run_codec_trials(model, groups, cfg, kind=kind, trials=60, seed=i)
        assert report == _replay_trials(model, groups, cfg, kind, 60, i), (i, cfg, kind)
        totals += (report.failures, report.eps1, report.eps2, report.eps3)
    assert np.all(totals > 0), totals  # every error event occurs somewhere


@pytest.mark.parametrize("cells", [1, 10**12])
def test_trials_independent_of_chunking(monkeypatch, cells):
    """At 64 candidates of 12 cells per trial the default chunk holds about
    85 trials; one cell per chunk means one trial per chunk."""
    model = bsc_pair_model(0.1)
    cfg = CodecConfig(12, delta=0.5, rate_bits=6.0, seed=2)
    default = run_codec_trials(model, (1,), cfg, trials=200, seed=5)
    assert default == _replay_trials(model, (1,), cfg, "batch", 200, 5)
    monkeypatch.setattr(codec, "_CHUNK_CELLS", cells)
    assert run_codec_trials(model, (1,), cfg, trials=200, seed=5) == default


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
    assert jointly_typical(x, y, entries, delta)
    assert not jointly_typical(x, y, entries, np.nextafter(delta, 0))
