import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swdelay import blockify, quantize_model, validate_model
from swdelay.entropy import cond_entropy_x_given_y_bits
from swdelay import ingest as ingest_mod
from swdelay.ingest import IngestError, _divergences_to_first, _fit_marginals, read_trace

PMF_A = np.array([[0.45, 0.05], [0.05, 0.45]])  # H(X|Y) = H_b(0.1)
PMF_B = np.full((2, 2), 0.25)                   # H(X|Y) = 1


def synth_trace(pmfs, probs, n, blocks, seed) -> np.ndarray:
    """Blocks of n symbol pairs, each block drawn i.i.d. from a chosen pmf."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(blocks):
        pmf = pmfs[rng.choice(len(pmfs), p=probs)]
        flat = rng.choice(pmf.size, size=n, p=pmf.ravel())
        rows.append(np.stack([flat // pmf.shape[1], flat % pmf.shape[1]], axis=1))
    return np.concatenate(rows)


def relative_entropy_bits(p: np.ndarray, q: np.ndarray) -> float:
    """D(p || q) with the conventions 0*log(0/q) = 0 and p>0, q=0 -> inf."""
    p = np.asarray(p, dtype=float).ravel()
    q = np.asarray(q, dtype=float).ravel()
    mask = p > 0
    if np.any(q[mask] == 0):
        return float("inf")
    return float(np.sum(p[mask] * np.log2(p[mask] / q[mask])))


def reference_blocks(trace: np.ndarray, n: int, ax: int, ay: int) -> list[tuple]:
    """Per-block (pmf, marginal x, marginal y, d, dx, dy), one block at a time."""
    out = []
    for t in range(len(trace) // n):
        chunk = trace[t * n:(t + 1) * n]
        pmf = np.bincount(chunk[:, 0] * ay + chunk[:, 1], minlength=ax * ay).reshape(ax, ay) / n
        mx, my = pmf.sum(axis=1), pmf.sum(axis=0)
        if t == 0:
            ref = (pmf, mx, my)
            out.append((pmf, mx, my, 0.0, 0.0, 0.0))
        else:
            out.append((pmf, mx, my, *(relative_entropy_bits(a, b)
                                       for a, b in zip((pmf, mx, my), ref))))
    return out


def divergences(pmfs: np.ndarray) -> tuple[np.ndarray, ...]:
    """Marginals (mx, my) of a blockify pmf stack and the divergences
    (d, dx, dy) of every block to block 1, as quantize_model computes them."""
    mx, my = pmfs.sum(axis=2), pmfs.sum(axis=1)
    return mx, my, *(_divergences_to_first(p)
                     for p in (pmfs.reshape(len(pmfs), -1), mx, my))


def covering_trace(ax: int, ay: int, n: int, blocks: int, alpha: float, seed: int) -> np.ndarray:
    """Blocks drawn from Dirichlet(alpha) pmfs; block 1 holds every pair, so
    every divergence is finite.  A small alpha leaves many cells empty."""
    rng = np.random.default_rng(seed)
    rows = []
    for t in range(blocks):
        flat = rng.choice(ax * ay, size=n, p=rng.dirichlet(np.full(ax * ay, alpha)))
        if t == 0:
            flat[:ax * ay] = np.arange(ax * ay)
        rows.append(np.stack([flat // ay, flat % ay], axis=1))
    return np.concatenate(rows)


@pytest.mark.parametrize("ax, ay, n, alpha", [
    (4, 4, 2000, 50.0),   # every cell of every block positive
    (4, 4, 48, 0.3),      # most blocks have empty cells
    (6, 6, 3000, 20.0),   # 36 cells: pairwise sums of 8 accumulators
    (12, 12, 400, 1.0),   # up to 144 positive cells: recursive pairwise sums
    (3, 7, 60, 0.5),
])
def test_block_divergences_match_per_block_reference(ax, ay, n, alpha):
    trace = covering_trace(ax, ay, n, blocks=150, alpha=alpha, seed=ax * ay + n)
    pmfs = blockify(trace, n)
    ref = reference_blocks(trace, n, ax, ay)
    assert pmfs.shape == (len(ref), ax, ay)
    positive = (pmfs > 0).sum(axis=(1, 2))
    if alpha >= 20:
        assert positive.min() == ax * ay
    else:
        assert positive.min() < ax * ay
    for got, want in zip(zip(pmfs, *divergences(pmfs)), ref):
        pmf, mx, my, d, dx, dy = got
        assert np.array_equal(pmf, want[0])
        assert np.array_equal(mx, want[1]) and np.array_equal(my, want[2])
        assert (d, dx, dy) == want[3:]  # bit for bit
        assert math.isfinite(d)


def test_divergence_infinite_exactly_where_reference_lacks_support():
    rng = np.random.default_rng(21)
    trace = rng.integers(0, 3, size=(40 * 30, 2))
    trace[:30] = [0, 0]
    trace[:6, 1] = np.arange(3).repeat(2)   # block 1: only (0, 0), (0, 1), (0, 2)
    trace[30:60] = [[0, 1]] * 30            # block 2: inside block 1's support
    pmfs = blockify(trace, 30)
    assert pmfs.shape[1:] == (3, 3)
    ref = reference_blocks(trace, 30, 3, 3)
    mx, my, d, dx, dy = divergences(pmfs)
    first = pmfs[0].ravel()
    for t, (_, _, _, *want) in enumerate(ref):
        lacks = np.any((pmfs[t].ravel() > 0) & (first == 0))
        assert math.isinf(d[t]) == lacks
        assert math.isinf(dx[t]) == np.any((mx[t] > 0) & (mx[0] == 0))
        assert math.isfinite(dy[t])
        assert (d[t], dx[t], dy[t]) == tuple(want)
    assert not math.isinf(d[1])
    assert np.isinf(d).sum() > 30
    # the blocks with an infinite divergence, and only they, are quarantined
    with pytest.warns(RuntimeWarning, match="2 of 4 joint levels"):
        result = quantize_model(pmfs, joint_levels=4, marginal_levels=2)
    assert np.array_equal(result.d_to_ref, d)
    quarantined = result.group == 0
    assert np.array_equal(quarantined, np.isinf(d) | np.isinf(dx) | np.isinf(dy))
    assert np.array_equal(quarantined, result.member == 0)


def test_blockify_leaves_the_trace_alone(monkeypatch):
    trace = covering_trace(4, 4, 50, blocks=40, alpha=0.5, seed=3)
    kept = trace.copy()
    frozen = trace.copy()
    frozen.setflags(write=False)
    expected = blockify(trace, 50)
    assert np.array_equal(trace, kept)
    # a read-only array is accepted; small bincount chunks change nothing
    monkeypatch.setattr(ingest_mod, "_CHUNK", 7 * 50 + 13)
    assert np.array_equal(blockify(frozen, 50), expected)
    assert np.array_equal(frozen, kept)


def fit_one(pmf, tx, ty, iters=500, tol=1e-13):
    """One member on its own: the fitted pmf and the sweeps it took."""
    q = pmf + 1e-15
    q /= q.sum()
    for sweeps in range(1, iters + 1):
        rows = q.sum(axis=1)
        q *= np.divide(tx, rows, out=np.zeros_like(tx), where=rows > 0)[:, None]
        cols = q.sum(axis=0)
        q *= np.divide(ty, cols, out=np.zeros_like(ty), where=cols > 0)[None, :]
        if (np.abs(q.sum(axis=1) - tx).max() < tol
                and np.abs(q.sum(axis=0) - ty).max() < tol):
            return q / q.sum(), sweeps
    raise AssertionError("reference fit did not converge")


def test_fit_marginals_matches_member_by_member():
    rng = np.random.default_rng(8)
    pmfs = rng.dirichlet(np.full(20, 0.7), size=24).reshape(24, 4, 5)
    pmfs[::3, 1, 2] = 0.0   # some members with empty cells
    pmfs /= pmfs.sum(axis=(1, 2), keepdims=True)
    anchors = rng.dirichlet(np.full(20, 5.0), size=24).reshape(24, 4, 5)
    tx, ty = anchors.sum(axis=2), anchors.sum(axis=1)
    fitted = _fit_marginals(pmfs, tx, ty)
    sweeps = set()
    for f, p, x, y in zip(fitted, pmfs, tx, ty):
        want, k = fit_one(p, x, y)
        assert np.array_equal(f, want)
        sweeps.add(k)
    assert len(sweeps) > 5   # members stop at different sweeps


def test_fit_marginals_cap_message():
    """A member that needs 67 sweeps fails a cap of 3 with the message the
    benchmark matches for its known low-noise defect."""
    slow = np.array([[0.3, 0.2, 0.0], [0.0, 0.3, 0.2]])
    tx, ty = np.full(2, 1 / 2), np.full(3, 1 / 3)
    assert fit_one(slow, tx, ty)[1] == 67
    with pytest.raises(IngestError) as err:
        _fit_marginals(slow[None], tx[None], ty[None], iters=3)
    assert str(err.value) == "marginal repair did not converge"
    assert np.array_equal(_fit_marginals(slow[None], tx[None], ty[None])[0],
                          fit_one(slow, tx, ty)[0])


def test_blockify_constant_trace():
    trace = np.zeros((50, 2), dtype=int)
    pmfs = blockify(trace, n=10)
    assert len(pmfs) == 5
    assert pmfs.shape == (5, 1, 1)
    assert np.all(pmfs[:, 0, 0] == 1.0)
    assert np.all(divergences(pmfs)[2] == 0.0)


def test_blockify_drops_partial_block():
    trace = np.zeros((25, 2), dtype=int)
    assert len(blockify(trace, n=10)) == 2


def test_blockify_rejects_bad_input():
    with pytest.raises(IngestError):
        blockify(np.zeros((0, 2), dtype=int), n=4)
    with pytest.raises(IngestError):
        blockify(np.zeros((3, 2), dtype=int), n=4)
    with pytest.raises(IngestError, match="nonnegative"):
        blockify(np.array([[0, -1]]), n=1)
    with pytest.raises(IngestError, match="sequence of"):
        blockify(np.array([0, 1]), n=1)


def test_counts_below_their_range_are_refused(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("1,2\n")
    with pytest.raises(IngestError, match="^skip_header must be >= 0, got -1$"):
        read_trace(path, skip_header=-1)
    with pytest.raises(IngestError, match="^block length must be >= 1, got 0$"):
        blockify(np.zeros((4, 2), dtype=int), 0)


def test_blockify_refuses_a_stack_too_large_for_memory():
    """Symbols up to 30 000 with n = 1 would need a 2 x 30001 x 30001 float64
    stack, about 14 GB: refused before anything of that size is allocated."""
    tracemalloc.start()
    try:
        with pytest.raises(IngestError, match=r"alphabets 30001 x 30001 over 2 blocks"):
            blockify(np.array([[0, 0], [30000, 30000]]), 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
    # the benchmark's stack, 2 000 blocks of 4 x 4 cells, is far below the bound
    trace = np.tile([[3, 3], [0, 0]], (1000, 1))
    assert blockify(trace, 1).shape == (2000, 4, 4)


def test_blockify_bimodal_divergences():
    trace = synth_trace([PMF_A, PMF_B], [0.5, 0.5], n=400, blocks=60, seed=4)
    pmfs = blockify(trace, n=400)
    ds = divergences(pmfs)[2]
    # two clusters: near zero (same pmf as block 1) and near D(B||A) or D(A||B)
    near = (ds < 0.08).sum()
    far = (ds > 0.15).sum()
    assert near + far == len(pmfs)
    assert near >= 10 and far >= 10


def test_blockify_disjoint_support_infinite():
    trace = np.concatenate([
        np.zeros((8, 2), dtype=int),            # block 1: all (0, 0)
        np.tile([1, 1], (8, 1)),                # block 2: all (1, 1)
    ])
    assert math.isinf(divergences(blockify(trace, n=8))[2][1])


def test_quantize_single_source_collapses():
    # identical per-block statistics: every divergence is 0, one occupied level
    pattern = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
    trace = np.tile(pattern, (40, 1))
    with pytest.warns(RuntimeWarning, match="joint levels"):
        result = quantize_model(
            blockify(trace, n=8), joint_levels=4, marginal_levels=2
        )
    model = result.model
    assert len(model.entries) == 1
    assert model.entries[0].prob == 1.0
    assert validate_model(model) == []


def test_quantize_two_source_roundtrip():
    trace = synth_trace([PMF_A, PMF_B], [0.5, 0.5], n=400, blocks=200, seed=7)
    result = quantize_model(
        blockify(trace, n=400), joint_levels=2, marginal_levels=1
    )
    model = result.model
    assert validate_model(model) == []
    # both sources share uniform marginals: one group, two members
    assert model.m == 1
    assert len(model.entries) == 2
    ents = sorted(e.cond_entropy for e in model.entries)
    assert ents[0] == pytest.approx(cond_entropy_x_given_y_bits(PMF_A), abs=0.06)
    assert ents[1] == pytest.approx(1.0, abs=0.06)
    for e in model.entries:
        assert e.prob == pytest.approx(0.5, abs=0.12)
    assert result.marginal_distortion < 0.2


def test_quantize_assignment_covers_all_blocks():
    trace = synth_trace([PMF_A, PMF_B], [0.5, 0.5], n=400, blocks=50, seed=9)
    pmfs = blockify(trace, n=400)
    result = quantize_model(pmfs, joint_levels=2, marginal_levels=1)
    assert len(result.group) == len(result.member) == len(result.d_to_ref) == len(pmfs)
    labels = set(zip(result.group.tolist(), result.member.tolist()))
    assert labels == {(1, 1), (1, 2)}
    assert not np.any(result.group == 0)


def test_quantize_quarantines_infinite_blocks():
    trace = np.concatenate([
        np.zeros((8, 2), dtype=int),
        np.tile([1, 1], (8, 1)),
        np.zeros((8, 2), dtype=int),
    ])
    with pytest.warns(RuntimeWarning, match="joint levels"):
        result = quantize_model(blockify(trace, n=8), joint_levels=2, marginal_levels=1)
    assert result.group.tolist() == [1, 0, 1]
    assert result.member.tolist() == [1, 0, 1]


def test_quantize_deterministic():
    trace = synth_trace([PMF_A, PMF_B], [0.4, 0.6], n=200, blocks=80, seed=3)
    pmfs = blockify(trace, n=200)
    a = quantize_model(pmfs, joint_levels=4, marginal_levels=2)
    b = quantize_model(pmfs, joint_levels=4, marginal_levels=2)
    for field in ("group", "member", "d_to_ref"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    for ea, eb in zip(a.model.entries, b.model.entries):
        assert ea.cond_entropy == eb.cond_entropy
        assert np.array_equal(ea.joint_pmf, eb.joint_pmf)


def test_quantize_random_representative_seeded():
    trace = synth_trace([PMF_A, PMF_B], [0.5, 0.5], n=200, blocks=80, seed=3)
    pmfs = blockify(trace, n=200)
    a = quantize_model(pmfs, 2, 1, representative_seed=11)
    b = quantize_model(pmfs, 2, 1, representative_seed=11)
    c = quantize_model(pmfs, 2, 1, representative_seed=12)
    assert all(
        np.array_equal(x.joint_pmf, y.joint_pmf)
        for x, y in zip(a.model.entries, b.model.entries)
    )
    assert any(
        not np.array_equal(x.joint_pmf, y.joint_pmf)
        for x, y in zip(a.model.entries, c.model.entries)
    )


def test_roundtrip_error_shrinks_with_size():
    """Recovered mean entropy tightens as blocks grow longer and more numerous."""
    truth = 0.5 * cond_entropy_x_given_y_bits(PMF_A) + 0.5  # mean of the two
    mean_errs = []
    for n, blocks in ((40, 60), (800, 600)):
        errs = []
        for seed in range(8):
            trace = synth_trace(
                [PMF_A, PMF_B], [0.5, 0.5], n=n, blocks=blocks, seed=100 + seed
            )
            result = quantize_model(blockify(trace, n=n), 2, 1)
            got = sum(e.prob * e.cond_entropy for e in result.model.entries)
            errs.append(abs(got - truth))
        mean_errs.append(float(np.mean(errs)))
    assert mean_errs[1] < mean_errs[0]


def test_quantize_rejects_bad_params():
    trace = np.zeros((40, 2), dtype=int)
    pmfs = blockify(trace, n=10)
    with pytest.raises(IngestError):
        quantize_model(pmfs, 0, 1)
    with pytest.raises(IngestError):
        quantize_model(pmfs, 1, 1, representative_seed=-1)
    with pytest.raises(IngestError):
        quantize_model([], 1, 1)


def test_quantize_allocates_nothing_per_level():
    """Each block's midpoint is computed from its own level, so a count of
    10**7 levels, which a table of midpoints would hold in 80 MB, stays small;
    counts whose int64 cell keys could wrap are refused, and 2**31 is not."""
    pmfs = blockify(synth_trace([PMF_A, PMF_B], [0.5, 0.5], n=10, blocks=40, seed=3), 10)
    tracemalloc.start()
    try:
        quantize_model(pmfs, 1, 10 ** 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20
    for joint, marginal, name in ((2 ** 31 + 1, 4, "joint_levels"),
                                  (4, 2 ** 31 + 1, "marginal_levels")):
        with pytest.raises(IngestError, match=f"^{name} must be between 1 and 2147483648, "
                                              f"got 2147483649$"):
            quantize_model(pmfs, joint, marginal)
    with pytest.warns(RuntimeWarning, match="joint levels are occupied"):
        capped = quantize_model(pmfs, 2 ** 31, 2 ** 31)
    validate_model(capped.model)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(rows=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1), widest=st.integers(1, 18),
       ends=st.sampled_from(["\n", "\r\n", "mixed"]), last_newline=st.booleans(),
       skip=st.integers(0, 2), chunk=st.sampled_from([40, 97, 1 << 18]))
def test_read_trace_matches_loadtxt(tmp_path_factory, rows, seed, widest, ends,
                                    last_newline, skip, chunk):
    """Digit strings of 1 to ``widest`` digits (leading zeros included), LF,
    CRLF or mixed line ends, with or without the last one, after 0-2 header
    lines; chunks down to one just longer than the longest line (39 bytes)."""
    rng = np.random.default_rng(seed)
    width = rng.integers(1, widest + 1, size=2 * rows)
    fields = ["".join(map(str, rng.integers(0, 10, size=w))) for w in width.tolist()]
    lines = ["x,y header"] * skip + [f"{x},{y}" for x, y in zip(fields[::2], fields[1::2])]
    if ends == "mixed":
        ends = rng.choice(["\n", "\r\n"], size=len(lines)).tolist()
    else:
        ends = [ends] * len(lines)
    if not last_newline:
        ends[-1] = ""
    path = tmp_path_factory.mktemp("trace") / "trace.csv"
    path.write_bytes("".join(a + b for a, b in zip(lines, ends)).encode())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest_mod, "_TRACE_CHUNK", chunk)
        got = read_trace(path, skip_header=skip)
    want = np.loadtxt(path, delimiter=",", dtype=np.int64, skiprows=skip, ndmin=2)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("text, skip, line", [
    ("1,2\n0, 1\n", 0, 2),
    ("# c\n1,2\n", 0, 1),
    ("1,2\n\n3,4\n", 0, 2),
    ("1,2\r\n\r\n3,4\r\n", 0, 2),
    ("1,2\n3,4\n\n", 0, 3),
    ("-1,0\n", 0, 1),
    ("1,2\n1.5,2\n", 0, 2),
    ("1,2,3\n", 0, 1),
    ("1,2\n7", 0, 2),
    ("1,2\n,3\n", 0, 2),
    ("1,\n", 0, 1),
    ("1234567890123456789,1\n", 0, 1),
    ("1,123456789012345678\n1,1234567890123456789\n", 0, 2),
    ("1,2\r\r\n", 0, 1),
    ("", 0, 1),
    ("x,y\n", 1, 2),
    ("x,y\n1,2\n3,4 \n", 1, 3),
])
def test_read_trace_rejects_malformed_lines(tmp_path, monkeypatch, text, skip, line):
    """Each malformed input names its first bad line, header lines counted."""
    path = tmp_path / "trace.csv"
    path.write_bytes(text.encode())
    for chunk in (40, 1 << 18):
        monkeypatch.setattr(ingest_mod, "_TRACE_CHUNK", chunk)
        with pytest.raises(IngestError, match=rf"^line {line}: "):
            read_trace(path, skip_header=skip)


def test_read_trace_takes_a_last_crlf_without_its_lf(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_bytes(b"1,2\r\n3,45\r")
    assert read_trace(path).tolist() == [[1, 2], [3, 45]]


def test_read_trace_rejects_a_line_longer_than_a_chunk(tmp_path, monkeypatch):
    monkeypatch.setattr(ingest_mod, "_TRACE_CHUNK", 64)
    path = tmp_path / "trace.csv"
    path.write_bytes(b"1,2\n" * 40 + b"3" * 200 + b",4\n5,6\n")
    with pytest.raises(IngestError, match="^line 41: expected x,y"):
        read_trace(path)
