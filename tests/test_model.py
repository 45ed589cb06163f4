import math

import numpy as np
import pytest
import yaml
from hypothesis import event, given, settings, strategies as st

from swdelay import (
    CdfEntry,
    ModelError,
    SourceModel,
    bsc_pair_model,
    compute_stats,
    demo_model,
    load_model,
    sample_trace,
    save_model,
    validate_model,
)

from swdelay import blockify, quantize_model
from swdelay.entropy import cond_entropies_bits
from swdelay import model as model_mod
from swdelay.model import check_channel_rate, check_count, check_epsilon, check_eta

from conftest import random_dyadic_model
from test_ingest import PMF_A, PMF_B, synth_trace


def entropy_bits(pmf: np.ndarray) -> float:
    """Shannon entropy of a pmf of any shape, by a plain 1-D sum over its
    positive cells."""
    p = np.asarray(pmf, dtype=float).ravel()
    p = p[p > 0]
    return float(-np.sum(p * np.log2(p)))


def test_demo_model_valid(six_cdf_model):
    assert validate_model(six_cdf_model) == []
    assert six_cdf_model.m == 3
    assert six_cdf_model.group_sizes == (1, 2, 3)
    assert six_cdf_model.m_star == 1
    assert max(six_cdf_model.group_sizes) > 1


def test_single_entry_valid(single_cdf_model):
    assert validate_model(single_cdf_model) == []
    assert single_cdf_model.group_sizes == (1,)


def test_prior_must_sum_to_one():
    with pytest.raises(ModelError, match="prior does not sum to 1"):
        SourceModel((CdfEntry(1, 1, 0.5, 2.0), CdfEntry(1, 2, 0.4, 3.0)))


def test_negative_entropy_and_prob_rejected():
    with pytest.raises(ModelError, match="cond_entropy") as info:
        SourceModel((CdfEntry(1, 1, 1.5, -1.0), CdfEntry(1, 2, -0.5, 1.0)))
    violations = info.value.violations
    assert any("cond_entropy" in v for v in violations)
    assert any("prob" in v for v in violations)


def test_noncontiguous_indices_reported():
    with pytest.raises(ModelError, match="group indices"):
        SourceModel((CdfEntry(1, 1, 0.5, 1.0), CdfEntry(3, 1, 0.5, 2.0)))
    with pytest.raises(ModelError, match="member indices"):
        SourceModel((CdfEntry(1, 1, 0.5, 1.0), CdfEntry(1, 3, 0.5, 2.0)))


def test_joint_pmf_consistency_checked():
    pmf = np.array([[0.4, 0.1], [0.1, 0.4]])
    h_b_02 = 0.7219280948873623  # binary entropy of the 0.2 crossover
    ok = SourceModel((CdfEntry(1, 1, 1.0, h_b_02, pmf),))
    assert validate_model(ok) == []
    with pytest.raises(ModelError, match="does not match declared"):
        SourceModel((CdfEntry(1, 1, 1.0, 2.0, pmf),))
    with pytest.raises(ModelError, match="sums to"):
        SourceModel((CdfEntry(1, 1, 1.0, h_b_02, pmf * 0.5),))


def test_group_marginal_mismatch_reported():
    a = np.array([[0.4, 0.1], [0.1, 0.4]])
    b = np.array([[0.6, 0.1], [0.1, 0.2]])  # different marginals
    ha = 0.7219280948873623
    hb = 0.6896596952239758
    with pytest.raises(ModelError, match="marginals deviate"):
        SourceModel((CdfEntry(1, 1, 0.5, ha, a), CdfEntry(1, 2, 0.5, hb, b)))


def test_pmf_violations_keep_their_order_and_text():
    """The stacked pmf checks give each broken invariant on its own line, in
    entry order, with the text of a table-by-table check: non-finite, else
    negative, else the sum, else the entropy, then the group marginals."""
    def table(*rows):
        return np.array(rows, dtype=float)

    entries = (
        CdfEntry(1, 1, 0.2, 0.5, table([0.5, math.nan], [0.5, 0.0])),
        CdfEntry(1, 2, 0.2, 0.5, table([0.6, -0.1], [0.25, 0.25])),
        CdfEntry(1, 3, 0.2, 0.5, table([0.3, 0.2], [0.1, 0.1])),
        CdfEntry(2, 1, 0.2, 2.0, table([0.4, 0.1], [0.1, 0.4])),
        CdfEntry(2, 2, 0.1, 1.0, table([0.2, 0.1], [0.2, 0.1], [0.2, 0.2])),
        CdfEntry(2, 3, 0.1, 0.6896596952239758, table([0.6, 0.1], [0.1, 0.2])),
        CdfEntry(3, 1, -0.5, -1.0, table([0.5, 0.0], [0.0, 0.5])),
        CdfEntry(3, 1, 0.5, 0.0, table([1.0, 0.0], [0.0, 0.0])),
    )
    with pytest.raises(ModelError) as info:
        SourceModel(entries)
    assert info.value.violations == [
        "cdf (1,1): joint_pmf has non-finite entries",
        "cdf (1,2): joint_pmf has negative entries",
        "cdf (1,3): joint_pmf sums to 0.7, not 1",
        "cdf (2,1): joint_pmf conditional entropy 0.7219280948873621 does not match "
        "declared cond_entropy 2.0",
        "cdf (2,2): joint_pmf conditional entropy 1.5509775004326938 does not match "
        "declared cond_entropy 1.0",
        "cdf (3,1): prob must be positive and finite, got -0.5",
        "cdf (3,1): cond_entropy must be >= 0 and finite, got -1.0",
        "cdf (3,1): joint_pmf conditional entropy 0.0 does not match declared cond_entropy -1.0",
        "cdf (3,1): duplicate index",
        "group 3: member indices not contiguous from 1: [1, 1]",
        "group 2: members declare different alphabets",
        "group 2: cdf (2,3) marginals deviate from member 1 by (0.2, 0.2)",
        "group 3: cdf (3,1) marginals deviate from member 1 by (0.5, 0.5)",
    ]


def test_marginal_violations_at_group_edges():
    """Each group's tables are compared with its first table: a member with no
    table is passed over, a table of another shape breaks the alphabets, a
    later table of the first's shape is still compared, and a group with one
    table has nothing to compare."""
    a = np.array([[.25, .25], [.25, .25]])
    b = np.array([[.4, .1], [.1, .4]])
    c = np.array([[.5, .2], [0, .3]])
    t3 = np.array([[.2, .1], [.2, .1], [.2, .2]])
    t3b = np.array([[.3, 0], [.1, .2], [.1, .3]])
    groups = [(None, a, b, c), (t3, a, t3b, t3), (None, c), (c,)]
    entries = tuple(
        CdfEntry(g, j, 1 / 11, 1.0 if pmf is None else cond_entropies_bits(pmf[None])[0], pmf)
        for g, mem in enumerate(groups, 1) for j, pmf in enumerate(mem, 1))
    assert len(entries) == 11
    with pytest.raises(ModelError) as info:
        SourceModel(entries)
    assert info.value.violations == [
        "group 1: cdf (1,4) marginals deviate from member 1 by (0.2, 0)",
        "group 2: members declare different alphabets",
        "group 2: cdf (2,3) marginals deviate from member 1 by (5.55e-17, 0.1)",
    ]


def test_empty_tables_are_model_errors():
    """Tables with no rows are refused with ModelError, not numpy's empty
    reduction error: their empty marginals agree, and a table of another
    shape breaks the alphabets."""
    for shapes, last in ((((0, 2), (0, 2)), []),
                         (((0, 2), (2, 2)), ["group 1: members declare different alphabets"])):
        entries = tuple(CdfEntry(1, j, 0.5, 0.0, np.zeros(shape))
                        for j, shape in enumerate(shapes, 1))
        with pytest.raises(ModelError) as info:
            SourceModel(entries)
        assert info.value.violations == ["cdf (1,1): joint_pmf sums to 0.0, not 1",
                                         "cdf (1,2): joint_pmf sums to 0.0, not 1", *last]


@pytest.mark.parametrize("shape", [(2, 2), (3, 5), (4, 4), (8, 8), (16, 16), (5, 3)])
def test_stacked_entropies_have_the_per_table_bits(shape):
    """cond_entropies_bits of a 300-table stack, many cells empty, equals
    H(X,Y) - H(Y) of each table by a plain 1-D sum, bit for bit."""
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    flat = rng.dirichlet(np.full(shape[0] * shape[1], 0.3), size=300)
    flat[:, 1:][rng.random((300, flat.shape[1] - 1)) < 0.4] = 0.0
    stack = (flat / flat.sum(axis=1, keepdims=True)).reshape(300, *shape)
    assert cond_entropies_bits(stack).tolist() == [
        entropy_bits(t) - entropy_bits(t.sum(axis=0)) for t in stack]


def test_stats_match_hand_values(six_cdf_model):
    s = compute_stats(six_cdf_model)
    assert s.e_h == pytest.approx(4.17, abs=1e-12)
    assert s.var_h == pytest.approx(1.5211, abs=1e-12)
    assert s.h_max == 6.0
    assert s.m_h == pytest.approx(1.83, abs=1e-12)
    assert s.m_star == 1
    assert s.phi == pytest.approx((0.1, 0.4, 0.5), abs=1e-12)
    assert s.e_hi == pytest.approx((2.0, 3.5, 5.14), abs=1e-12)
    assert s.var_hi == pytest.approx((0.0, 0.25, 0.6004), abs=1e-12)
    assert s.h_maxi == (2.0, 4.0, 6.0)


def test_stats_zero_variance(single_cdf_model):
    s = compute_stats(single_cdf_model)
    assert s.e_h == 2.0 and s.var_h == 0.0 and s.m_h == 0.0


def test_stats_identities_random_models():
    rng = np.random.default_rng(7)
    for _ in range(25):
        model = random_dyadic_model(rng)
        s = compute_stats(model)
        # total expectation and the law of total variance
        mix_mean = sum(p * e for p, e in zip(s.phi, s.e_hi))
        mix_var = sum(p * v for p, v in zip(s.phi, s.var_hi)) + sum(
            p * (e - s.e_h) ** 2 for p, e in zip(s.phi, s.e_hi)
        )
        assert abs(sum(s.phi) - 1.0) < 1e-10
        assert abs(mix_mean - s.e_h) < 1e-10
        assert abs(mix_var - s.var_h) < 1e-10


def test_stats_reject_invalid():
    with pytest.raises(ModelError, match="invalid model: prior does not sum to 1"):
        compute_stats(SourceModel((CdfEntry(1, 1, 0.9, 2.0),)))


def test_sample_trace_deterministic(six_cdf_model):
    a = sample_trace(six_cdf_model, 1000, seed=42)
    b = sample_trace(six_cdf_model, 1000, seed=42)
    assert np.array_equal(a.groups, b.groups)
    assert np.array_equal(a.h, b.h)
    c = sample_trace(six_cdf_model, 1000, seed=43)
    assert not np.array_equal(a.h, c.h)


def test_sample_trace_degenerate(single_cdf_model):
    tr = sample_trace(single_cdf_model, 5, seed=0)
    assert list(zip(tr.groups.tolist(), tr.h.tolist())) == [(1, 2.0)] * 5


def test_sample_trace_frequencies(six_cdf_model):
    T = 1_000_000
    tr = sample_trace(six_cdf_model, T, seed=1)
    freq33 = np.mean((tr.groups == 3) & (tr.h == 6.0))  # the demo's H is g + j
    sigma = math.sqrt(0.19 * 0.81 / T)
    assert abs(freq33 - 0.19) <= 5 * sigma
    # group frequencies within 5 binomial standard deviations
    for g, phi in ((1, 0.1), (2, 0.4), (3, 0.5)):
        freq = np.mean(tr.groups == g)
        assert abs(freq - phi) <= 5 * math.sqrt(phi * (1 - phi) / T)


def test_sample_trace_rejects_zero_blocks(six_cdf_model):
    with pytest.raises(ValueError):
        sample_trace(six_cdf_model, 0, seed=1)


def test_trace_entropy_matches_entry(six_cdf_model):
    tr = sample_trace(six_cdf_model, 200, seed=9)
    declared = {(e.group, e.cond_entropy) for e in six_cdf_model.entries}
    assert len(tr.groups) == 200
    for g, h in zip(tr.groups.tolist(), tr.h.tolist()):
        assert (g, h) in declared


def test_collapse_marginals(six_cdf_model):
    flat = six_cdf_model.collapse_marginals()
    assert flat.m == 1
    assert validate_model(flat) == []
    sf = compute_stats(flat)
    s = compute_stats(six_cdf_model)
    assert sf.e_h == pytest.approx(s.e_h)
    assert sf.var_h == pytest.approx(s.var_h)
    assert not flat.m_star


def test_model_file_roundtrip(tmp_path, six_cdf_model):
    path = tmp_path / "model.yaml"
    save_model(six_cdf_model, path)
    back = load_model(path)
    assert back.m == six_cdf_model.m
    assert back.block_len_n == six_cdf_model.block_len_n
    for a, b in zip(back.entries, six_cdf_model.entries):
        assert (a.group, a.member) == (b.group, b.member)
        assert a.prob == b.prob
        assert a.cond_entropy == b.cond_entropy


def test_model_file_roundtrip_with_pmf(tmp_path):
    model = bsc_pair_model(0.1)
    path = tmp_path / "bsc.yaml"
    save_model(model, path)
    back = load_model(path)
    assert validate_model(back) == []
    assert np.allclose(back.entries[0].joint_pmf, model.entries[0].joint_pmf)


def test_model_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text(
        "groups:\n- members:\n  - prob: 1.0\n    cond_entropy: 2.0\n    extra: 1\n"
    )
    with pytest.raises(ModelError, match="unknown keys"):
        load_model(path)
    path.write_text("groups: []\nbogus: true\n")
    with pytest.raises(ModelError, match="unknown keys"):
        load_model(path)


def _learned_model():
    """A model learned by ingest: 4-ary pmfs, full-precision floats, pmf tables."""
    rng = np.random.default_rng(11)
    pmfs = [rng.dirichlet(np.ones(16)).reshape(4, 4) for _ in range(4)]
    trace = synth_trace(pmfs, [0.25] * 4, n=200, blocks=80, seed=12)
    pmfs = blockify(trace, n=200)
    assert pmfs.shape[1:] == (4, 4)
    return quantize_model(pmfs, joint_levels=6, marginal_levels=2).model


def _yaml_document(model) -> dict:
    """The document save_model once handed to yaml.dump for the model."""
    groups = []
    for g in range(1, model.m + 1):
        members = []
        for e in model.group_entries(g):
            mem = {"prob": float(e.prob), "cond_entropy": float(e.cond_entropy)}
            if e.joint_pmf is not None:
                ax, ay = e.joint_pmf.shape
                mem["joint_pmf"] = {"alphabet_x": int(ax), "alphabet_y": int(ay),
                                    "table": [float(v) for v in e.joint_pmf.ravel()]}
            members.append(mem)
        groups.append({"members": members})
    doc = {"groups": groups, "block_len_n": int(model.block_len_n)}
    if model.slot_seconds is not None:
        doc["slot_seconds"] = float(model.slot_seconds)
    return doc


def _dumped(model, dumper) -> bytes:
    return yaml.dump(_yaml_document(model), Dumper=dumper, sort_keys=False).encode()


def _assert_same_model(a: SourceModel, b: SourceModel) -> None:
    assert (a.block_len_n, a.slot_seconds) == (b.block_len_n, b.slot_seconds)
    for x, y in zip(a.entries, b.entries, strict=True):
        assert (x.group, x.member, x.prob, x.cond_entropy) == (
            y.group, y.member, y.prob, y.cond_entropy)
        assert (x.joint_pmf is None) == (y.joint_pmf is None)
        assert x.joint_pmf is None or np.array_equal(x.joint_pmf, y.joint_pmf)


_C_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


@pytest.mark.parametrize("which", ["demo", "learned"])
def test_model_file_same_under_both_yaml_libraries(tmp_path, which):
    """save_model writes the bytes both libyaml and the pure-Python PyYAML
    dump for the model's document, and both loaders read the same tree."""
    model = demo_model() if which == "demo" else _learned_model()
    path = tmp_path / "model.yaml"
    save_model(model, path)
    assert path.read_bytes() == _dumped(model, _C_DUMPER) == _dumped(model, yaml.SafeDumper)
    text = path.read_text()
    assert yaml.load(text, Loader=model_mod._YAML_LOADER) == yaml.safe_load(text)
    _assert_same_model(load_model(path), model)


def _saved_models() -> list[SourceModel]:
    """The demo and BSC models, a learned model with slot_seconds, floats whose
    repr has an exponent but no decimal point, and 20 random dyadic models."""
    pmfs = blockify(synth_trace([PMF_A, PMF_B], [0.5, 0.5], n=100, blocks=30, seed=4), n=100)
    learned = quantize_model(pmfs, joint_levels=2, marginal_levels=2,
                             block_len_n=100, slot_seconds=0.0025).model
    exponents = SourceModel((CdfEntry(1, 1, 1e-05, 1e16), CdfEntry(1, 2, 1 - 1e-05, 2.5e-07)),
                            block_len_n=7, slot_seconds=1e-05)
    rng = np.random.default_rng(7)
    return [demo_model(), bsc_pair_model(0.1), learned, exponents,
            *(random_dyadic_model(rng) for _ in range(20))]


def test_save_model_writes_the_yaml_dump_bytes(tmp_path):
    """Byte for byte the yaml.dump text, and an exact round trip, on every
    ``_saved_models`` model."""
    models = _saved_models()
    path = tmp_path / "model.yaml"
    for model in models:
        save_model(model, path)
        assert path.read_bytes() == _dumped(model, _C_DUMPER)
        _assert_same_model(load_model(path), model)
    save_model(models[3], path)
    assert "  - prob: 1.0e-05\n    cond_entropy: 1.0e+16\n" in path.read_text()


def test_save_model_refuses_entries_out_of_order(tmp_path):
    """Its layout lists each group's members in order, so a model whose
    entries are in another order would load as another model: it is refused,
    naming the first entry out of order, and no file is written."""
    path = tmp_path / "model.yaml"
    entries = (CdfEntry(2, 1, 0.5, 1.0), CdfEntry(1, 2, 0.25, 2.0), CdfEntry(1, 1, 0.25, 3.0))
    with pytest.raises(ModelError, match=r"^cdf \(1,2\) comes after cdf \(2,1\): "):
        save_model(SourceModel(entries), path)
    with pytest.raises(ModelError, match=r"^cdf \(1,1\) comes after cdf \(1,2\): "):
        save_model(SourceModel(entries[1:] + entries[:1]), path)
    assert not path.exists()
    ordered = SourceModel((entries[2], entries[1], entries[0]))
    save_model(ordered, path)
    _assert_same_model(load_model(path), ordered)


def test_saved_files_never_touch_pyyaml(tmp_path, monkeypatch):
    """Every file save_model writes is read without PyYAML, and gives the
    document PyYAML gives, so an edit to save_model's layout cannot fall back
    to the slower reader unseen."""
    def refuse(*args, **kwargs):
        raise AssertionError("PyYAML read a file in save_model's layout")

    pyyaml_load = yaml.load
    monkeypatch.setattr(yaml, "load", refuse)
    path = tmp_path / "model.yaml"
    for model in _saved_models():
        save_model(model, path)
        text = path.read_text()
        assert repr(model_mod._read_saved(text)) == repr(
            pyyaml_load(text, Loader=model_mod._YAML_LOADER))
        _assert_same_model(load_model(path), model)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_BIG_INT = 10**20   # above the reader's 18 digits: PyYAML reads such a file


def _member(prob, h, pmf) -> dict:
    mem = {"prob": prob, "cond_entropy": h}
    if pmf is not None:
        mem["joint_pmf"] = dict(zip(("alphabet_x", "alphabet_y", "table"), pmf))
    return mem


def _document(groups, n, slot) -> dict:
    doc = {"groups": [{"members": members} for members in groups], "block_len_n": n}
    if slot is not None:
        doc["slot_seconds"] = slot
    return doc


# documents of the model-file schema, keys in save_model's order
_DOCUMENTS = st.builds(
    _document,
    st.lists(st.lists(st.builds(_member, _FINITE, _FINITE, st.none() | st.tuples(
        st.integers(1, _BIG_INT), st.integers(1, 4), st.lists(_FINITE, min_size=1, max_size=6))),
        min_size=1, max_size=3), min_size=1, max_size=3),
    st.integers(1, _BIG_INT), st.none() | _FINITE)


def _yaml_text(doc: dict) -> str:
    return yaml.dump(doc, Dumper=_C_DUMPER, sort_keys=False)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(doc=_DOCUMENTS)
def test_reader_gives_the_yaml_document(doc):
    """On yaml.dump's block text of any document of the schema, with any
    finite floats (-0.0, subnormals and exponents included), the reader gives
    PyYAML's document, same types and float bits (compared by repr); it
    declines only integers of more than 18 digits."""
    text = _yaml_text(doc)
    got = model_mod._read_saved(text)
    ints = [doc["block_len_n"], *(m["joint_pmf"]["alphabet_x"] for g in doc["groups"]
                                  for m in g["members"] if "joint_pmf" in m)]
    assert (got is None) == (max(ints) >= 10**18)
    if got is not None:
        assert repr(got) == repr(yaml.load(text, Loader=model_mod._YAML_LOADER)) == repr(doc)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(doc=_DOCUMENTS, data=st.data())
def test_reader_accepts_only_what_pyyaml_reads_alike(doc, data):
    """One character inserted, deleted or replaced anywhere in a saved text:
    the reader either declines (None, never an exception) or gives exactly
    the document PyYAML reads from the edited text."""
    text = _yaml_text(doc)
    at = data.draw(st.integers(0, len(text) - 1))
    char = data.draw(st.sampled_from(list(" \t\n#-+.:0123456789e'\"[]{}!&*?|>%@`,~\ufeff")))
    edit = data.draw(st.sampled_from(["insert", "delete", "replace"]))
    text = text[:at] + (char if edit != "delete" else "") + text[at + (edit != "insert"):]
    got = model_mod._read_saved(text)
    event("declined" if got is None else "read")
    if got is not None:
        assert repr(got) == repr(yaml.load(text, Loader=model_mod._YAML_LOADER))


_NEAR_MISS_BASE = ("groups:\n- members:\n  - prob: 1.0e-05\n    cond_entropy: 0.46899559358928133\n"
                   "    joint_pmf:\n      alphabet_x: 2\n      alphabet_y: 2\n      table:\n"
                   "      - 0.45\n      - 0.05\n      - 0.05\n      - 0.45\n"
                   "- members:\n  - prob: 0.99999\n    cond_entropy: 2.5e-07\n"
                   "block_len_n: 10\nslot_seconds: 0.0025\n")
_TABLE = "table:\n      - 0.45\n      - 0.05\n      - 0.05\n      - 0.45\n"


@pytest.mark.parametrize("edit", [
    lambda t: t.replace("block_len_n: 10\n", "block_len_n: 10  # symbols\n"),
    lambda t: t.replace("block_len_n: 10\n", "block_len_n: 10 \n"),
    lambda t: t.replace("cond_entropy: 2.5e-07", "cond_entropy:\t2.5e-07"),
    lambda t: t.replace("1.0e-05", "1e-05"),
    lambda t: t.replace("      - 0.45\n", '      - "0.45"\n', 1),
    lambda t: t.replace("      - 0.45\n", "      - +0.45\n", 1),
    lambda t: t.replace("block_len_n: 10", "block_len_n: 010"),
    lambda t: t.replace("cond_entropy: 2.5e-07", "cond_entropy: .inf"),
    lambda t: t.replace(_TABLE, "table: [0.45, 0.05, 0.05, 0.45]\n"),
    lambda t: "---\n" + t,
    lambda t: "\ufeff" + t,
    lambda t: t[:-1],
    lambda t: "block_len_n: 10\n" + t.replace("block_len_n: 10\n", ""),
    lambda t: t.replace("  - prob: 0.99999\n    cond_entropy: 2.5e-07\n",
                        "  - cond_entropy: 2.5e-07\n    prob: 0.99999\n"),
], ids=["comment", "trailing-space", "tab", "exponent-no-dot", "quoted", "plus", "octal", "inf",
        "flow-table", "doc-start", "bom", "no-final-newline", "top-keys-reordered",
        "member-keys-reordered"])
def test_near_misses_take_the_pyyaml_route(tmp_path, monkeypatch, edit):
    """A text that departs from save_model's layout is declined by the reader,
    and load_model gives PyYAML's model, or its exact message."""
    path = tmp_path / "model.yaml"
    path.write_text(_NEAR_MISS_BASE)
    assert model_mod._read_saved(_NEAR_MISS_BASE) is not None
    text = edit(_NEAR_MISS_BASE)
    assert text != _NEAR_MISS_BASE and model_mod._read_saved(text) is None
    path.write_text(text, encoding="utf-8")

    def load():
        try:
            return load_model(path)
        except ModelError as exc:
            return str(exc)

    got = load()
    monkeypatch.setattr(model_mod, "_read_saved", lambda text: None)
    expected = load()
    if isinstance(expected, str):
        assert got == expected
    else:
        _assert_same_model(got, expected)


def test_reader_declines_a_long_near_miss():
    """A 100 000-cell table whose last cell has no decimal point is declined:
    no pattern backtracks more than a line."""
    text = ("groups:\n- members:\n  - prob: 1.0\n    cond_entropy: 0.0\n    joint_pmf:\n"
            "      alphabet_x: 1\n      alphabet_y: 100000\n      table:\n"
            + "      - 1.0e-05\n" * 99_999 + "      - 1e-05\nblock_len_n: 1\n")
    assert model_mod._read_saved(text) is None
    assert model_mod._read_saved(text.replace("- 1e-05", "- 1.0e-05")) is not None


def test_load_reports_a_pyyaml_error_with_the_file_name(tmp_path):
    """The PyYAML route reads from the open file, so its marks name it."""
    path = tmp_path / "bad.yaml"
    path.write_text("groups:\n- members:\n  - prob: [1.0\n")
    with pytest.raises(ModelError) as info:
        load_model(path)
    assert f'in "{path}"' in str(info.value)


def test_malformed_yaml_is_model_error(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("groups: [\n  - {members: [\n")
    with pytest.raises(ModelError, match="malformed YAML"):
        load_model(path)


def test_run_quantity_checks():
    """epsilon, eta, a channel rate and a block count are each checked by one
    helper."""
    check_epsilon(0.5)
    check_eta(0.5)
    check_channel_rate(1e-300)
    assert check_count("block count", np.int64(1)) == 1
    for call, message in [
        (lambda: check_epsilon(1.0), "epsilon must be in (0, 1), got 1.0"),
        (lambda: check_epsilon(None), "epsilon must be in (0, 1), got None"),
        (lambda: check_epsilon(0.0), "epsilon must be in (0, 1), got 0.0"),
        (lambda: check_eta(float("nan")), "eta must be in (0, 1), got nan"),
        (lambda: check_channel_rate(math.inf),
         "channel rate must be positive and finite, got c = inf"),
        (lambda: check_channel_rate(0.0), "channel rate must be positive and finite, got c = 0.0"),
        (lambda: check_count("block count", 0), "block count must be >= 1, got 0"),
    ]:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


@pytest.mark.parametrize("entry, slot, message", [
    (CdfEntry(1, 1, math.nan, 1.0), None, "prob must be positive and finite, got nan"),
    (CdfEntry(1, 1, 1.0, math.inf), None, "cond_entropy must be >= 0 and finite, got inf"),
    (CdfEntry(1, 1, 1.0, math.nan), None, "cond_entropy must be >= 0 and finite, got nan"),
    (CdfEntry(1, 1, 1.0, 0.5, np.array([[0.5, math.nan], [0.5, 0.0]])), None,
     "joint_pmf has non-finite entries"),
    (CdfEntry(1, 1, 1.0, 0.5), math.inf, "slot_seconds must be positive and finite, got inf"),
])
def test_non_finite_numbers_rejected(entry, slot, message):
    """A NaN compares false with every bound, so each check asks for the
    valid range rather than against the invalid one."""
    with pytest.raises(ModelError) as info:
        SourceModel((entry,), slot_seconds=slot)
    assert any(message in v for v in info.value.violations)


def test_model_file_with_nan_is_rejected(tmp_path):
    path = tmp_path / "nan.yaml"
    path.write_text("groups:\n- members:\n  - {prob: 1.0, cond_entropy: .nan}\n")
    with pytest.raises(ModelError, match="cond_entropy must be >= 0 and finite, got nan"):
        load_model(path)


_ONE_MEMBER = "groups:\n- members:\n  - {prob: %s, cond_entropy: %s}\n"
_ONE_PMF = ("groups:\n- members:\n  - {prob: 1.0, cond_entropy: 1.0, joint_pmf: "
            "{alphabet_x: %s, alphabet_y: %s, table: [0.25, 0.25, 0.25, 0.25]}}\n")


@pytest.mark.parametrize("text, message", [
    (_ONE_MEMBER % ("[1.0]", "0.5"), "cdf (1,1): prob must be a number, got [1.0]"),
    (_ONE_MEMBER % ("1.0", "[0.5]"), "cdf (1,1): cond_entropy must be a number, got [0.5]"),
    (_ONE_MEMBER % ("1.0", "0.5") + "block_len_n: [2]\n",
     "model file: block_len_n must be a number, got [2]"),
    (_ONE_MEMBER % ("1.0", "0.5") + "block_len_n: .inf\n",
     "block_len_n must be an integer >= 1, got inf"),
    (_ONE_MEMBER % ("1.0", "0.5") + "block_len_n: 2.7\n",
     "block_len_n must be an integer >= 1, got 2.7"),
    (_ONE_MEMBER % ("1.0", "0.5") + "block_len_n: .nan\n",
     "block_len_n must be an integer >= 1, got nan"),
    (_ONE_MEMBER % ("1.0", "0.5") + "slot_seconds: abc\n",
     "model file: slot_seconds must be a number, got 'abc'"),
    (_ONE_MEMBER % ("true", "0.5"), "cdf (1,1): prob must be a number, got True"),
    (_ONE_MEMBER % ("1.0", "yes"), "cdf (1,1): cond_entropy must be a number, got True"),
    (_ONE_MEMBER % ("1.0", "0.5") + "block_len_n: true\n",
     "model file: block_len_n must be a number, got True"),
    (_ONE_PMF % ("2.9", "2"), "cdf (1,1): alphabet_x must be an integer >= 1, got 2.9"),
    (_ONE_PMF % ("2", "-1"), "cdf (1,1): alphabet_y must be an integer >= 1, got -1"),
    (_ONE_PMF.replace("0.25, 0.25, 0.25, 0.25", "true, false, false, false") % ("2", "2"),
     "cdf (1,1): joint_pmf table cell must be a number, got True"),
    (_ONE_PMF.replace("0.25, 0.25, 0.25, 0.25", "[0.5, 0.0], [0.0, 0.5]") % ("2", "2"),
     "cdf (1,1): joint_pmf table cell must be a number, got [0.5, 0.0]"),
    (_ONE_PMF.replace("0.25, 0.25, 0.25, 0.25", "0.5, null, 0.0, 0.5") % ("2", "2"),
     "cdf (1,1): joint_pmf table cell must be a number, got None"),
    (_ONE_PMF.replace("0.25, 0.25, 0.25, 0.25", "0.5, {p: 0.0}, 0.0, 0.5") % ("2", "2"),
     "cdf (1,1): joint_pmf table cell must be a number, got {'p': 0.0}"),
    (_ONE_PMF.replace("0.25, 0.25, 0.25, 0.25", "1" + "0" * 400 + ", 0, 0, 0") % ("2", "2"),
     "cdf (1,1): joint_pmf table cell must be a number, got 1000"),
    (_ONE_MEMBER % ("1" + "0" * 5000, "0.5"),
     "<path>: Exceeds the limit (4300 digits) for integer string conversion"),
], ids=["prob-list", "entropy-list", "n-list", "n-inf", "n-fraction", "n-nan", "slot-text",
        "prob-bool", "entropy-bool", "n-bool", "alphabet-fraction", "alphabet-negative",
        "table-bool", "table-nested", "table-null", "table-mapping", "table-huge-int",
        "prob-past-digit-limit"])
def test_model_file_numbers_fail_as_model_errors(tmp_path, capsys, text, message):
    """A non-numeric (boolean included) or non-integral field is a ModelError
    naming the field, never a traceback or a silent truncation, and `stats`
    reports it on one line.  An integer too long for PyYAML to build (Python's
    int-string digit limit) is refused the same way, naming the file."""
    path = tmp_path / "model.yaml"
    _assert_load_refused(path, text.encode(), message.replace("<path>", str(path)), capsys)


def _assert_load_refused(path, data: bytes, message: str, capsys) -> None:
    """load_model raises a ModelError holding ``message``, and `stats` exits 1
    with it on one `cannot load model:` line."""
    from swdelay import cli

    path.write_bytes(data)
    with pytest.raises(ModelError) as info:
        load_model(path)
    assert message in str(info.value)
    assert cli.main(["stats", "--model", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot load model:"), err
    assert message in err[0]


@pytest.mark.parametrize("text, message", [
    ("groups: []\n", "model file: 'groups' must be a non-empty list"),
    ("block_len_n: 2\n", "model file: 'groups' must be a non-empty list"),
    ("groups:\n- 3\n", "group 1: expected a mapping"),
    ("groups:\n- members: []\n", "group 1: 'members' must be a non-empty list"),
    ("groups:\n- members:\n  - 0.5\n", "cdf (1,1): expected a mapping"),
    ("groups:\n- members:\n  - {prob: 1.0}\n", "cdf (1,1): prob and cond_entropy required"),
    ("groups:\n- members:\n  - {prob: 1.0, cond_entropy: 1.0, joint_pmf: [0.5, 0.5]}\n",
     "cdf (1,1): joint_pmf must be a mapping"),
    (_ONE_PMF.replace("0.25, 0.25, 0.25, 0.25", "0.5, 0.5") % ("2", "2"),
     "cdf (1,1): bad joint_pmf: 2 cells, not 2 x 2"),
    (_ONE_PMF.replace(", table: [0.25, 0.25, 0.25, 0.25]", "") % ("2", "2"),
     "cdf (1,1): bad joint_pmf: table must be a list, got None"),
    (_ONE_PMF.replace("[0.25, 0.25, 0.25, 0.25]", "1.0") % ("1", "1"),
     "cdf (1,1): bad joint_pmf: table must be a list, got 1.0"),
], ids=["groups-empty", "groups-missing", "group-scalar", "members-empty", "member-scalar",
        "entropy-missing", "pmf-list", "table-count", "table-missing", "table-scalar"])
def test_model_file_structure_fails_as_model_errors(tmp_path, capsys, text, message):
    """A file whose tree is not the schema's is a ModelError naming the part,
    and `stats` reports it on one line."""
    _assert_load_refused(tmp_path / "model.yaml", text.encode(), message, capsys)


def test_model_file_that_is_not_utf8_fails_with_its_name(tmp_path, capsys):
    """A file that is not UTF-8 is refused by load_model itself, naming the
    file, and `stats` and `validate` report it on one `cannot load model:` line."""
    from swdelay import cli

    path = tmp_path / "latin.yaml"
    _assert_load_refused(path, b"groups:\n\xff\n", f"{path}: not UTF-8 text", capsys)
    assert cli.main(["validate", "--model", str(path)]) == 1  # no violations to list
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot load model: {path}:"), err


def test_numeric_string_table_cells_are_numbers(tmp_path):
    """A quoted number in a table is read as that number, as in every other
    numeric field."""
    quoted = tmp_path / "quoted.yaml"
    quoted.write_text(_ONE_PMF.replace("0.25, 0.25, 0.25, 0.25",
                                       '"0.25", "2.5e-1", 0.25, "0.25"') % ("2", "2"))
    plain = tmp_path / "plain.yaml"
    plain.write_text(_ONE_PMF % ("2", "2"))
    _assert_same_model(load_model(quoted), load_model(plain))


def test_models_that_cannot_be_built():
    """A model needs an entry, and a joint pmf must be a 2-D table."""
    with pytest.raises(ModelError, match="^invalid model: model has no cdf entries$"):
        SourceModel(())
    with pytest.raises(ModelError, match=r"^joint_pmf must be a 2-D table \(rows = x symbols\)$"):
        CdfEntry(1, 1, 1.0, 1.0, np.full(4, 0.25))


def test_block_len_n_must_be_an_integer():
    entries = (CdfEntry(1, 1, 1.0, 0.5),)
    assert SourceModel(entries, block_len_n=np.int64(3)).block_len_n == 3
    for bad in (2.7, 0, "3", True):
        with pytest.raises(ModelError, match="block_len_n must be an integer >= 1"):
            SourceModel(entries, block_len_n=bad)


def _group_index_routes(model, path, group):
    """Each way a group index reaches the library, with ``group``: the
    library calls raise, the commands print ``error: MESSAGE`` and exit 1.
    A command is run only on an integer, the one kind its ``--groups`` parses."""
    from swdelay import cli
    from swdelay.codec import Codebook
    from swdelay.rate import RateAccumulator

    yield lambda: model.group_entries(group)
    yield lambda: RateAccumulator(model).push_block(group)
    yield lambda: Codebook(model, (group,), n=2, delta=0.5)
    if not isinstance(group, (bool, float)):
        for argv in (["rate", "--model", path, "--epsilon", "0.01", "--groups", f"2,{group}"],
                     ["codec", "--model", path, "--n", "2", "--delta", "0.5", "--rates", "1",
                      "--trials", "1", "--groups", str(group)]):
            yield lambda argv=argv: cli.main(argv)


@pytest.mark.parametrize("group, message", [
    (0, "group index must be between 1 and 3, got 0"),
    (4, "group index must be between 1 and 3, got 4"),
    (np.int64(0), "group index must be between 1 and 3, got 0"),
    (True, "group index must be an integer, got True"),
    (1.0, "group index must be an integer, got 1.0"),
])
def test_every_bad_group_index_gets_one_message(tmp_path, capsys, group, message):
    """``SourceModel.group_entries`` owns the group-index check: the
    accumulator, the codebook and the commands that take ``--groups`` all
    refuse a bad index with its message."""
    path = tmp_path / "demo.yaml"
    save_model(demo_model(), path)
    for route in _group_index_routes(demo_model(), str(path), group):
        try:
            code = route()
        except ModelError as exc:
            assert str(exc) == message
        else:
            assert code == 1
            assert capsys.readouterr().err == f"error: {message}\n"


def test_groups_keep_entry_order():
    """``groups`` lists each group's entries in entry order, not member order,
    so every per-group pmf keeps the bits a scan of the entries gives."""
    entries = (CdfEntry(2, 2, 0.3, 1.5), CdfEntry(1, 1, 0.1, 0.25), CdfEntry(2, 1, 0.2, 3.0),
               CdfEntry(2, 3, 0.4, 0.75))
    model = SourceModel(entries)
    assert model.groups == ((entries[1],), (entries[0], entries[2], entries[3]))
    assert model.m == 2 and model.group_sizes == (1, 3)
    for g in (1, 2):
        scan = [e for e in entries if e.group == g]
        phi = sum(e.prob for e in scan)
        vals, probs = model.conditional_pmf(g)
        assert vals.tolist() == [e.cond_entropy for e in scan]
        assert probs.tolist() == [e.prob / phi for e in scan]
