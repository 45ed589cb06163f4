import math

import numpy as np
import pytest
import yaml

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
from swdelay import model as model_mod
from swdelay.model import check_blocks, check_epsilon, check_eta

from conftest import random_dyadic_model
from test_ingest import PMF_A, PMF_B, synth_trace


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
    assert np.array_equal(a.members, b.members)
    assert np.array_equal(a.h, b.h)
    c = sample_trace(six_cdf_model, 1000, seed=43)
    assert not np.array_equal(a.members, c.members)


def test_sample_trace_degenerate(single_cdf_model):
    tr = sample_trace(single_cdf_model, 5, seed=0)
    assert list(zip(tr.groups.tolist(), tr.members.tolist(), tr.h.tolist())) == [
        (1, 1, 2.0)] * 5


def test_sample_trace_frequencies(six_cdf_model):
    T = 1_000_000
    tr = sample_trace(six_cdf_model, T, seed=1)
    freq33 = np.mean((tr.groups == 3) & (tr.members == 3))
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
    declared = {(e.group, e.member): e.cond_entropy for e in six_cdf_model.entries}
    assert len(tr) == 200
    for g, j, h in zip(tr.groups.tolist(), tr.members.tolist(), tr.h.tolist()):
        assert h == declared[(g, j)]


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


def test_save_model_writes_the_yaml_dump_bytes(tmp_path):
    """Byte for byte the yaml.dump text, and an exact round trip, on the demo
    and BSC models, random dyadic models, a learned model with slot_seconds
    and floats whose repr has an exponent but no decimal point."""
    pmfs = blockify(synth_trace([PMF_A, PMF_B], [0.5, 0.5], n=100, blocks=30, seed=4), n=100)
    learned = quantize_model(pmfs, joint_levels=2, marginal_levels=2,
                             block_len_n=100, slot_seconds=0.0025).model
    exponents = SourceModel((CdfEntry(1, 1, 1e-05, 1e16), CdfEntry(1, 2, 1 - 1e-05, 2.5e-07)),
                            block_len_n=7, slot_seconds=1e-05)
    rng = np.random.default_rng(7)
    models = [demo_model(), bsc_pair_model(0.1), learned, exponents,
              *(random_dyadic_model(rng) for _ in range(20))]
    path = tmp_path / "model.yaml"
    for model in models:
        save_model(model, path)
        assert path.read_bytes() == _dumped(model, _C_DUMPER)
        _assert_same_model(load_model(path), model)
    save_model(exponents, path)
    assert "  - prob: 1.0e-05\n    cond_entropy: 1.0e+16\n" in path.read_text()


def test_malformed_yaml_is_model_error(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("groups: [\n  - {members: [\n")
    with pytest.raises(ModelError, match="malformed YAML"):
        load_model(path)


def test_run_quantity_checks():
    """epsilon, eta and a block count are each checked by one helper."""
    check_epsilon(0.5)
    check_eta(0.5)
    check_blocks(1)
    for call, message in [
        (lambda: check_epsilon(1.0), "epsilon must be in (0, 1), got 1.0"),
        (lambda: check_epsilon(None), "epsilon must be in (0, 1), got None"),
        (lambda: check_epsilon(0.0), "epsilon must be in (0, 1), got 0.0"),
        (lambda: check_eta(float("nan")), "eta must be in (0, 1), got nan"),
        (lambda: check_blocks(0), "block count must be >= 1, got 0"),
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
], ids=["prob-list", "entropy-list", "n-list", "n-inf", "n-fraction", "n-nan", "slot-text",
        "prob-bool", "entropy-bool", "n-bool", "alphabet-fraction", "alphabet-negative"])
def test_model_file_numbers_fail_as_model_errors(tmp_path, capsys, text, message):
    """A non-numeric (boolean included) or non-integral field is a ModelError
    naming the field, never a traceback or a silent truncation, and `stats`
    reports it on one line."""
    from swdelay import cli

    path = tmp_path / "model.yaml"
    path.write_text(text)
    with pytest.raises(ModelError) as info:
        load_model(path)
    assert message in str(info.value)
    assert cli.main(["stats", "--model", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot load model:"), err
    assert message in err[0]


def test_block_len_n_must_be_an_integer():
    entries = (CdfEntry(1, 1, 1.0, 0.5),)
    assert SourceModel(entries, block_len_n=np.int64(3)).block_len_n == 3
    for bad in (2.7, 0, "3", True):
        with pytest.raises(ModelError, match="block_len_n must be an integer >= 1"):
            SourceModel(entries, block_len_n=bad)
