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

from conftest import random_dyadic_model
from test_ingest import synth_trace


def test_demo_model_valid(six_cdf_model):
    assert validate_model(six_cdf_model) == []
    assert six_cdf_model.m == 3
    assert six_cdf_model.group_sizes == (1, 2, 3)
    assert six_cdf_model.m_star == 1
    assert six_cdf_model.nontrivial


def test_single_entry_valid(single_cdf_model):
    assert validate_model(single_cdf_model) == []
    assert not single_cdf_model.nontrivial


def test_prior_must_sum_to_one():
    bad = SourceModel((CdfEntry(1, 1, 0.5, 2.0), CdfEntry(1, 2, 0.4, 3.0)))
    violations = validate_model(bad)
    assert any("prior does not sum to 1" in v for v in violations)


def test_negative_entropy_and_prob_rejected():
    bad = SourceModel((CdfEntry(1, 1, 1.5, -1.0), CdfEntry(1, 2, -0.5, 1.0)))
    violations = validate_model(bad)
    assert any("cond_entropy" in v for v in violations)
    assert any("prob" in v for v in violations)


def test_noncontiguous_indices_reported():
    bad = SourceModel((CdfEntry(1, 1, 0.5, 1.0), CdfEntry(3, 1, 0.5, 2.0)))
    assert any("group indices" in v for v in validate_model(bad))
    bad = SourceModel((CdfEntry(1, 1, 0.5, 1.0), CdfEntry(1, 3, 0.5, 2.0)))
    assert any("member indices" in v for v in validate_model(bad))


def test_joint_pmf_consistency_checked():
    pmf = np.array([[0.4, 0.1], [0.1, 0.4]])
    h_b_02 = 0.7219280948873623  # binary entropy of the 0.2 crossover
    ok = SourceModel((CdfEntry(1, 1, 1.0, h_b_02, pmf),))
    assert validate_model(ok) == []
    bad = SourceModel((CdfEntry(1, 1, 1.0, 2.0, pmf),))
    assert any("does not match declared" in v for v in validate_model(bad))
    bad = SourceModel((CdfEntry(1, 1, 1.0, h_b_02, pmf * 0.5),))
    assert any("sums to" in v for v in validate_model(bad))


def test_group_marginal_mismatch_reported():
    a = np.array([[0.4, 0.1], [0.1, 0.4]])
    b = np.array([[0.6, 0.1], [0.1, 0.2]])  # different marginals
    ha = 0.7219280948873623
    hb = 0.6896596952239758
    bad = SourceModel((CdfEntry(1, 1, 0.5, ha, a), CdfEntry(1, 2, 0.5, hb, b)))
    assert any("marginals deviate" in v for v in validate_model(bad))


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
    bad = SourceModel((CdfEntry(1, 1, 0.9, 2.0),))
    with pytest.raises(ModelError):
        compute_stats(bad)


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
    assert [(d.group, d.member, d.h) for d in tr] == [(1, 1, 2.0)] * 5


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
    for draw in tr:
        assert draw.h == six_cdf_model.entry(draw.group, draw.member).cond_entropy


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
    blocks = blockify(trace, n=200, alphabet_x=4, alphabet_y=4)
    return quantize_model(blocks, joint_levels=6, marginal_levels=2).model


@pytest.mark.parametrize("which", ["demo", "learned"])
def test_model_file_same_under_both_yaml_libraries(tmp_path, monkeypatch, which):
    """libyaml and the pure-Python PyYAML write the same bytes and read the same tree."""
    model = demo_model() if which == "demo" else _learned_model()
    fast, slow = tmp_path / "fast.yaml", tmp_path / "slow.yaml"
    save_model(model, fast)
    monkeypatch.setattr(model_mod, "_YAML_DUMPER", yaml.SafeDumper)
    save_model(model, slow)
    assert fast.read_bytes() == slow.read_bytes()
    text = fast.read_text()
    assert yaml.load(text, Loader=model_mod._YAML_LOADER) == yaml.safe_load(text)
    for a, b in zip(load_model(fast).entries, model.entries, strict=True):
        assert (a.group, a.member, a.prob, a.cond_entropy) == (
            b.group, b.member, b.prob, b.cond_entropy)
        assert (a.joint_pmf is None) == (b.joint_pmf is None)
        assert a.joint_pmf is None or np.array_equal(a.joint_pmf, b.joint_pmf)


def test_malformed_yaml_is_model_error(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("groups: [\n  - {members: [\n")
    with pytest.raises(ModelError, match="malformed YAML"):
        load_model(path)
