import math

import numpy as np
import pytest

from swdelay import (
    CdfEntry,
    ModelError,
    SourceModel,
    bounds_report,
    compute_stats,
    gamma_coefficient,
    k_c_chernoff,
    lb_delay,
    ub_delay,
)

# frozen values from an independent transliteration of the closed forms
GAMMA_05 = 0.5382484162886783
UB_WD_05 = 2.5764968325773565
UB_WE_05 = 3.7294904977320695
LB_WD_05 = 0.5338905999162659
LB_WD_05_TERM3 = 0.45438335200213487
LB_WE_05 = 0.40231357393325107
GAMMA2_05 = 0.15663844170027522
BETA2 = 1.9785714285714286


def test_gamma_spot_value(six_cdf_model):
    s = compute_stats(six_cdf_model)
    assert gamma_coefficient(s, 0.5, 0.01) == pytest.approx(GAMMA_05, abs=1e-12)


def test_ub_spot_values(six_cdf_model):
    s = compute_stats(six_cdf_model)
    assert ub_delay(s, 0.5, 0.01, "WD") == pytest.approx(UB_WD_05, abs=1e-9)
    assert ub_delay(s, 0.5, 0.01, "WE") == pytest.approx(UB_WE_05, abs=1e-9)


def test_ub_matches_chernoff_identity(six_cdf_model):
    """UB_WD = Ktilde/2 + 3/2 and UB_WE = 3*Ktilde/2 + 1/2 for the real Ktilde."""
    s = compute_stats(six_cdf_model)
    for eta in (0.5, 0.25, 0.1, 0.05, 0.02):
        kt = k_c_chernoff(s, eta, 0.01).value
        assert ub_delay(s, eta, 0.01, "WD") == pytest.approx(kt / 2 + 1.5, abs=1e-6)
        assert ub_delay(s, eta, 0.01, "WE") == pytest.approx(1.5 * kt + 0.5, abs=1e-6)


def test_ub_limits_at_eta_one(six_cdf_model):
    s = compute_stats(six_cdf_model)
    assert ub_delay(s, 1 - 1e-9, 0.01, "WD") == pytest.approx(1.5, abs=1e-6)
    assert ub_delay(s, 1 - 1e-9, 0.01, "WE") == pytest.approx(0.5, abs=1e-6)


def test_ub_degenerate_variance(single_cdf_model):
    s = compute_stats(single_cdf_model)
    assert ub_delay(s, 0.3, 0.01, "WD") == pytest.approx(1.5)
    assert ub_delay(s, 0.3, 0.01, "WE") == pytest.approx(0.5)


def test_lb_spot_values(six_cdf_model):
    s = compute_stats(six_cdf_model)
    wd = lb_delay(s, 0.5, 0.01, "WD")
    assert wd.value == pytest.approx(LB_WD_05, abs=1e-9)
    assert wd.argmax == 2
    by_group = {c.group: c for c in wd.candidates}
    assert by_group[2].gamma == pytest.approx(GAMMA2_05, abs=1e-9)
    assert by_group[2].beta == pytest.approx(BETA2, abs=1e-9)
    assert by_group[3].term == pytest.approx(LB_WD_05_TERM3, abs=1e-9)

    we = lb_delay(s, 0.5, 0.01, "WE")
    assert we.value == pytest.approx(LB_WE_05, abs=1e-9)
    assert we.argmax == 2


def test_lb_argmax_switches_with_eta(six_cdf_model):
    # the dominant ambiguous group moves from 2 to 3 deeper into heavy traffic
    s = compute_stats(six_cdf_model)
    assert lb_delay(s, 0.25, 0.01, "WD").argmax == 2
    assert lb_delay(s, 0.05, 0.01, "WD").argmax == 3


def test_lb_rejects_trivial_model(single_cdf_model):
    s = compute_stats(single_cdf_model)
    with pytest.raises(ModelError, match="trivial model"):
        lb_delay(s, 0.5, 0.01, "WD")


def test_bounds_refuse_an_unknown_side(six_cdf_model):
    s = compute_stats(six_cdf_model)
    for bound in (ub_delay, lb_delay):
        with pytest.raises(ValueError, match="^which must be 'WE' or 'WD', got 'we'$"):
            bound(s, 0.5, 0.01, "we")


def test_lb_zero_group_variance():
    # two members with the same entropy: the 1/eta^2 part of the bound vanishes
    model = SourceModel(
        (CdfEntry(1, 1, 0.5, 3.0), CdfEntry(1, 2, 0.3, 3.0), CdfEntry(2, 1, 0.2, 1.0))
    )
    s = compute_stats(model)
    lb = lb_delay(s, 0.25, 0.01, "WD")
    cand = {c.group: c for c in lb.candidates}[1]
    assert cand.gamma == 0.0
    head = (1 - 0.25) * (0.2 * 1.0) / s.e_h
    assert cand.term == pytest.approx(head + 0.8 * 0.5, abs=1e-12)


def test_lb_zero_entropy_group():
    """A group whose members all have zero entropy has no variance and no
    spread: gamma_i = 0, beta = inf, and the bound stays finite."""
    model = SourceModel(
        (CdfEntry(1, 1, 0.5, 1.0), CdfEntry(2, 1, 0.25, 0.0), CdfEntry(2, 2, 0.25, 0.0))
    )
    s = compute_stats(model)
    for which, const in (("WE", 1 / 6), ("WD", 0.5)):
        lb = lb_delay(s, 0.25, 0.01, which)
        (cand,) = lb.candidates
        assert (cand.group, cand.gamma, cand.beta) == (2, 0.0, math.inf)
        assert lb.value == pytest.approx((1 - 0.25) * 0.5 / 0.5 + 0.5 * const, abs=1e-12)
    for row in bounds_report(s, [0.5, 0.1], 0.01):
        assert math.isfinite(row.lb_we) and math.isfinite(row.lb_wd)


def test_bounds_reject_zero_mean_entropy():
    model = SourceModel((CdfEntry(1, 1, 0.5, 0.0), CdfEntry(1, 2, 0.5, 0.0)))
    s = compute_stats(model)
    for bound in (lambda: bounds_report(s, [0.5], 0.01),
                  lambda: lb_delay(s, 0.5, 0.01, "WD"),
                  lambda: ub_delay(s, 0.5, 0.01, "WE")):
        with pytest.raises(ModelError, match="mean conditional entropy is 0"):
            bound()


def test_bounds_bracket_each_other(six_cdf_model):
    s = compute_stats(six_cdf_model)
    for eta in (0.5, 0.25, 0.1, 0.05, 0.02):
        for which in ("WE", "WD"):
            assert lb_delay(s, eta, 0.01, which).value <= ub_delay(s, eta, 0.01, which)


def test_gamma_is_order_one_in_eta(six_cdf_model):
    s = compute_stats(six_cdf_model)
    g_small = gamma_coefficient(s, 0.05, 0.01)
    g_tiny = gamma_coefficient(s, 0.01, 0.01)
    assert abs(g_small - g_tiny) / g_tiny < 0.2
    wd_small = {c.group: c.gamma for c in lb_delay(s, 0.05, 0.01, "WD").candidates}
    wd_tiny = {c.group: c.gamma for c in lb_delay(s, 0.01, 0.01, "WD").candidates}
    for g in wd_small:
        assert abs(wd_small[g] - wd_tiny[g]) / wd_tiny[g] < 0.2


def _loglog_slope(etas, values) -> float:
    x = np.log(1.0 / np.asarray(etas))
    y = np.log(np.asarray(values))
    return float(np.polyfit(x, y, 1)[0])


def test_ub_scaling_slope(six_cdf_model):
    s = compute_stats(six_cdf_model)
    etas = [0.5, 0.25, 0.1, 0.05, 0.02]
    for which in ("WE", "WD"):
        slope = _loglog_slope(etas, [ub_delay(s, e, 0.01, which) for e in etas])
        assert 1.85 <= slope <= 2.15, which


def test_lb_scaling_slope_deep_heavy_traffic(six_cdf_model):
    """The lower bound's additive constants die off only for small eta, so the
    quadratic scaling is checked deeper into the heavy-traffic regime."""
    s = compute_stats(six_cdf_model)
    etas = [0.005, 0.002, 0.001, 0.0005]
    for which in ("WE", "WD"):
        slope = _loglog_slope(etas, [lb_delay(s, e, 0.01, which).value for e in etas])
        assert 1.85 <= slope <= 2.15, which


def test_report_rows_and_argmax(six_cdf_model):
    s = compute_stats(six_cdf_model)
    rows = bounds_report(s, [0.5, 0.25, 0.1], 0.01)
    assert [r.eta for r in rows] == [0.5, 0.25, 0.1]
    for r in rows:
        assert r.lb_we <= r.ub_we and r.lb_wd <= r.ub_wd
        assert r.gamma > 0
    assert rows[0].argmax_istar == 2


def _tiny_group_model(h1: float, h2: float, lone: bool = True) -> SourceModel:
    """A valid model whose group of two members has entropies h1 and h2; with
    ``lone``, a first group of one member (prob 0.5, H 1.0) comes before it."""
    tiny = (CdfEntry(2, 1, 0.25, h1), CdfEntry(2, 2, 0.25, h2)) if lone else (
        CdfEntry(1, 1, 0.5, h1), CdfEntry(1, 2, 0.5, h2))
    return SourceModel(((CdfEntry(1, 1, 0.5, 1.0),) if lone else ()) + tiny)


@pytest.mark.parametrize("eta", [1e-160, 1e-155])
def test_bounds_refuse_an_eta_whose_terms_overflow(six_cdf_model, eta):
    """eta**2 is subnormal at 1e-160, not 0: every 1/eta**2 term overflows, so
    each bound refuses eta with one ValueError instead of inf, a tie of
    infinities or an OverflowError from ceil; at 1e-155 the upper ones do."""
    s = compute_stats(six_cdf_model)
    refused = [lambda: bounds_report(s, [0.5, eta], 0.01), lambda: k_c_chernoff(s, eta, 0.01),
               lambda: ub_delay(s, eta, 0.01, "WE"), lambda: ub_delay(s, eta, 0.01, "WD")]
    if eta == 1e-160:
        refused += [lambda: lb_delay(s, eta, 0.01, "WE"), lambda: lb_delay(s, eta, 0.01, "WD")]
    else:
        assert math.isfinite(lb_delay(s, eta, 0.01, "WE").value)
    for bound in refused:
        with pytest.raises(ValueError, match=f"^eta = {eta!r} is too small for the bounds:") as e:
            bound()
        assert type(e.value) is ValueError
    assert math.isfinite(gamma_coefficient(s, eta, 0.01))
    row, = bounds_report(s, [1e-150], 0.01)  # the smallest eta of this test that fits
    assert all(math.isfinite(v) for v in (row.ub_we, row.ub_wd, row.lb_we, row.lb_wd, row.gamma))
    assert row.argmax_istar == 3


@pytest.mark.parametrize("h1, h2", [(1e-200, 2e-200), (1e-160, 3e-160), (1e-154, 3e-154)])
def test_bounds_refuse_a_group_of_tiny_entropies(h1, h2):
    """Group 2's e * e underflows to 0, or 1/e**2 overflows, so its
    coefficient is not finite: the genie bound refuses group 2 rather than
    divide by zero, overflow in (1 + beta)**2 or return nan."""
    s = compute_stats(_tiny_group_model(h1, h2))
    for bound in (lambda: bounds_report(s, [0.5], 0.01), lambda: lb_delay(s, 0.5, 0.01, "WE"),
                  lambda: lb_delay(s, 0.5, 0.01, "WD")):
        with pytest.raises(ModelError, match="^group 2's probability or conditional "
                                             "entropies are too small for the bounds"):
            bound()
    assert math.isfinite(ub_delay(s, 0.5, 0.01, "WE"))  # E[H] is about 0.5


def test_bounds_refuse_a_model_of_tiny_entropies():
    """One group of members with H 1e-200 and 2e-200: E[H] * E[H] underflows
    to 0, and every bound refuses the model or its one group."""
    s = compute_stats(_tiny_group_model(1e-200, 2e-200, lone=False))
    with pytest.raises(ModelError, match="^group 1's probability or conditional entropies"):
        lb_delay(s, 0.5, 0.01, "WE")
    for bound in (lambda: bounds_report(s, [0.5], 0.01), lambda: gamma_coefficient(s, 0.5, 0.01),
                  lambda: ub_delay(s, 0.5, 0.01, "WD")):
        with pytest.raises(ModelError, match="^the model's conditional entropies are too small"):
            bound()
    assert k_c_chernoff(s, 0.5, 0.01) == (0.0, 1)  # var_h underflows to 0


def test_bounds_refuse_the_larger_factor_of_a_term():
    """Group 2 has prob 1e-300 (members H 0.5 and 1.5) beside a group of zero
    entropy, so its genie scale is about 3e299.  At eta = 1e-5 its scale / eta**2
    overflows although 1/eta**2 is only 1e10: lb_delay refuses group 2, not eta,
    and at eta = 0.5 its term is finite.  E[H] = 1e-300 squares to 0, so
    bounds_report, which takes the model's gamma first, refuses the model at
    either eta, and k_c_chernoff does too."""
    s = compute_stats(SourceModel((CdfEntry(1, 1, 1.0 - 1e-300, 0.0),
                                   CdfEntry(2, 1, 5e-301, 0.5), CdfEntry(2, 2, 5e-301, 1.5))))
    assert math.isfinite(lb_delay(s, 0.5, 0.01, "WE").value)
    with pytest.raises(ModelError, match="^group 2's probability or conditional entropies"):
        lb_delay(s, 1e-5, 0.01, "WE")
    for eta in (0.5, 1e-5):
        for bound in (lambda: bounds_report(s, [eta], 0.01), lambda: k_c_chernoff(s, eta, 0.01)):
            with pytest.raises(ModelError, match="^the model's conditional entropies are too small"):
                bound()
