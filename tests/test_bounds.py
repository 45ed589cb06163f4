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
