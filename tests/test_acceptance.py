"""Acceptance suite: one test per numbered criterion, with pass/fail lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Heavy Monte Carlo artifacts are shared through
module-scoped fixtures so each sweep runs once.

Criterion 4's known-joint window is expected to fail: over the stated eta
grid the baseline's end-to-end delay is dominated by its two-block
encoding-plus-service floor (the 1/eta queueing term reaches only ~2 blocks
at eta = 0.02), so the measured log-log slope is ~0.29, far below 0.7.  The
slope window is kept as stated rather than loosened; see the failure message
for the measured numbers.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

import numpy as np
import pytest

import swdelay as sw
from swdelay.codec import CodecConfig, run_codec_trials

from conftest import enum_quantile, enum_tail, group_pmf, prior_pmf, random_dyadic_model
from test_ingest import PMF_A, PMF_B, synth_trace

EPS = 0.01

# frozen values from the independent transliteration script
UB_WD_05 = 2.5764968325773565
LB_WD_05 = 0.5338905999162659
LB_WE_05 = 0.40231357393325107


import conftest


def _report(n: int, ok: bool, detail: str) -> None:
    line = f"[criterion {n:02d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    conftest.CRITERION_LINES.append(line)


def _slope(etas, values) -> float:
    x = np.log(1.0 / np.asarray(etas, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


# ---------------------------------------------------------------------------
# shared Monte Carlo artifacts
# ---------------------------------------------------------------------------

C3_ETAS = (0.5, 0.25, 0.1, 0.05)
C3_SEEDS = tuple(range(1, 11))
C3_BLOCKS = 100_000

C4_ETAS = (0.5, 0.25, 0.1, 0.05, 0.02)
C4_SEEDS = (1, 2, 3)


@pytest.fixture(scope="module")
def bracketing_sweep():
    """Criterion 3 workload; rows are reused by the outage criterion."""
    model = sw.demo_model()
    t0 = time.perf_counter()
    pairs = {
        eta: [sw.run_adaptive(model, epsilon=EPS, T=C3_BLOCKS, seed=seed, eta=eta)
              for seed in C3_SEEDS]
        for eta in C3_ETAS
    }
    results = {
        (name, eta): [pair[i] for pair in pairs[eta]]
        for i, name in enumerate(("we", "wd"))
        for eta in C3_ETAS
    }
    return results, time.perf_counter() - t0


@pytest.fixture(scope="module")
def scaling_runs():
    """Criterion 4 workload: seed-averaged mean delays per strategy and eta."""
    model = sw.demo_model()
    t0 = time.perf_counter()
    out: dict[str, list[sw.SimulationResult]] = {"we": [], "wd": [], "known-joint": []}
    means: dict[str, list[float]] = {"we": [], "wd": [], "known-joint": []}
    for eta in C4_ETAS:
        T = 1_000_000 if eta == min(C4_ETAS) else 200_000
        pairs = [
            sw.run_adaptive(model, epsilon=EPS, T=T, seed=seed, eta=eta) for seed in C4_SEEDS
        ]
        for i, name in enumerate(("we", "wd")):
            batch = [pair[i] for pair in pairs]
            out[name].extend(batch)
            means[name].append(float(np.mean([r.mean_delay for r in batch])))
    for eta in C4_ETAS:
        batch = [
            sw.run_baseline_known_joint(model, T=1_000_000, seed=seed, eta=eta)
            for seed in C4_SEEDS[:1]
        ]
        out["known-joint"].extend(batch)
        means["known-joint"].append(float(np.mean([r.mean_delay for r in batch])))
    return out, means, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_wd_worst_case_exact():
    """Collapsed model: deferred decoding hits K_c/2 + 3/2 exactly."""
    model = sw.demo_model()
    flat = model.collapse_marginals()
    T = 10_000
    t0 = time.perf_counter()
    details = []
    for eta in (0.5, 0.25):
        c = 4.17 / (1 - eta)
        kc = sw.k_c(model, c, EPS)
        # cross-check the DP batch size against full enumeration
        assert enum_tail([prior_pmf(model)] * kc, kc * c) <= EPS
        if kc > 1:
            assert enum_tail([prior_pmf(model)] * (kc - 1), (kc - 1) * c) > EPS
        res = sw.run_wait_to_decode(flat, epsilon=EPS, T=T, seed=1, eta=eta)
        target = kc / 2 + 1.5
        assert abs(res.mean_delay - target) <= 1.0 / T, (eta, res.mean_delay)
        details.append(f"eta={eta}: K_c={kc} delay={res.mean_delay:.6f}={target}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    _report(1, True, "; ".join(details) + f" ({elapsed:.2f}s)")


def test_criterion_02_we_worst_case_envelope():
    model = sw.demo_model()
    flat = model.collapse_marginals()
    details = []
    for eta in (0.5, 0.25):
        c = 4.17 / (1 - eta)
        kc = sw.k_c(model, c, EPS)
        rx = sw.rate_unconditional(model, kc, EPS)
        assert rx == enum_quantile([prior_pmf(model)] * kc, EPS)
        res = sw.run_wait_to_encode(flat, epsilon=EPS, T=10_000, seed=1, eta=eta)
        hi = 1.5 * kc + 0.5
        lo = kc / 2 + 0.5 + rx / c
        assert res.mean_delay <= hi + 1e-6, (eta, res.mean_delay, hi)
        assert res.mean_delay >= lo - 1e-6, (eta, res.mean_delay, lo)
        details.append(f"eta={eta}: {lo:.6f} <= {res.mean_delay:.6f} <= {hi}")
    _report(2, True, "; ".join(details))


def test_criterion_03_bound_bracketing(bracketing_sweep):
    results, elapsed = bracketing_sweep
    stats = sw.compute_stats(sw.demo_model())
    details = []
    for name, which in (("we", "WE"), ("wd", "WD")):
        for eta in C3_ETAS:
            rows = results[(name, eta)]
            means = [r.mean_delay for r in rows]
            mean = float(np.mean(means))
            se = float(np.std(means, ddof=1) / math.sqrt(len(means)))
            lb = sw.lb_delay(stats, eta, EPS, which).value
            ub = sw.ub_delay(stats, eta, EPS, which)
            assert mean >= lb - 3 * se, (name, eta, mean, lb)
            assert mean <= ub + 3 * se, (name, eta, mean, ub)
            details.append(f"{name}@{eta}:{lb:.2f}<={mean:.2f}<={ub:.2f}")
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 2min"
    _report(3, True, " ".join(details) + f" ({elapsed:.0f}s)")


def test_criterion_04_scaling_we(scaling_runs):
    _, means, _ = scaling_runs
    slope = _slope(C4_ETAS, means["we"])
    ok = 1.6 <= slope <= 2.4
    _report(4, ok, f"deferred-encoding slope {slope:.3f} in [1.6, 2.4]")
    assert ok, f"we slope {slope:.3f} outside [1.6, 2.4]"


def test_criterion_04_scaling_wd(scaling_runs):
    _, means, elapsed = scaling_runs
    slope = _slope(C4_ETAS, means["wd"])
    ok = 1.6 <= slope <= 2.4
    assert elapsed < 600.0, f"runtime {elapsed:.1f}s exceeds 10min"
    _report(4, ok, f"deferred-decoding slope {slope:.3f} in [1.6, 2.4] "
                   f"(workload {elapsed:.0f}s)")
    assert ok, f"wd slope {slope:.3f} outside [1.6, 2.4]"


def test_criterion_04_scaling_known_joint(scaling_runs):
    """Stated window [0.7, 1.3]; measured ~0.29 on this grid.

    The baseline's delay is 1 (encoding) + service (~1 - eta) + queueing,
    and the queueing term sigma_H^2 * (1 - eta)^2 / (2 eta E[H]^2) is only
    ~2.1 blocks at eta = 0.02, so the additive floor flattens the log-log
    fit over eta in {0.5, ..., 0.02}.  The asymptotic 1/eta law would need
    eta well below 0.002 to dominate.  Kept as stated; expected to fail.
    """
    _, means, _ = scaling_runs
    slope = _slope(C4_ETAS, means["known-joint"])
    ok = 0.7 <= slope <= 1.3
    _report(4, ok, f"known-joint slope {slope:.3f} vs stated window [0.7, 1.3]; "
                   f"delays {[round(v, 3) for v in means['known-joint']]}")
    assert ok, (
        f"known-joint slope {slope:.3f} outside the stated [0.7, 1.3]: the "
        f"two-block encoding+service floor dominates the ~2-block queueing "
        f"term over this eta grid (delays {means['known-joint']})"
    )


def test_criterion_05_outage_constraint(bracketing_sweep, scaling_runs):
    results, _ = bracketing_sweep
    runs, _, _ = scaling_runs
    rows = [r for batch in results.values() for r in batch]
    rows += [r for r in runs["we"] + runs["wd"]]
    worst = -math.inf
    for r in rows:
        slack = 3 * math.sqrt(EPS * (1 - EPS) / r.batches)
        assert r.outage_rate <= EPS + slack, (r.strategy, r.eta, r.seed, r.outage_rate)
        worst = max(worst, r.outage_rate - EPS - slack)
    _report(5, True, f"{len(rows)} rows, max(outage - eps - slack) = {worst:.4f}")


def test_criterion_06_bound_spot_values():
    stats = sw.compute_stats(sw.demo_model())
    ub = sw.ub_delay(stats, 0.5, EPS, "WD")
    ktilde = sw.k_c_chernoff(stats, 0.5, EPS).value
    assert abs(ub - (ktilde / 2 + 1.5)) <= 1e-6
    assert abs(ub - UB_WD_05) <= 1e-9
    wd = sw.lb_delay(stats, 0.5, EPS, "WD")
    we = sw.lb_delay(stats, 0.5, EPS, "WE")
    assert wd.argmax == 2 and we.argmax == 2
    assert abs(wd.value - LB_WD_05) <= 1e-9
    assert abs(we.value - LB_WE_05) <= 1e-9
    _report(6, True, f"ub_wd={ub:.6f} (=Ktilde/2+3/2), lb_wd={wd.value:.6f}@2, "
                     f"lb_we={we.value:.6f}@2")


def test_criterion_07_rate_oracle_brute_force():
    t0 = time.perf_counter()
    checked = 0
    model = sw.demo_model()
    pmfs = {g: group_pmf(model, g) for g in (1, 2, 3)}
    for K in range(1, 5):
        for seq in np.ndindex(*(3,) * K):
            seq = [g + 1 for g in seq]
            acc = sw.RateAccumulator(model)
            for g in seq:
                acc.push_block(g)
            for eps in (0.01, 0.3):
                assert acc.rate_quantile(eps) == enum_quantile(
                    [pmfs[g] for g in seq], eps
                )
                checked += 1
    # the collapsed 6-cdf prior, plus random dyadic models up to 6 cdfs
    flat = model.collapse_marginals()
    for K in range(1, 5):
        for eps in (0.01, 0.3):
            assert sw.rate_unconditional(model, K, eps) == enum_quantile(
                [prior_pmf(flat)] * K, eps
            )
            checked += 1
    rng = np.random.default_rng(2024)
    for _ in range(15):
        rmodel = random_dyadic_model(rng)
        K = int(rng.integers(1, 5))
        seq = [int(g) for g in rng.integers(1, rmodel.m + 1, size=K)]
        acc = sw.RateAccumulator(rmodel)
        for g in seq:
            acc.push_block(g)
        for eps in (0.01, 0.2, 0.5):
            assert acc.rate_quantile(eps) == enum_quantile(
                [group_pmf(rmodel, g) for g in seq], eps
            )
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"
    _report(7, True, f"{checked} exact quantile matches ({elapsed:.1f}s)")


def test_criterion_08_codec_properties():
    model = sw.bsc_pair_model(0.1)
    n = 12
    t0 = time.perf_counter()

    # (a) error monotone nonincreasing in rate, averaged over 10 seeds
    rates = (2.0, 4.0, 6.0, 8.0, 10.0)
    mean_err = []
    for rate in rates:
        errs = []
        for seed in range(10):
            cfg = CodecConfig(2, 2, n, 1, delta=0.5, rate_bits=rate, seed=seed)
            errs.append(
                run_codec_trials(model, (1,), cfg, trials=300, seed=500 + seed).err_rate
            )
        mean_err.append(float(np.mean(errs)))
    assert all(a >= b - 1e-12 for a, b in zip(mean_err, mean_err[1:])), mean_err

    # (b) injective rate decodes perfectly
    cfg = CodecConfig(2, 2, n, 1, delta=3.0, rate_bits=float(n), seed=0)
    inj = run_codec_trials(model, (1,), cfg, trials=10_000, seed=42)
    assert inj.errors == 0

    # (c) rate = quantile + n*delta margin keeps the error within 2*eps
    eps = 0.1
    delta = 0.5
    q = sw.RateAccumulator(model).push_block(1).rate_quantile(eps)
    cfg = CodecConfig(2, 2, n, 1, delta=delta, rate_bits=n * (q + delta), seed=0)
    margin = run_codec_trials(model, (1,), cfg, trials=10_000, seed=42)
    assert margin.err_rate <= 2 * eps, margin

    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0, f"runtime {elapsed:.1f}s exceeds 3min"
    _report(8, True, f"monotone {['%.3f' % e for e in mean_err]}, injective 0 "
                     f"errors, margin err {margin.err_rate:.4f} <= {2 * eps} "
                     f"({elapsed:.0f}s)")


def test_criterion_09_ingest_round_trip():
    truth = {
        "low": sw.compute_stats(sw.bsc_pair_model(0.1)).e_h,  # H_b(0.1)
        "high": 1.0,
    }
    trace = synth_trace([PMF_A, PMF_B], [0.5, 0.5], n=500, blocks=2000, seed=77)
    blocks = sw.blockify(trace, n=500)
    result = sw.quantize_model(blocks, joint_levels=2, marginal_levels=1)
    model = result.model
    assert sw.validate_model(model) == []
    assert len(model.entries) == 2
    low, high = sorted(model.entries, key=lambda e: e.cond_entropy)
    assert abs(low.prob - 0.5) <= 0.05 and abs(high.prob - 0.5) <= 0.05
    assert abs(low.cond_entropy - truth["low"]) <= 0.05
    assert abs(high.cond_entropy - truth["high"]) <= 0.05
    _report(9, True,
            f"phi=({low.prob:.3f},{high.prob:.3f}) "
            f"H=({low.cond_entropy:.3f},{high.cond_entropy:.3f}) vs "
            f"({truth['low']:.3f},{truth['high']:.3f})")


def test_criterion_10_cli_determinism(tmp_path):
    model_path = tmp_path / "model.yaml"
    sw.save_model(sw.demo_model(), model_path)
    trace = synth_trace([PMF_A, PMF_B], [0.5, 0.5], n=100, blocks=40, seed=5)
    trace_path = tmp_path / "trace.csv"
    np.savetxt(trace_path, trace, fmt="%d", delimiter=",")

    commands = [
        ["sweep", "--model", str(model_path), "--strategies", "we,wd",
         "--eta-grid", "0.5,0.25", "--epsilon", "0.01", "--blocks", "2000",
         "--seeds", "1,2", "--no-timestamp"],
        ["bounds", "--model", str(model_path), "--epsilon", "0.01",
         "--eta-grid", "0.5,0.25,0.1", "--no-timestamp"],
        ["codec", "--bsc", "0.1", "--n", "8", "--delta", "0.5",
         "--rates", "4,8", "--trials", "200", "--seed", "3", "--no-timestamp"],
        ["ingest", "--input", str(trace_path), "--n", "100",
         "--joint-levels", "2", "--marginal-levels", "1",
         "--out", str(tmp_path / "m.yaml"),
         "--assign-out", "-", "--no-timestamp"],
    ]
    for argv in commands:
        outs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "swdelay", *argv],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, (argv, proc.stderr)
            outs.append(proc.stdout)
        assert outs[0] == outs[1], f"nondeterministic output for {argv[0]}"
    _report(10, True, f"{len(commands)} commands byte-identical on rerun")
