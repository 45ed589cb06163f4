"""Closed-form delay bounds over the heavy-traffic parameter.

Upper bounds come from the worst-case cycle of each strategy with the batch
size replaced by its Chernoff surrogate; lower bounds come from a genie
argument that reveals the joint cdf outside one chosen ambiguous group and
maximises over the candidate groups.  All expressions are evaluated with the
real-valued (un-ceiled) surrogate, so they are continuous in eta, and each
is a finite number or one refusal (``_finite``, ``_over_eta2``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .model import EntropyStats, ModelError, check_epsilon, check_eta, check_mean_entropy

WE = "WE"
WD = "WD"
_MODEL = "the model's conditional entropies are"  # what a model-wide coefficient refuses


def _check_params(stats: EntropyStats, eta: float, epsilon: float) -> None:
    check_epsilon(epsilon)
    check_eta(eta)
    check_mean_entropy(stats.e_h)


def _finite(compute, small: str) -> float:
    """``compute()`` if finite, else a ModelError saying ``small`` is too small;
    a ZeroDivisionError (``e * e`` is 0) or an OverflowError is not finite."""
    try:
        value = compute()
    except (ZeroDivisionError, OverflowError):
        value = math.nan
    if not math.isfinite(value):
        raise ModelError(f"{small} too small for the bounds: a coefficient is not finite")
    return value


def _over_eta2(coef: float, eta: float, small: str) -> float:
    """``coef / eta**2`` (each 1/eta**2 term) if finite, else a refusal of its larger
    factor: ``small`` where coef > 1/eta**2, else eta, which nothing else refuses."""
    eta2 = eta * eta
    if coef * eta2 > 1.0:
        return _finite(lambda: coef / eta2, small)
    if eta2 and math.isfinite(coef / eta2):
        return coef / eta2
    raise ValueError(f"eta = {eta!r} is too small for the bounds: a 1/eta**2 term is not finite")


def _gamma(e: float, var: float, spread: float, eta: float, epsilon: float, small: str) -> float:
    """The 1/eta^2 coefficient for mean entropy e, variance var and spread.

    Written with the variance distributed through the bracket so the
    zero-variance case degenerates to 0 instead of 0/0; a zero-entropy group
    has no variance and no spread either, and its coefficient is 0.
    """
    if e == 0:
        return 0.0
    return _finite(lambda: (-2.0 * math.log(epsilon) / (e * e)) * (
        var * (1.0 - eta) ** 2 + (spread * e / 3.0) * (eta - eta * eta)
    ), small)


class ChernoffBatch(NamedTuple):
    """Closed-form batch-size surrogate: real value and integer ceiling."""

    value: float
    k_int: int


def k_c_chernoff(stats: EntropyStats, eta: float, epsilon: float) -> ChernoffBatch:
    """Chernoff-bound batch size gamma/eta^2 for channel rate c = E[H] / (1 - eta)."""
    _check_params(stats, eta, epsilon)
    if stats.var_h == 0:  # 0.0 also where var_h underflows to 0 and _gamma is tiny
        return ChernoffBatch(0.0, 1)
    value = _over_eta2(_gamma(stats.e_h, stats.var_h, stats.m_h, eta, epsilon, _MODEL), eta, _MODEL)
    return ChernoffBatch(value, max(1, math.ceil(value)))


def gamma_coefficient(stats: EntropyStats, eta: float, epsilon: float) -> float:
    """Leading 1/eta^2 coefficient of the upper bounds."""
    _check_params(stats, eta, epsilon)
    return _gamma(stats.e_h, stats.var_h, stats.m_h, eta, epsilon, _MODEL)


def ub_delay(stats: EntropyStats, eta: float, epsilon: float, which: str) -> float:
    """Worst-case mean-delay upper bound, in blocks."""
    g = gamma_coefficient(stats, eta, epsilon)
    if which == WE:
        return _over_eta2(1.5 * g, eta, _MODEL) + 0.5
    if which == WD:
        return _over_eta2(0.5 * g, eta, _MODEL) + 1.5
    raise ValueError(f"which must be {WE!r} or {WD!r}, got {which!r}")


class BoundCandidate(NamedTuple):
    """Genie-bound diagnostics for one ambiguous-group choice."""

    group: int
    term: float
    gamma: float
    beta: float


class LowerBound(NamedTuple):
    value: float
    argmax: int
    candidates: tuple[BoundCandidate, ...]


def lb_delay(stats: EntropyStats, eta: float, epsilon: float, which: str) -> LowerBound:
    """Genie lower bound: maximum over groups with more than one member."""
    _check_params(stats, eta, epsilon)
    if which not in (WE, WD):
        raise ValueError(f"which must be {WE!r} or {WD!r}, got {which!r}")
    # a group is a candidate exactly when it has several members
    candidates_idx = [i for i in range(stats.m) if stats.group_sizes[i] > 1]
    if not candidates_idx:
        raise ModelError(
            "trivial model: every group has a single member, the marginals "
            "reveal the joint cdf and the genie bound degenerates"
        )

    e = stats.e_h
    coef = 4.0 if which == WE else 2.0
    const = 1.0 / 6.0 if which == WE else 0.5

    out: list[BoundCandidate] = []
    for i in candidates_idx:
        e_i = stats.e_hi[i]
        small = f"group {i + 1}'s probability or conditional entropies are"
        gamma_i = _gamma(e_i, stats.var_hi[i], stats.m_hi[i], eta, epsilon, small)
        others = sum(stats.phi[j] * stats.e_hi[j] for j in range(stats.m) if j != i)
        denom = stats.phi[i] * e_i
        beta = others / denom if denom > 0 else math.inf
        scale = 0.0 if math.isinf(beta) else _finite(
            lambda: coef * gamma_i * e_i / (27.0 * e * (1.0 + beta) ** 2), small)
        # others <= e and phi_i <= 1, so the term is finite where scale / eta**2 is
        term = (1.0 - eta) * others / e + stats.phi[i] * (_over_eta2(scale, eta, small) + const)
        out.append(BoundCandidate(i + 1, term, gamma_i, beta))

    best = max(out, key=lambda cand: (cand.term, -cand.group))
    return LowerBound(best.term, best.group, tuple(out))


@dataclass(frozen=True)
class BoundsRow:
    eta: float
    ub_we: float
    ub_wd: float
    lb_we: float
    lb_wd: float
    gamma: float
    argmax_istar: int


def bounds_report(
    stats: EntropyStats, eta_grid: Iterable[float], epsilon: float
) -> tuple[BoundsRow, ...]:
    """Evaluate both bounds over an eta grid (argmax column follows the WE bound).

    Rows are returned as computed, and ``swdelay bounds`` exits 2 on a crossed
    one; crossed rows have been seen only where c = E[H]/(1 - eta) reaches
    h_max (a batch there closes alone only if the one-block test says so).
    """
    rows = []
    for eta in eta_grid:
        gamma = gamma_coefficient(stats, eta, epsilon)  # the model's refusal before a group's
        lwe = lb_delay(stats, eta, epsilon, WE)
        rows.append(BoundsRow(
            eta=eta,
            ub_we=ub_delay(stats, eta, epsilon, WE),
            ub_wd=ub_delay(stats, eta, epsilon, WD),
            lb_we=lwe.value,
            lb_wd=lb_delay(stats, eta, epsilon, WD).value,
            gamma=gamma,
            argmax_istar=lwe.argmax,
        ))
    return tuple(rows)
