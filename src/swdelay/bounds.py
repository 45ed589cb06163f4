"""Closed-form delay bounds over the heavy-traffic parameter.

Upper bounds come from the worst-case cycle of each strategy with the batch
size replaced by its Chernoff surrogate; lower bounds come from a genie
argument that reveals the joint cdf outside one chosen ambiguous group and
maximises over the candidate groups.  All expressions are evaluated with the
real-valued (un-ceiled) surrogate, so they are continuous in eta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .model import EntropyStats, ModelError

WE = "WE"
WD = "WD"


def _check_params(stats: EntropyStats, eta: float, epsilon: float) -> None:
    if stats.e_h <= 0:
        raise ModelError("the mean conditional entropy is 0: the channel rate "
                         "E[H]/(1 - eta) is 0 and the bounds are undefined")
    if not 0 < eta < 1:
        raise ValueError(f"eta must be in (0, 1), got {eta}")
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")


def gamma_coefficient(stats: EntropyStats, eta: float, epsilon: float) -> float:
    """Leading 1/eta^2 coefficient of the upper bounds.

    Written with the variance distributed through the bracket so the
    zero-variance model degenerates to 0 instead of 0/0.
    """
    _check_params(stats, eta, epsilon)
    e = stats.e_h
    return (-2.0 * math.log(epsilon) / (e * e)) * (
        stats.var_h * (1.0 - eta) ** 2 + (stats.m_h * e / 3.0) * (eta - eta * eta)
    )


def ub_delay(stats: EntropyStats, eta: float, epsilon: float, which: str) -> float:
    """Worst-case mean-delay upper bound, in blocks."""
    g = gamma_coefficient(stats, eta, epsilon)
    if which == WE:
        return 1.5 * g / (eta * eta) + 0.5
    if which == WD:
        return 0.5 * g / (eta * eta) + 1.5
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
        # a zero-entropy group has no variance and no spread: gamma_i = 0, as
        # for the zero-variance model in gamma_coefficient
        gamma_i = 0.0 if e_i == 0 else (-2.0 * math.log(epsilon) / (e_i * e_i)) * (
            stats.var_hi[i] * (1.0 - eta) ** 2
            + (stats.m_hi[i] * e_i / 3.0) * (eta - eta * eta)
        )
        others = sum(
            stats.phi[j] * stats.e_hi[j] for j in range(stats.m) if j != i
        )
        denom = stats.phi[i] * e_i
        beta = others / denom if denom > 0 else math.inf
        scale = 0.0 if math.isinf(beta) else coef * gamma_i * e_i / (
            27.0 * e * (1.0 + beta) ** 2
        )
        term = (1.0 - eta) * others / e + stats.phi[i] * (
            scale / (eta * eta) + const
        )
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
    """Evaluate both bounds over an eta grid (argmax column follows the WE bound)."""
    rows = []
    for eta in eta_grid:
        lwe = lb_delay(stats, eta, epsilon, WE)
        row = BoundsRow(
            eta=eta,
            ub_we=ub_delay(stats, eta, epsilon, WE),
            ub_wd=ub_delay(stats, eta, epsilon, WD),
            lb_we=lwe.value,
            lb_wd=lb_delay(stats, eta, epsilon, WD).value,
            gamma=gamma_coefficient(stats, eta, epsilon),
            argmax_istar=lwe.argmax,
        )
        if row.ub_we < row.lb_we or row.ub_wd < row.lb_wd:
            raise AssertionError(
                f"bound bracketing violated at eta={eta}: {row}"
            )
        rows.append(row)
    return tuple(rows)
