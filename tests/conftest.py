"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the package's own code paths: quantiles
by exhaustive enumeration over cdf sequences, queue delays by the Lindley
recursion, bounds by a direct transliteration of the closed forms.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from swdelay import CdfEntry, SourceModel, demo_model

CRITERION_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    """Surface the acceptance criteria pass/fail lines in every run."""
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def six_cdf_model() -> SourceModel:
    return demo_model()


@pytest.fixture
def single_cdf_model() -> SourceModel:
    return SourceModel((CdfEntry(1, 1, 1.0, 2.0),))


def enum_quantile(pmfs: list[list[tuple[float, float]]], eps: float) -> float:
    """Smallest sum value R with P{sum > R} <= eps, by full enumeration.

    ``pmfs`` holds one [(h, p), ...] list per block.
    """
    atoms: dict[float, float] = {}
    for combo in itertools.product(*pmfs):
        s = 0.0
        p = 1.0
        for h, q in combo:
            s += h
            p *= q
        atoms[s] = atoms.get(s, 0.0) + p
    for v in sorted(atoms):
        tail = sum(p for s, p in atoms.items() if s > v)
        if tail <= eps:
            return v
    raise AssertionError("unreachable: the largest atom has zero tail")


def enum_tail(pmfs: list[list[tuple[float, float]]], threshold: float) -> float:
    """P{sum > threshold} by full enumeration."""
    tail = 0.0
    for combo in itertools.product(*pmfs):
        s = sum(h for h, _ in combo)
        if s > threshold:
            tail += math.prod(q for _, q in combo)
    return tail


def group_pmf(model: SourceModel, group: int) -> list[tuple[float, float]]:
    vals, probs = model.conditional_pmf(group)
    return list(zip(vals.tolist(), probs.tolist()))


def prior_pmf(model: SourceModel) -> list[tuple[float, float]]:
    vals, probs = model.prior_pmf()
    return list(zip(vals.tolist(), probs.tolist()))


def lindley_wc(bits: list[float], arrivals: list[float], rate: float) -> list[float]:
    """Transmission delays of FIFO messages via the Lindley recursion."""
    out = []
    wait = 0.0
    prev_arrival = None
    prev_service = 0.0
    for b, a in zip(bits, arrivals):
        service = b / rate
        if prev_arrival is not None:
            wait = max(0.0, wait + prev_service - (a - prev_arrival))
        out.append(wait + service)
        prev_arrival, prev_service = a, service
    return out


def two_group_pmf_model(with_pmfs: bool = True) -> SourceModel:
    """Two one-member groups whose 2x2 joint pmfs have different marginals
    (optionally without the pmfs, at the entropy level only)."""
    entries = []
    for g, table in enumerate(([[0.4, 0.1], [0.1, 0.4]], [[0.6, 0.1], [0.1, 0.2]]), 1):
        p = np.array(table)
        h = float(-(p * np.log2(p / p.sum(axis=0))).sum())  # H(X|Y), rows = x
        entries.append(CdfEntry(g, 1, 0.5, h, p if with_pmfs else None))
    return SourceModel(tuple(entries))


def random_dyadic_model(rng: np.random.Generator, max_groups: int = 3,
                        max_total: int = 6) -> SourceModel:
    """Random model whose entropies are exact dyadics (sums stay exact)."""
    m = int(rng.integers(1, max_groups + 1))
    sizes = []
    remaining = max_total - m
    for i in range(m):
        extra = int(rng.integers(0, remaining + 1)) if remaining > 0 else 0
        sizes.append(1 + extra)
        remaining -= extra
    weights = rng.integers(1, 20, size=sum(sizes)).astype(float)
    weights /= weights.sum()
    entries = []
    pos = 0
    for g, size in enumerate(sizes, start=1):
        for j in range(1, size + 1):
            h = int(rng.integers(0, 41)) / 8.0  # multiples of 1/8 in [0, 5]
            entries.append(CdfEntry(g, j, float(weights[pos]), h))
            pos += 1
    return SourceModel(tuple(entries))


def random_offlattice_model(rng: np.random.Generator) -> SourceModel:
    """Several groups of 1-16 members with uniform random entropies in [0, 1).

    The first group has one member, so its one-cell kernel keeps the dense path.
    """
    sizes = rng.integers(1, 17, size=int(rng.integers(2, 5)))
    sizes[0] = 1
    weights = rng.random(int(sizes.sum())) + 0.05
    weights /= weights.sum()
    entries = []
    pos = 0
    for g, size in enumerate(sizes, start=1):
        for j in range(1, int(size) + 1):
            entries.append(CdfEntry(g, j, float(weights[pos]), float(rng.random())))
            pos += 1
    return SourceModel(tuple(entries))
