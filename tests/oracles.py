"""Exact renewal-reward values of the quantile-rated strategies, a test-side
oracle that shares nothing with the simulator's segmentation (``_segment``,
its memo and ``_account``).

A ``we`` or ``wd`` batch closes at the first block K at which its
group-count vector v has tail(K*c) <= epsilon, the tail of the sum of v's
conditional entropies.  The decision depends on v alone, so batches are the
cycles of a renewal process.  A forward DP, level K by level K, carries the
probability of reaching each vector of K blocks without having closed, and
gives each closing vector its exact probability.  The renewal-reward theorem
then gives the long-run values with no Monte Carlo noise:

* the ``wd`` mean delay, E[K(K-1)/2 + 2K] / E[K];
* the ``we`` encoding delay W_E, E[K(K+1)/2] / E[K];
* each strategy's per-block outage, E[K P(out | v)] / E[K], where a batch is
  in outage when its entropy sum exceeds what was shipped for it: the
  epsilon-quantile of v's sum for ``we``, K*c for ``wd``.

Each decision pushes v's groups from reset through ``RateAccumulator``, in
group order, and tests ``tail_exceeds(K*c, epsilon)``, the simulator's stop
test; the simulator pushes in arrival order, which can decide a tail within
rounding of epsilon the other way.  States reached with probability below
``prune`` are dropped, and their total mass bounds the error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from swdelay import SourceModel, compute_stats
from swdelay.rate import RateAccumulator


@dataclass(frozen=True)
class ExactRenewal:
    wd_delay: float
    we_w_e: float
    we_outage: float
    wd_outage: float
    pruned: float  # reach probability of the dropped states
    states: int  # count vectors whose stop decision was taken


def exact_renewal(model: SourceModel, c: float, epsilon: float,
                  prune: float = 1e-13) -> ExactRenewal:
    """The exact values of ``model`` at channel rate ``c > E[H]``."""
    stats = compute_stats(model)
    if not c > stats.e_h:
        raise ValueError(f"no batch closes for sure at c = {c} <= E[H] = {stats.e_h}")
    phi = np.asarray(stats.phi) / sum(stats.phi)
    acc = RateAccumulator(model)
    live = {(0,) * model.m: 1.0}
    # sums over closing vectors of P(v) times K, K^2, K P(we out | v), K P(wd out | v)
    sums = np.zeros(4)
    pruned, states, K = 0.0, 0, 0
    while live:
        K += 1
        reach: dict[tuple[int, ...], float] = {}
        for v, p in live.items():
            for g in range(model.m):
                child = v[:g] + (v[g] + 1,) + v[g + 1:]
                reach[child] = reach.get(child, 0.0) + p * phi[g]
        live = {}
        for v, p in reach.items():
            if p < prune:
                pruned += p
                continue
            states += 1
            acc.reset()
            for g, count in enumerate(v, start=1):
                for _ in range(count):
                    acc.push_block(g)
            if acc.tail_exceeds(K * c, epsilon):
                live[v] = p
            else:
                out_we = acc.tail_above(acc.rate_quantile(epsilon))
                sums += p * np.array([K, K * K, K * out_we, K * acc.tail_above(K * c)])
    e_k, e_k2, we_out, wd_out = sums
    return ExactRenewal(
        wd_delay=((e_k2 - e_k) / 2 + 2 * e_k) / e_k,
        we_w_e=(e_k2 + e_k) / 2 / e_k,
        we_outage=we_out / e_k,
        wd_outage=wd_out / e_k,
        pruned=pruned,
        states=states,
    )
