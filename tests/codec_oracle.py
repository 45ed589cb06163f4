"""An exact decoder for ``swdelay.codec``, written from the module's
definitions and sharing none of its typicality or scoring code.

The code is the codebook's bin map (``Codebook._bins_of``), which defines it.
The encoder sends each stage's bin, or bin 1 for a stage whose prefix is not
X-typical under the observed groups' marginals.  A message's candidates are
the X-typical sequences whose bins equal it.  A hypothesis is one member per
observed block, in lexicographic member order, with posterior the product of
``prob / phi`` over its blocks.  The decoder keeps, for each candidate, the
highest posterior of a hypothesis under which y is Y-typical and the pair
XY-typical, and returns the candidate with the highest positive one (the
lowest sequence index on ties), or -1 when none is positive.

Typicality sums each block's log-likelihoods with ``.sum(axis=-1)`` and adds
the block sums left to right; another order can decide a pair on the delta
boundary the other way.

Errors split as ``CodecTrialReport`` documents: eps1 when the pair is not
X-, Y- and XY-typical under the true hypothesis or a stage prefix is not
X-typical; eps2 when another candidate of the sent message is Y- and
XY-typical with y under the true hypothesis; eps3 otherwise.
"""

from __future__ import annotations

import itertools

import numpy as np

from swdelay.codec import _TYP_TOL, CodecTrialReport


def entropy_bits(pmf) -> float:
    """Shannon entropy of a pmf of any shape, by a plain 1-D sum over its
    positive cells."""
    p = np.asarray(pmf, dtype=float).ravel()
    p = p[p > 0]
    return float(-np.sum(p * np.log2(p)))


def log2(pmf) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log2(np.asarray(pmf, dtype=float))


def log_likelihood(ll: np.ndarray, k: int) -> np.ndarray:
    """Log-likelihood of the first k blocks of the per-symbol log-likelihoods
    ``ll`` (..., K, n): each block summed, the block sums added in order."""
    sums = ll[..., :k, :].sum(axis=-1)
    total = sums[..., 0]
    for j in range(1, k):
        total = total + sums[..., j]
    return total


def within(total: np.ndarray, h: np.ndarray, delta: float, k: int, n: int) -> np.ndarray:
    """Whether k blocks of n symbols with log-likelihood ``total`` are
    typical: per symbol within delta of ``h[k-1] / k``, where ``h`` holds the
    cumulative block entropies."""
    return np.abs(-total / (k * n) - h[k - 1] / k) <= delta + _TYP_TOL


def typical(ll: np.ndarray, h: np.ndarray, delta: float, k: int | None = None) -> np.ndarray:
    """Typicality of the first k (default all) blocks of ``ll`` (..., K, n)."""
    k = ll.shape[-2] if k is None else k
    return within(log_likelihood(ll, k), h, delta, k, ll.shape[-1])


def _all_sequences(alphabet: int, K: int, n: int) -> np.ndarray:
    """(alphabet**(K*n), K, n) array of every sequence in lexicographic order."""
    return np.array(list(itertools.product(range(alphabet), repeat=K * n))).reshape(-1, K, n)


class Laws:
    """Per-block log pmfs and cumulative entropies of a sequence of cdfs."""

    def __init__(self, entries):
        pmfs = [e.joint_pmf for e in entries]
        self.block = np.arange(len(pmfs))[:, None]
        self.log_x = log2([p.sum(axis=1) for p in pmfs])
        self.log_y = log2([p.sum(axis=0) for p in pmfs])
        self.log_xy = log2(pmfs)
        self.h_x = np.cumsum([entropy_bits(p.sum(axis=1)) for p in pmfs])
        self.h_y = np.cumsum([entropy_bits(p.sum(axis=0)) for p in pmfs])
        self.h_xy = np.cumsum([entropy_bits(p) for p in pmfs])

    def ll_x(self, x):
        return self.log_x[self.block, x]

    def ll_xy(self, x, y):
        return self.log_xy[self.block, x, y]

    def y_typical(self, y, delta):
        return typical(self.log_y[self.block, y], self.h_y, delta)


class ExactCodec:
    """The decoder and error classifier of one codebook at one rate, by
    enumeration."""

    def __init__(self, model, groups, book, rate_bits):
        n, delta, K = book.n, book.delta, len(groups)
        self.book, self.delta = book, delta
        ends = (K,) if book.kind == "batch" else tuple(range(1, K + 1))
        self.alphabet_y = model.group_entries(groups[0])[0].joint_pmf.shape[1]
        self.seqs = _all_sequences(book.alphabet_x, K, n)
        marginals = Laws([model.group_entries(g)[0] for g in groups])
        ll = marginals.ll_x(self.seqs)
        self.stages = np.stack([typical(ll, marginals.h_x, delta, end) for end in ends], -1)
        raw = book._bins_of(np.arange(len(self.seqs)), book.bins(rate_bits))
        self.sent = np.where(self.stages, raw, 1)
        self.in_bin = {}  # message -> its candidates, in index order
        for i in np.flatnonzero(self.stages[:, -1]):  # the last stage is the whole sequence
            self.in_bin.setdefault(tuple(raw[i]), []).append(i)
        self.in_bin = {m: np.array(c) for m, c in self.in_bin.items()}
        members = [model.group_entries(g) for g in groups]
        phis = [sum(e.prob for e in mem) for mem in members]
        self.laws, posts = [], []
        for combo in itertools.product(*members):
            post = 1.0
            for e, phi in zip(combo, phis):
                post = post * e.prob / phi
            self.laws.append(Laws(combo))
            posts.append(post)
        self.posts = np.array(posts)

    def joint(self, x, y) -> np.ndarray:
        """Y and XY typicality of the pairs of x and y, (..., K, n) arrays that
        broadcast, under each hypothesis on a last axis."""
        return np.stack([law.y_typical(y, self.delta)
                         & typical(law.ll_xy(x, y), law.h_xy, self.delta)
                         for law in self.laws], axis=-1)

    def decode(self, message, y) -> tuple[int, np.ndarray, np.ndarray]:
        """The decoded sequence index (-1 if none), the message's candidates
        and their joint typicality under each hypothesis."""
        cand = self.in_bin.get(tuple(message), np.zeros(0, dtype=int))
        joint = self.joint(self.seqs[cand], np.asarray(y))
        best = np.where(joint, self.posts, 0.0).max(axis=-1, initial=0.0)
        top = best.max(initial=0.0)
        won = int(cand[np.argmax(best == top)]) if top > 0 else -1
        return won, cand, joint

    def replay(self, trials: int, seed: int) -> tuple[CodecTrialReport, int]:
        """Decode and classify each pair of the codebook's own draw of
        ``(trials, seed)``; also returns how many decodes found no candidate
        with a positive posterior."""
        index, y, true_hyp = self.book.draw(trials, seed)[:3]
        errors = undecoded = eps1 = eps2 = eps3 = 0
        for i, yt, h in zip(index, y.astype(np.int64), true_hyp):
            won, cand, joint = self.decode(self.sent[i], yt)
            if won == i:
                continue
            errors += 1
            undecoded += won < 0
            law, x = self.laws[h], self.seqs[i]
            if not (self.stages[i].all() and typical(law.ll_x(x), law.h_x, self.delta)
                    and self.joint(x, yt)[h]):
                eps1 += 1
            elif (joint[:, h] & (cand != i)).any():
                eps2 += 1
            else:
                eps3 += 1
        return CodecTrialReport(trials, errors, eps1, eps2, eps3), undecoded

    def error_probability(self) -> np.ndarray:
        """Exact (error, eps1, eps2, eps3) probabilities: the sum over
        hypotheses h and pairs (x, y) of P(h) p_h(x, y) times each event's
        indicator, taken 16 y at a time."""
        seqs, (K, n) = self.seqs, self.seqs.shape[1:]
        ys = _all_sequences(self.alphabet_y, K, n)
        bins = list(self.in_bin.values())
        none = len(bins)  # the message id of a message without candidates
        msg_id = {m: j for j, m in enumerate(self.in_bin)}
        sent_id = np.array([msg_id.get(tuple(m), none) for m in self.sent])
        own = np.full(len(seqs), none)  # x is decoded only as a candidate of what it sends
        for j, c in enumerate(bins):
            own[c] = j
        own[own != sent_id] = none
        x_typical = [self.stages.all(-1) & typical(law.ll_x(seqs), law.h_x, self.delta)
                     for law in self.laws]
        totals = np.zeros(4)
        for lo in range(0, len(ys), 16):
            y = ys[lo:lo + 16, None]
            ll = [log_likelihood(law.ll_xy(seqs[None], y), K) for law in self.laws]
            joint = np.stack([law.y_typical(y, self.delta) & within(t, law.h_xy, self.delta, K, n)
                              for law, t in zip(self.laws, ll)], axis=-1)  # (y, x, hypothesis)
            best = np.where(joint, self.posts, 0.0).max(axis=-1)
            won = np.full((len(y), none + 1), -1)
            count = np.zeros((len(self.laws), len(y), none + 1), dtype=int)
            for j, c in enumerate(bins):
                won[:, j] = np.where(best[:, c].max(axis=1) > 0, c[best[:, c].argmax(axis=1)], -1)
                count[:, :, j] = joint[:, c].sum(axis=1).T
            wrong = won[:, own] != np.arange(len(seqs))
            for h, law in enumerate(self.laws):
                p = np.exp2(ll[h]) * self.posts[h]
                others = count[h][:, sent_id] - (joint[..., h] & (own < none))
                pair = x_typical[h] & joint[..., h]
                totals += [(p * wrong).sum(), (p * wrong * ~pair).sum(),
                           (p * wrong * pair * (others > 0)).sum(),
                           (p * wrong * pair * (others == 0)).sum()]
        return totals
