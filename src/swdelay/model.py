"""Source model: the finite set of possible joint cdfs and its statistics.

A model is a collection of joint-distribution hypotheses organised into
*marginal groups*: every member of a group shares the same pair of marginal
distributions, so observing the marginals of a block reveals the group index
but not the member.  Each entry carries a prior probability and the
conditional entropy H(X|Y) in bits per symbol; an explicit joint pmf is
optional and only needed by the symbol-level codec.

The delay simulators operate purely on the conditional entropies: blocks are
never materialised as symbols here.  A model is checked once, when it is
built: an invalid ``SourceModel`` cannot be constructed.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
import yaml

from .entropy import cond_entropy_x_given_y_bits, marginal_x, marginal_y

PROB_TOL = 1e-12
MARGINAL_TOL = 1e-12
ENTROPY_TOL = 1e-9


class ModelError(ValueError):
    """Raised when an operation is given an invalid source model."""

    def __init__(self, message: str, violations: list[str] | None = None):
        super().__init__(message)
        self.violations = violations or []  # an invalid model's broken invariants


# each run quantity is checked here, so every caller gives the same message

def check_epsilon(epsilon: float | None) -> None:
    """Raises ValueError unless the outage target is in (0, 1)."""
    if epsilon is None or not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")


def check_eta(eta: float) -> None:
    """Raises ValueError unless the heavy-traffic parameter is in (0, 1)."""
    if not 0 < eta < 1:
        raise ValueError(f"eta must be in (0, 1), got {eta}")


def check_blocks(T: int) -> None:
    """Raises ValueError unless a block count is at least 1."""
    if T < 1:
        raise ValueError(f"block count must be >= 1, got {T}")


@dataclass(frozen=True)
class CdfEntry:
    """One joint-cdf hypothesis: group/member indices, prior weight and H(X|Y)."""

    group: int
    member: int
    prob: float
    cond_entropy: float
    joint_pmf: np.ndarray | None = None

    def __post_init__(self):
        if self.joint_pmf is not None:
            pmf = np.asarray(self.joint_pmf, dtype=float)
            if pmf.ndim != 2:
                raise ModelError("joint_pmf must be a 2-D table (rows = x symbols)")
            object.__setattr__(self, "joint_pmf", pmf)


@dataclass(frozen=True)
class SourceModel:
    """The full hypothesis set, grouped by shared marginals.

    ``block_len_n`` (symbols per block) and ``slot_seconds`` are carried for
    reporting only; the entropy-level simulators are invariant to them.
    """

    entries: tuple[CdfEntry, ...]
    block_len_n: int = 1
    slot_seconds: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if bad := validate_model(self):
            raise ModelError("invalid model: " + "; ".join(bad), bad)

    @property
    def m(self) -> int:
        """Number of marginal groups."""
        return max((e.group for e in self.entries), default=0)

    @property
    def group_sizes(self) -> tuple[int, ...]:
        sizes = [0] * self.m
        for e in self.entries:
            sizes[e.group - 1] += 1
        return tuple(sizes)

    @property
    def m_star(self) -> int:
        """Number of groups whose marginals pin down the joint cdf (size 1)."""
        return sum(1 for l in self.group_sizes if l == 1)

    def group_entries(self, group: int) -> tuple[CdfEntry, ...]:
        found = tuple(e for e in self.entries if e.group == group)
        if not found:
            raise ModelError(f"unknown group index {group}")
        return found

    def conditional_pmf(self, group: int) -> tuple[np.ndarray, np.ndarray]:
        """Entropy values and probabilities of the group, normalised to 1."""
        mem = self.group_entries(group)
        phi = sum(e.prob for e in mem)
        vals = np.array([e.cond_entropy for e in mem], dtype=float)
        probs = np.array([e.prob / phi for e in mem], dtype=float)
        return vals, probs

    def prior_pmf(self) -> tuple[np.ndarray, np.ndarray]:
        """Entropy values and prior probabilities over all entries."""
        vals = np.array([e.cond_entropy for e in self.entries], dtype=float)
        probs = np.array([e.prob for e in self.entries], dtype=float)
        return vals, probs

    def collapse_marginals(self) -> "SourceModel":
        """Merge every group into one, i.e. forget the marginal information.

        The collapsed model has m = 1 and the same prior over conditional
        entropies, which is exactly the worst case of the delay analysis.  It
        is an entropy-level model: the joint pmfs are dropped, since members
        of different groups do not share marginals.
        """
        merged = tuple(
            CdfEntry(1, j + 1, e.prob, e.cond_entropy)
            for j, e in enumerate(self.entries)
        )
        return SourceModel(merged, self.block_len_n, self.slot_seconds)


@dataclass(frozen=True)
class EntropyStats:
    """Moments of the conditional-entropy process, overall and per group."""

    e_h: float
    var_h: float
    h_max: float
    m_h: float
    m_star: int
    phi: tuple[float, ...]
    e_hi: tuple[float, ...]
    var_hi: tuple[float, ...]
    h_maxi: tuple[float, ...]
    m_hi: tuple[float, ...]
    group_sizes: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.phi)


class BlockTrace:
    """I.i.d. per-block joint-cdf draws: group, member and H(X|Y) arrays."""

    __slots__ = ("groups", "members", "h")

    def __init__(self, groups: np.ndarray, members: np.ndarray, h: np.ndarray):
        self.groups = groups
        self.members = members
        self.h = h

    def __len__(self) -> int:
        return len(self.groups)


def validate_model(model: SourceModel) -> list[str]:
    """Every broken model invariant, one line each.  A SourceModel runs this
    once, when it is built, so an invalid model cannot be constructed."""
    bad: list[str] = []
    if not model.entries:
        return ["model has no cdf entries"]

    total = 0.0
    seen: set[tuple[int, int]] = set()
    for e in model.entries:
        label = f"cdf ({e.group},{e.member})"
        if not 0 < e.prob < math.inf:
            bad.append(f"{label}: prob must be positive and finite, got {e.prob}")
        if not 0 <= e.cond_entropy < math.inf:
            bad.append(f"{label}: cond_entropy must be >= 0 and finite, got {e.cond_entropy}")
        if (e.group, e.member) in seen:
            bad.append(f"{label}: duplicate index")
        seen.add((e.group, e.member))
        total += e.prob
        if e.joint_pmf is not None:
            pmf = e.joint_pmf
            if not np.isfinite(pmf).all():
                bad.append(f"{label}: joint_pmf has non-finite entries")
            elif np.any(pmf < 0):
                bad.append(f"{label}: joint_pmf has negative entries")
            elif abs(float(pmf.sum()) - 1.0) > PROB_TOL:
                bad.append(f"{label}: joint_pmf sums to {float(pmf.sum())!r}, not 1")
            else:
                h = cond_entropy_x_given_y_bits(pmf)
                if abs(h - e.cond_entropy) > ENTROPY_TOL:
                    bad.append(
                        f"{label}: joint_pmf conditional entropy {h!r} does not "
                        f"match declared cond_entropy {e.cond_entropy!r}"
                    )
    if abs(total - 1.0) > PROB_TOL:
        bad.append(f"prior does not sum to 1 (got {total!r})")

    # contiguous 1..m group indices, contiguous 1..l_i member indices
    groups = sorted({e.group for e in model.entries})
    if groups != list(range(1, len(groups) + 1)):
        bad.append(f"group indices not contiguous from 1: {groups}")
    for g in groups:
        members = sorted(e.member for e in model.entries if e.group == g)
        if members != list(range(1, len(members) + 1)):
            bad.append(f"group {g}: member indices not contiguous from 1: {members}")

    # members of a group must share both marginals (when pmfs are present)
    for g in groups:
        mem = [e for e in model.entries if e.group == g and e.joint_pmf is not None]
        if len(mem) < 2:
            continue
        ref = mem[0]
        for e in mem[1:]:
            if e.joint_pmf.shape != ref.joint_pmf.shape:
                bad.append(f"group {g}: members declare different alphabets")
                continue
            dx = np.max(np.abs(marginal_x(e.joint_pmf) - marginal_x(ref.joint_pmf)))
            dy = np.max(np.abs(marginal_y(e.joint_pmf) - marginal_y(ref.joint_pmf)))
            if dx > MARGINAL_TOL or dy > MARGINAL_TOL:
                bad.append(
                    f"group {g}: cdf ({e.group},{e.member}) marginals deviate from "
                    f"member 1 by ({dx:.3g}, {dy:.3g})"
                )

    n = model.block_len_n
    if not (isinstance(n, numbers.Integral) and not isinstance(n, bool) and n >= 1):
        bad.append(f"block_len_n must be an integer >= 1, got {n!r}")
    if model.slot_seconds is not None and not 0 < model.slot_seconds < math.inf:
        bad.append(f"slot_seconds must be positive and finite, got {model.slot_seconds}")
    return bad


def compute_stats(model: SourceModel) -> EntropyStats:
    """Exact moments of H_(t)(X|Y) under the prior, overall and per group."""
    vals, probs = model.prior_pmf()
    e_h = float(np.dot(probs, vals))
    var_h = float(np.dot(probs, (vals - e_h) ** 2))
    h_max = float(vals.max())

    phi, e_hi, var_hi, h_maxi, m_hi = [], [], [], [], []
    for g in range(1, model.m + 1):
        gv, gp = model.conditional_pmf(g)
        w = sum(e.prob for e in model.group_entries(g))
        mu = float(np.dot(gp, gv))
        phi.append(w)
        e_hi.append(mu)
        var_hi.append(float(np.dot(gp, (gv - mu) ** 2)))
        h_maxi.append(float(gv.max()))
        m_hi.append(float(gv.max()) - mu)

    return EntropyStats(
        e_h=e_h,
        var_h=var_h,
        h_max=h_max,
        m_h=h_max - e_h,
        m_star=model.m_star,
        phi=tuple(phi),
        e_hi=tuple(e_hi),
        var_hi=tuple(var_hi),
        h_maxi=tuple(h_maxi),
        m_hi=tuple(m_hi),
        group_sizes=model.group_sizes,
    )


def sample_trace(model: SourceModel, T: int, seed: int) -> BlockTrace:
    """Draw T i.i.d. block cdfs from the prior; deterministic given seed."""
    check_blocks(T)
    rng = np.random.default_rng(seed)
    probs = np.array([e.prob for e in model.entries], dtype=float)
    probs = probs / probs.sum()
    idx = rng.choice(len(model.entries), size=T, p=probs)
    groups = np.array([e.group for e in model.entries], dtype=np.int64)[idx]
    members = np.array([e.member for e in model.entries], dtype=np.int64)[idx]
    h = np.array([e.cond_entropy for e in model.entries], dtype=float)[idx]
    return BlockTrace(groups, members, h)


def demo_model() -> SourceModel:
    """Built-in six-cdf model with three marginal groups (H values = i + j)."""
    spec = [
        (1, 1, 0.10),
        (2, 1, 0.20),
        (2, 2, 0.20),
        (3, 1, 0.12),
        (3, 2, 0.19),
        (3, 3, 0.19),
    ]
    entries = tuple(CdfEntry(g, j, p, float(g + j)) for g, j, p in spec)
    return SourceModel(entries)


def bsc_pair_model(crossover: float) -> SourceModel:
    """Single-cdf model of a uniform binary source observed through a BSC."""
    if not 0 < crossover < 0.5:
        raise ValueError("crossover must be in (0, 0.5)")
    p = crossover
    joint = np.array([[(1 - p) / 2, p / 2], [p / 2, (1 - p) / 2]])
    h = cond_entropy_x_given_y_bits(joint)
    return SourceModel((CdfEntry(1, 1, 1.0, h, joint),))


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------

# libyaml when PyYAML was built with it (about 7x faster on learned models);
# both loaders parse to the same documents
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_TOP_KEYS = {"groups", "block_len_n", "slot_seconds"}
_MEMBER_KEYS = {"prob", "cond_entropy", "joint_pmf"}
_PMF_KEYS = {"alphabet_x", "alphabet_y", "table"}


def _reject_unknown(mapping: dict, allowed: set[str], where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ModelError(f"{where}: unknown keys {sorted(unknown)}")


def _number(value, field: str, where: str) -> float:
    """A numeric field of a model file as a float; its range is checked when
    the model is built.  A YAML boolean is not a number; a numeric string is
    (PyYAML reads ``1e-05``, with no dot, as a string)."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ModelError(f"{where}: {field} must be a number, got {value!r}")


def _count(value, field: str, where: str) -> int:
    """An integer field of a model file that must be >= 1 (an alphabet size)."""
    x = _number(value, field, where)
    if not (x.is_integer() and x >= 1):
        raise ModelError(f"{where}: {field} must be an integer >= 1, got {value!r}")
    return int(x)


def load_model(path) -> SourceModel:
    """Read a model config file (YAML tree; unknown keys are rejected)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.load(fh, Loader=_YAML_LOADER)
        except yaml.YAMLError as exc:
            raise ModelError(f"malformed YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelError("model file must contain a mapping at the top level")
    _reject_unknown(doc, _TOP_KEYS, "model file")
    raw_groups = doc.get("groups")
    if not isinstance(raw_groups, list) or not raw_groups:
        raise ModelError("model file: 'groups' must be a non-empty list")

    entries: list[CdfEntry] = []
    for gi, grp in enumerate(raw_groups, start=1):
        if not isinstance(grp, dict):
            raise ModelError(f"group {gi}: expected a mapping")
        _reject_unknown(grp, {"members"}, f"group {gi}")
        members = grp.get("members")
        if not isinstance(members, list) or not members:
            raise ModelError(f"group {gi}: 'members' must be a non-empty list")
        for ji, mem in enumerate(members, start=1):
            if not isinstance(mem, dict):
                raise ModelError(f"cdf ({gi},{ji}): expected a mapping")
            _reject_unknown(mem, _MEMBER_KEYS, f"cdf ({gi},{ji})")
            if "prob" not in mem or "cond_entropy" not in mem:
                raise ModelError(f"cdf ({gi},{ji}): prob and cond_entropy required")
            where = f"cdf ({gi},{ji})"
            pmf = None
            if mem.get("joint_pmf") is not None:
                raw = mem["joint_pmf"]
                if not isinstance(raw, dict):
                    raise ModelError(f"{where}: joint_pmf must be a mapping")
                _reject_unknown(raw, _PMF_KEYS, f"{where} joint_pmf")
                shape = [_count(raw.get(f), f, where) for f in ("alphabet_x", "alphabet_y")]
                try:
                    pmf = np.array(raw["table"], dtype=float).reshape(shape)
                except (KeyError, TypeError, ValueError) as exc:
                    raise ModelError(f"{where}: bad joint_pmf: {exc}") from exc
            entries.append(CdfEntry(gi, ji, _number(mem["prob"], "prob", where),
                                    _number(mem["cond_entropy"], "cond_entropy", where), pmf))

    n = _number(doc.get("block_len_n", 1), "block_len_n", "model file")
    slot = doc.get("slot_seconds")
    return SourceModel(tuple(entries), int(n) if n.is_integer() else n,
                       None if slot is None else _number(slot, "slot_seconds", "model file"))


def _yaml_floats(values) -> list[str]:
    """Finite floats as PyYAML writes them: each repr (lower case already),
    with ".0" put before an exponent that has no decimal point (1e-05 -> 1.0e-05)."""
    texts = [repr(float(v)) for v in values]
    return [t.replace("e", ".0e", 1) if "e" in t and "." not in t else t for t in texts]


def save_model(model: SourceModel, path) -> None:
    """Write a model in the schema load_model reads.

    The text is the block layout ``yaml.dump(..., sort_keys=False)`` gives the
    model's document, byte for byte, built as one string: every number of a
    valid model is finite, so each is one plain scalar on its own line.
    """
    parts = ["groups:\n"]
    for g in range(1, model.m + 1):
        parts.append("- members:\n")
        for e in model.group_entries(g):
            prob, h = _yaml_floats((e.prob, e.cond_entropy))
            parts.append(f"  - prob: {prob}\n    cond_entropy: {h}\n")
            if e.joint_pmf is not None:
                ax, ay = e.joint_pmf.shape
                table = "\n      - ".join(_yaml_floats(e.joint_pmf.ravel().tolist()))
                parts.append(f"    joint_pmf:\n      alphabet_x: {ax}\n      alphabet_y: {ay}\n"
                             f"      table:\n      - {table}\n")
    parts.append(f"block_len_n: {int(model.block_len_n)}\n")
    if model.slot_seconds is not None:
        parts.append(f"slot_seconds: {_yaml_floats((model.slot_seconds,))[0]}\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(parts))
