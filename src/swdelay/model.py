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
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby

import numpy as np
import yaml

from .entropy import cond_entropies_bits, cond_entropy_x_given_y_bits

PROB_TOL = 1e-12
MARGINAL_TOL = 1e-12
ENTROPY_TOL = 1e-9


class ModelError(ValueError):
    """Raised when an operation is given an invalid source model."""

    def __init__(self, message: str, violations: list[str] | None = None):
        super().__init__(message)
        self.violations = violations or []  # an invalid model's broken invariants


# each run quantity is checked here, so every caller gives the same message

def _is_integer(value) -> bool:
    """A Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A Python or numpy integer or float; a bool is not one."""
    return _is_integer(value) or isinstance(value, (float, np.floating))


def check_count(name: str, value, low: int = 1, high: int | None = None,
                error: type[ValueError] = ValueError) -> int:
    """``value`` as an int if it is a Python or numpy integer (not a bool) from
    ``low`` to ``high`` (None: no bound), else raises ``error`` naming it."""
    if not _is_integer(value):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < low or high is not None and value > high:
        bound = f">= {low}" if high is None else f"between {low} and {high}"
        raise error(f"{name} must be {bound}, got {value}")
    return int(value)


def check_epsilon(epsilon: float | None) -> None:
    """Raises ValueError unless the outage target is a number in (0, 1)."""
    if not (is_real(epsilon) and 0 < epsilon < 1):
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon!r}")


def check_eta(eta: float) -> None:
    """Raises ValueError unless the heavy-traffic parameter is a number in (0, 1)."""
    if not (is_real(eta) and 0 < eta < 1):
        raise ValueError(f"eta must be in (0, 1), got {eta!r}")


def check_channel_rate(c: float) -> None:
    """Raises ValueError unless the channel rate is a positive, finite number."""
    if not (is_real(c) and 0 < c < math.inf):
        raise ValueError(f"channel rate must be positive and finite, got c = {c!r}")


def check_mean_entropy(e_h: float) -> None:
    """Raises ModelError unless E[H] > 0, which every channel rate c needs."""
    if e_h <= 0:
        raise ModelError("the mean conditional entropy is 0: c = E[H]/(1 - eta) is 0 at "
                         "every eta, and eta = 1 - E[H]/c is 1 at every c")


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

    @cached_property
    def groups(self) -> tuple[tuple[CdfEntry, ...], ...]:
        """Each group's entries, in entry order: group g is ``groups[g - 1]``.
        Entries with a non-integer index (``validate_model`` reports them) are left out."""
        ints = (e for e in self.entries if _is_integer(e.group) and _is_integer(e.member))
        by_group = sorted(ints, key=lambda e: e.group)  # stable: keeps entry order
        return tuple(tuple(mem) for _, mem in groupby(by_group, key=lambda e: e.group))

    @property
    def m(self) -> int:
        """Number of marginal groups."""
        return len(self.groups)

    @property
    def group_sizes(self) -> tuple[int, ...]:
        return tuple(map(len, self.groups))

    @property
    def m_star(self) -> int:
        """Number of groups whose marginals pin down the joint cdf (size 1)."""
        return sum(1 for l in self.group_sizes if l == 1)

    def group_entries(self, group: int) -> tuple[CdfEntry, ...]:
        return self.groups[check_count("group index", group, 1, self.m, ModelError) - 1]

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


@dataclass(frozen=True, eq=False)
class BlockTrace:
    """I.i.d. per-block joint-cdf draws: marginal group and H(X|Y) arrays."""

    groups: np.ndarray
    h: np.ndarray


def validate_model(model: SourceModel) -> list[str]:
    """Every broken model invariant, one line each.  A SourceModel runs this
    once, when it is built, so an invalid model cannot be constructed."""
    bad: list[str] = []
    if not model.entries:
        return ["model has no cdf entries"]

    tables = [(i, e.joint_pmf) for i, e in enumerate(model.entries)
              if e.joint_pmf is not None and is_real(e.cond_entropy)]
    pmf_bad = _pmf_violations(model.entries, tables) if tables else {}
    total = 0.0
    seen: set[tuple[int, int]] = set()
    for i, e in enumerate(model.entries):
        label = f"cdf ({e.group},{e.member})"
        if not (is_real(e.prob) and 0 < e.prob < math.inf):
            bad.append(f"{label}: prob must be positive and finite, got {e.prob!r}")
        if not (is_real(e.cond_entropy) and 0 <= e.cond_entropy < math.inf):
            bad.append(f"{label}: cond_entropy must be >= 0 and finite, got {e.cond_entropy!r}")
        if not (_is_integer(e.group) and _is_integer(e.member)):
            bad.append(f"{label}: group and member indices must be integers")
        elif (e.group, e.member) in seen:
            bad.append(f"{label}: duplicate index")
        else:
            seen.add((e.group, e.member))
        total += e.prob if is_real(e.prob) else math.nan  # a non-number fails the sum too
        if i in pmf_bad:
            bad.append(f"{label}: {pmf_bad[i]}")
    if abs(total - 1.0) > PROB_TOL:
        bad.append(f"prior does not sum to 1 (got {total!r})")

    # contiguous 1..m group indices, contiguous 1..l_i member indices
    groups = [mem[0].group for mem in model.groups]
    if groups != list(range(1, len(groups) + 1)):
        bad.append(f"group indices not contiguous from 1: {groups}")
    for g, mem in zip(groups, model.groups):
        members = sorted(e.member for e in mem)
        if members != list(range(1, len(members) + 1)):
            bad.append(f"group {g}: member indices not contiguous from 1: {members}")
    if tables:
        bad += _marginal_violations(model.groups)

    n, slot = model.block_len_n, model.slot_seconds
    if not (_is_integer(n) and n >= 1):
        bad.append(f"block_len_n must be an integer >= 1, got {n!r}")
    if slot is not None and not (is_real(slot) and 0 < slot < math.inf):
        bad.append(f"slot_seconds must be positive and finite, got {slot!r}")
    return bad


def _by_shape(tables) -> dict[tuple[int, ...], list[int]]:
    """The keys of each table shape among ``(key, table)`` pairs, in order."""
    shapes: dict[tuple[int, ...], list[int]] = {}
    for key, table in tables:
        shapes.setdefault(table.shape, []).append(key)
    return shapes


def _pmf_violations(entries, tables) -> dict[int, str]:
    """The broken joint_pmf invariant of each entry that has one, by position:
    non-finite, else negative, else not summing to 1, else a conditional
    entropy other than the declared one.  ``tables`` holds the (position,
    joint_pmf) pairs.  The tables of one shape are checked as one stack, each
    summed in row-major order, and entropies are taken only of the tables
    that pass the other checks."""
    out: dict[int, str] = {}
    for shape, pos in _by_shape(tables).items():
        flat = np.array([entries[i].joint_pmf.ravel() for i in pos])
        finite = np.isfinite(flat).all(axis=1)
        negative = (flat < 0).any(axis=1)
        for i, fin, neg in zip(pos, finite.tolist(), negative.tolist()):
            if not fin:
                out[i] = "joint_pmf has non-finite entries"
            elif neg:
                out[i] = "joint_pmf has negative entries"
        pos = np.array(pos)
        ok = np.flatnonzero(finite & ~negative)
        sums = flat[ok].sum(axis=1)
        fits = np.abs(sums - 1.0) <= PROB_TOL
        for i, total in zip(pos[ok[~fits]].tolist(), sums[~fits].tolist()):
            out[i] = f"joint_pmf sums to {total!r}, not 1"
        rows = ok[fits]
        h = cond_entropies_bits(flat[rows].reshape(len(rows), *shape))
        for i, hi in zip(pos[rows].tolist(), h.tolist()):
            if abs(hi - entries[i].cond_entropy) > ENTROPY_TOL:
                out[i] = (f"joint_pmf conditional entropy {hi!r} does not "
                          f"match declared cond_entropy {entries[i].cond_entropy!r}")
    return out


def _marginal_violations(groups: tuple[tuple[CdfEntry, ...], ...]) -> list[str]:
    """Every member of a group with a joint pmf must share both marginals with
    the group's first such member.  The pairs of one shape are compared as
    one stack."""
    pairs: list[tuple[CdfEntry, CdfEntry]] = []
    for mem in groups:
        mem = [e for e in mem if e.joint_pmf is not None]
        pairs += [(e, mem[0]) for e in mem[1:]]
    dev: dict[int, tuple[float, float]] = {}
    tables = ((k, e.joint_pmf) for k, (e, ref) in enumerate(pairs)
              if e.joint_pmf.shape == ref.joint_pmf.shape)
    for idx in _by_shape(tables).values():
        a = np.array([pairs[k][0].joint_pmf for k in idx])
        b = np.array([pairs[k][1].joint_pmf for k in idx])
        dx = np.max(np.abs(a.sum(axis=2) - b.sum(axis=2)), axis=1)
        dy = np.max(np.abs(a.sum(axis=1) - b.sum(axis=1)), axis=1)
        dev.update(zip(idx, zip(dx.tolist(), dy.tolist())))
    bad = []
    for k, (e, _) in enumerate(pairs):
        if k not in dev:
            bad.append(f"group {e.group}: members declare different alphabets")
            continue
        dx, dy = dev[k]
        if dx > MARGINAL_TOL or dy > MARGINAL_TOL:
            bad.append(f"group {e.group}: cdf ({e.group},{e.member}) marginals deviate from "
                       f"member 1 by ({dx:.3g}, {dy:.3g})")
    return bad


def compute_stats(model: SourceModel) -> EntropyStats:
    """Exact moments of H_(t)(X|Y) under the prior, overall and per group."""
    vals, probs = model.prior_pmf()
    e_h = float(np.dot(probs, vals))
    var_h = float(np.dot(probs, (vals - e_h) ** 2))
    h_max = float(vals.max())

    phi, e_hi, var_hi, h_maxi, m_hi = [], [], [], [], []
    for g, mem in enumerate(model.groups, 1):
        gv, gp = model.conditional_pmf(g)
        mu = float(np.dot(gp, gv))
        phi.append(sum(e.prob for e in mem))
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
    T = check_count("block count", T)
    rng = np.random.default_rng(check_count("seed", seed, 0))
    probs = np.array([e.prob for e in model.entries], dtype=float)
    probs = probs / probs.sum()
    idx = rng.choice(len(model.entries), size=T, p=probs)
    groups = np.array([e.group for e in model.entries], dtype=np.int64)[idx]
    h = np.array([e.cond_entropy for e in model.entries], dtype=float)[idx]
    return BlockTrace(groups, h)


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
    if not (is_real(crossover) and 0 < crossover < 0.5):
        raise ValueError(f"crossover must be in (0, 0.5), got {crossover!r}")
    p = crossover
    joint = np.array([[(1 - p) / 2, p / 2], [p / 2, (1 - p) / 2]])
    h = cond_entropy_x_given_y_bits(joint)
    return SourceModel((CdfEntry(1, 1, 1.0, h, joint),))


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------

# libyaml when PyYAML was built with it; both loaders parse to the same documents
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class _UniqueKeyLoader(_YAML_LOADER):
    """Refuses a key repeated in one mapping, where PyYAML keeps the last value."""

    def construct_mapping(self, node, deep=False):
        seen = set()  # a merge key (<<) may bring in keys the mapping's own keys override
        for key_node, _ in node.value:
            if isinstance(key_node, yaml.ScalarNode) and key_node.tag != "tag:yaml.org,2002:merge":
                key = self.construct_object(key_node)
                if key in seen:
                    raise yaml.constructor.ConstructorError(
                        None, None, f"found duplicate key {key!r}", key_node.start_mark)
                seen.add(key)
        return super().construct_mapping(node, deep)


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
        except (TypeError, ValueError, OverflowError):   # OverflowError: an int past 1e308
            pass
    raise ModelError(f"{where}: {field} must be a number, got {value!r}")


def _count(value, field: str, where: str) -> int:
    """An integer field of a model file that must be >= 1 (an alphabet size)."""
    x = _number(value, field, where)
    if not (x.is_integer() and x >= 1):
        raise ModelError(f"{where}: {field} must be an integer >= 1, got {value!r}")
    return int(x)


def load_model(path) -> SourceModel:
    """Read a model config file (YAML tree; unknown keys are rejected).

    A file in the layout ``save_model`` writes is read by ``_read_saved``,
    any other by PyYAML; both give the same document.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ModelError(f"{path}: not UTF-8 text: {exc}") from exc
        doc = _read_saved(text)
        if doc is None:
            fh.seek(0)   # PyYAML reads the stream, so its error marks name the file
            try:
                doc = yaml.load(fh, Loader=_UniqueKeyLoader)
            except yaml.YAMLError as exc:
                raise ModelError(f"malformed YAML: {exc}") from exc
            except ValueError as exc:  # a constructor's: an int past Python's digit limit
                raise ModelError(f"{path}: {exc}") from exc
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
            where = f"cdf ({gi},{ji})"
            if not isinstance(mem, dict):
                raise ModelError(f"{where}: expected a mapping")
            _reject_unknown(mem, _MEMBER_KEYS, where)
            if "prob" not in mem or "cond_entropy" not in mem:
                raise ModelError(f"{where}: prob and cond_entropy required")
            pmf, raw = None, mem.get("joint_pmf")
            if raw is not None:
                if not isinstance(raw, dict):
                    raise ModelError(f"{where}: joint_pmf must be a mapping")
                _reject_unknown(raw, _PMF_KEYS, f"{where} joint_pmf")
                ax, ay = (_count(raw.get(f), f, where) for f in ("alphabet_x", "alphabet_y"))
                table = raw.get("table")
                if not isinstance(table, list):
                    raise ModelError(f"{where}: bad joint_pmf: table must be a list, got {table!r}")
                cells = [_number(v, "joint_pmf table cell", where) for v in table]
                if len(cells) != ax * ay:
                    raise ModelError(f"{where}: bad joint_pmf: {len(cells)} cells, not {ax} x {ay}")
                pmf = np.array(cells).reshape(ax, ay)
            entries.append(CdfEntry(gi, ji, _number(mem["prob"], "prob", where),
                                    _number(mem["cond_entropy"], "cond_entropy", where), pmf))

    n = _number(doc.get("block_len_n", 1), "block_len_n", "model file")
    slot = doc.get("slot_seconds")
    return SourceModel(tuple(entries), int(n) if n.is_integer() else n,
                       None if slot is None else _number(slot, "slot_seconds", "model file"))


_FLOAT = r"-?[0-9]+\.[0-9]+(?:e[-+][0-9]+)?"
_COUNT = r"[1-9][0-9]{0,17}"   # int() refuses over 4300 digits
# one member of save_model's layout; a table's cells are one group, "\n      - " apart
_SAVED_MEMBER = re.compile(
    rf"  - prob: ({_FLOAT})\n    cond_entropy: ({_FLOAT})\n"
    rf"(?:    joint_pmf:\n      alphabet_x: ({_COUNT})\n      alphabet_y: ({_COUNT})\n"
    rf"      table:\n      - ((?:{_FLOAT}\n      - )*{_FLOAT})\n)?")
_SAVED_TAIL = re.compile(rf"block_len_n: ({_COUNT})\n(?:slot_seconds: ({_FLOAT})\n)?")


def _read_saved(text: str) -> dict | None:
    """The document ``yaml.load`` gives for ``text`` when the text is in the
    layout ``save_model`` writes, with its keys in that order; None when the
    text departs from it in any way.  Never raises.

    Only number forms whose YAML 1.1 reading is certain are taken: floats
    ``-?d+.d+`` with an optional ``e[-+]d+``, which PyYAML reads as
    ``float(text)`` (-0.0 included), and integers of 1 to 18 digits with no
    leading zero (PyYAML reads ``010`` as octal).  Every pattern
    is anchored and each of its repeats ends at a newline it cannot match
    inside, so the scan is linear in the text.
    """
    if not text.startswith("groups:\n"):
        return None
    pos = len("groups:\n")
    groups = []
    while text.startswith("- members:\n", pos):
        pos += len("- members:\n")
        members = []
        while m := _SAVED_MEMBER.match(text, pos):
            prob, h, ax, ay, table = m.groups()
            mem = {"prob": float(prob), "cond_entropy": float(h)}
            if table is not None:
                mem["joint_pmf"] = {"alphabet_x": int(ax), "alphabet_y": int(ay),
                                    "table": list(map(float, table.split("\n      - ")))}
            members.append(mem)
            pos = m.end()
        if not members:
            return None
        groups.append({"members": members})
    tail = _SAVED_TAIL.fullmatch(text, pos)
    if not groups or tail is None:
        return None
    doc = {"groups": groups, "block_len_n": int(tail[1])}
    if tail[2] is not None:
        doc["slot_seconds"] = float(tail[2])
    return doc


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
    Entries out of (group, member) order are refused: they would load reordered.
    """
    for prev, e in zip(model.entries, model.entries[1:]):
        if (e.group, e.member) < (prev.group, prev.member):
            raise ModelError(f"cdf ({e.group},{e.member}) comes after cdf ({prev.group},"
                             f"{prev.member}): save_model writes entries in (group, member) order")
    parts = ["groups:\n"]
    for mem in model.groups:
        parts.append("- members:\n")
        for e in mem:
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
