"""Per-layer tracing of swdelay from outside the program.

The tracer wraps public functions and methods of the ``swdelay`` modules at
run time; nothing under ``src/`` is edited.  A module-level function is
replaced in every ``swdelay`` module that holds a reference to it (modules
bind each other's helpers at import, e.g. ``strategies`` imports
``sample_trace`` by name), a method is replaced on its class.

Every wrapped call updates an in-memory aggregate: calls, inclusive time,
self time (inclusive time minus the time of wrapped calls made inside it),
failures, and a log-spaced histogram of inclusive times for percentiles.
Wrappers marked as spans also keep one record per call (name, parent span,
start, end, self time); they are used for the whole-call boundaries (CLI
commands, strategy runs, bounds, codec rates, ingest steps), never for the
per-block calls, of which a run makes hundreds of thousands.
"""

from __future__ import annotations

import contextlib
import math
import sys
from time import perf_counter

# histogram buckets per factor of two of the inclusive call time
_SUB = 8


class Stat:
    """Aggregate of one wrapped function (or one key of a keyed span)."""

    __slots__ = ("calls", "total_s", "self_s", "failed", "hist", "extra")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.failed = 0
        self.hist: dict[int, int] = {}
        self.extra: dict[str, float] = {}

    def add(self, dt: float, self_dt: float) -> None:
        self.calls += 1
        self.total_s += dt
        self.self_s += self_dt
        b = int(math.log2(dt * 1e9 + 1.0) * _SUB)
        self.hist[b] = self.hist.get(b, 0) + 1

    def bump(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0) + value

    def quantile_us(self, q: float) -> float:
        """Inclusive call time at quantile q, in microseconds (bucket midpoint)."""
        if not self.calls:
            return 0.0
        rank = q * self.calls
        seen = 0
        for b in sorted(self.hist):
            seen += self.hist[b]
            if seen >= rank:
                return (2.0 ** ((b + 0.5) / _SUB) - 1.0) / 1e3
        return 0.0


class Tracer:
    """Aggregates and spans of one traced round; install() patches swdelay."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list[dict] = []
        self.accumulators: list = []
        self._child = [0.0]     # time of wrapped children, one slot per open call
        self._open_spans = [-1]  # index of the innermost open span
        self._t0 = perf_counter()
        self._patches: list[tuple[object, str, object, object]] = []
        self._targets = _targets(self)

    def stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def reset(self) -> None:
        # wrappers hold their Stat objects, so zero them in place
        for st in self.stats.values():
            st.__init__()
        self.spans.clear()
        self.accumulators.clear()
        self._t0 = perf_counter()

    def wrap(self, fn, name, *, span=False, key=None, on_return=None):
        """Timed replacement for fn; key(args, kwargs) splits the stat by a suffix."""
        child = self._child
        open_spans = self._open_spans
        spans = self.spans
        fixed = None if key else self.stat(name)

        def traced(*args, **kwargs):
            label = name if fixed else f"{name}.{key(args, kwargs)}"
            st = fixed or self.stat(label)
            if span:
                spans.append({"name": label, "parent": open_spans[-1]})
                open_spans.append(len(spans) - 1)
            child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                st.failed += 1
                raise
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                inner = child.pop()
                child[-1] += dt
                st.add(dt, dt - inner)
                if span:
                    rec = spans[open_spans.pop()]
                    rec.update(start_s=t0 - self._t0, end_s=t1 - self._t0,
                               self_s=dt - inner)
            if on_return is not None:
                on_return(st, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for owner, attr, original, wrapper in self._targets:
            if owner.__dict__.get(attr) is original:
                setattr(owner, attr, wrapper)
                self._patches.append((owner, attr, original, wrapper))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, _ = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def _everywhere(fn) -> list[object]:
    """Every swdelay module holding fn under its own name."""
    return [
        mod for name, mod in sorted(sys.modules.items())
        if (name == "swdelay" or name.startswith("swdelay."))
        and mod is not None and mod.__dict__.get(fn.__name__) is fn
    ]


def _targets(tr: Tracer) -> list[tuple[object, str, object, object]]:
    """(owner, attribute, original, wrapper) for every traced boundary."""
    from swdelay import bounds, channel, cli, codec, ingest, model, rate, strategies

    def on_strategy(st, args, kwargs, result):
        st.bump("blocks", kwargs["T"])
        st.bump("batches", result.batches)

    def on_codec(st, args, kwargs, result):
        st.bump("trials", kwargs["trials"])
        for field in ("errors", "eps1", "eps2", "eps3"):
            st.bump(field, getattr(result, field))

    def on_blockify(st, args, kwargs, result):
        st.bump("blocks", len(result))

    def on_quantize(st, args, kwargs, result):
        st.bump("entries", len(result.model.entries))
        st.bump("groups", result.model.m)

    functions = [
        # (function, metric name, options)
        (cli.main, "cli.main", dict(span=True)),
        (strategies.run_strategy, "strategies",
         dict(span=True, key=lambda a, k: a[0], on_return=on_strategy)),
        (model.sample_trace, "model.sample_trace", {}),
        (model.compute_stats, "model.compute_stats", {}),
        (model.validate_model, "model.validate_model", {}),
        (bounds.bounds_report, "bounds.bounds_report", dict(span=True)),
        (codec.run_codec_trials, "codec.run_codec_trials",
         dict(span=True, on_return=on_codec)),
        (codec.encode, "codec.encode", {}),
        (codec.jointly_typical, "codec.jointly_typical", {}),
        (ingest.blockify, "ingest.blockify", dict(span=True, on_return=on_blockify)),
        (ingest.quantize_model, "ingest.quantize_model",
         dict(span=True, on_return=on_quantize)),
    ]
    methods = [
        (rate.RateAccumulator, "push_block", "rate.push_block"),
        (rate.RateAccumulator, "tail_above", "rate.tail_above"),
        (rate.RateAccumulator, "rate_quantile", "rate.rate_quantile"),
        (rate.RateAccumulator, "reset", "rate.reset"),
        (channel.ChannelQueue, "enqueue", "channel.enqueue"),
    ]

    targets = []
    for fn, name, opts in functions:
        wrapper = tr.wrap(fn, name, **opts)
        targets += [(mod, fn.__name__, fn, wrapper) for mod in _everywhere(fn)]
    for cls, attr, name in methods:
        fn = cls.__dict__[attr]
        targets.append((cls, attr, fn, tr.wrap(fn, name)))
    init = rate.RateAccumulator.__dict__["__init__"]

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tr.accumulators.append(self)

    targets.append((rate.RateAccumulator, "__init__", init, counted_init))
    return targets
