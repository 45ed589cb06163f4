"""The library's argument contract: every count and real argument of the
public API refuses a value of the wrong type or out of its range with a
ValueError (or a subclass: ModelError, IngestError) whose message names it.

``TABLE`` lists every callable in ``swdelay.__all__`` (result records and
the error type are exempt) with each of its parameters, and the public
methods whose arguments a run reaches.  A count is a Python or numpy
integer, never a bool or a float; a real is a Python or numpy integer or
float, never a bool or a string.
"""

import dataclasses
import inspect
import math
import warnings
from typing import NamedTuple

import numpy as np
import pytest

import swdelay
from swdelay import (Codebook, ChannelQueue, CdfEntry, RateAccumulator, SourceModel, blockify,
                     bounds_report, bsc_pair_model, compute_stats, demo_model, gamma_coefficient,
                     k_c, k_c_chernoff, lb_delay, quantize_model, rate_unconditional,
                     run_codec_trials, sample_trace, simulate, ub_delay)
from swdelay import cli
from swdelay.ingest import read_trace


class Count(NamedTuple):
    label: str   # the name the refusal gives
    valid: int
    low: int = 1   # the smallest valid value


class Real(NamedTuple):
    label: str
    valid: float | None
    out: float   # a number out of range


class Row(NamedTuple):
    name: str
    fn: object   # whose signature the row must list in full
    call: object   # runs fn with the count and real arguments given, the others fixed
    params: dict   # parameter -> Count, Real, or None for an argument of another kind


DEMO, BSC = demo_model(), bsc_pair_model(0.1)
STATS = compute_stats(DEMO)
BOOK = Codebook(BSC, (1,), n=4, delta=0.5)
PMFS = blockify(np.random.default_rng(0).integers(0, 2, size=(80, 2)), 8)
EPSILON = Real("epsilon", 0.01, 1.5)
ETA = Real("eta", 0.5, 1.5)


def _simulate(eta=0.5, c=None, **kw):
    """A one-strategy run at eta, or at c when c is given."""
    return simulate(DEMO, ("we",), eta=eta if c is None else None, c=c, **kw)


TABLE = [
    Row("bounds_report", bounds_report,
        lambda eta_grid, **kw: bounds_report(STATS, [eta_grid], **kw),
        dict(stats=None, eta_grid=Real("eta", 0.5, 1.5), epsilon=EPSILON)),
    *(Row(fn.__name__, fn, lambda _fn=fn, **kw: _fn(STATS, **kw),
          dict(stats=None, eta=ETA, epsilon=EPSILON))
      for fn in (gamma_coefficient, k_c_chernoff)),
    *(Row(fn.__name__, fn, lambda _fn=fn, **kw: _fn(STATS, which="WE", **kw),
          dict(stats=None, eta=ETA, epsilon=EPSILON, which=None))
      for fn in (lb_delay, ub_delay)),
    Row("ChannelQueue", ChannelQueue, ChannelQueue,
        dict(rate_bits_per_block=Real("channel rate", 1.0, -1.0))),
    Row("Codebook", Codebook, lambda groups, **kw: Codebook(BSC, (groups,), **kw),
        dict(model=None, groups=Count("group index", 1), n=Count("block length n", 4),
             delta=Real("delta", 0.5, 0.0), seed=Count("seed", 0, 0), kind=None)),
    Row("Codebook.bins", Codebook.bins, BOOK.bins,
        dict(self=None, rate_bits=Real("rate_bits", 2.0, -1.0))),
    Row("Codebook.draw", Codebook.draw, BOOK.draw,
        dict(self=None, trials=Count("trials", 10, 0), seed=Count("trial seed", 0, 0))),
    Row("run_codec_trials", run_codec_trials, lambda **kw: run_codec_trials(BOOK, **kw),
        dict(codebook=None, rate_bits=Real("rate_bits", 2.0, -1.0),
             trials=Count("trials", 10, 0), seed=Count("trial seed", 0, 0))),
    Row("blockify", blockify, lambda **kw: blockify(np.zeros((8, 2), dtype=int), **kw),
        dict(trace=None, n=Count("block length", 4))),
    Row("quantize_model", quantize_model, lambda **kw: quantize_model(PMFS, **kw),
        dict(pmfs=None, joint_levels=Count("joint_levels", 2),
             marginal_levels=Count("marginal_levels", 2),
             representative_seed=Count("representative_seed", 3, 0),
             block_len_n=Count("block_len_n", 8),
             slot_seconds=Real("slot_seconds", 0.5, 0.0))),
    Row("CdfEntry", CdfEntry, lambda **kw: SourceModel((CdfEntry(**kw),)),
        dict(group=Count("group", 1), member=Count("member", 1),
             prob=Real("prob", 1.0, -1.0), cond_entropy=Real("cond_entropy", 0.5, -1.0),
             joint_pmf=None)),
    Row("SourceModel", SourceModel,
        lambda **kw: SourceModel((CdfEntry(1, 1, 1.0, 0.5),), **kw),
        dict(entries=None, block_len_n=Count("block_len_n", 1),
             slot_seconds=Real("slot_seconds", 0.5, 0.0))),
    Row("bsc_pair_model", bsc_pair_model, bsc_pair_model,
        dict(crossover=Real("crossover", 0.1, 0.7))),
    Row("compute_stats", swdelay.compute_stats, lambda: compute_stats(DEMO), dict(model=None)),
    Row("demo_model", demo_model, demo_model, {}),
    Row("validate_model", swdelay.validate_model, lambda: swdelay.validate_model(DEMO),
        dict(model=None)),
    Row("block_delays", swdelay.block_delays, lambda: swdelay.block_delays(
        _simulate(epsilon=0.01, T=5, seed=1, collect_batches=True)[0]), dict(result=None)),
    Row("load_model", swdelay.load_model, None, dict(path=None)),
    Row("save_model", swdelay.save_model, None, dict(model=None, path=None)),
    Row("sample_trace", sample_trace, lambda **kw: sample_trace(DEMO, **kw),
        dict(model=None, T=Count("block count", 5), seed=Count("seed", 1, 0))),
    Row("RateAccumulator", RateAccumulator, lambda: RateAccumulator(DEMO), dict(model=None)),
    Row("RateAccumulator.push_block", RateAccumulator.push_block,
        lambda **kw: RateAccumulator(DEMO).push_block(**kw),
        dict(self=None, group=Count("group index", 1))),
    Row("RateAccumulator.rate_quantile", RateAccumulator.rate_quantile,
        lambda **kw: RateAccumulator(DEMO).push_block(2).rate_quantile(**kw),
        dict(self=None, epsilon=EPSILON)),
    Row("k_c", k_c, lambda **kw: k_c(DEMO, **kw),
        dict(model=None, c=Real("channel rate", 5.0, -1.0), epsilon=EPSILON)),
    Row("rate_unconditional", rate_unconditional, lambda **kw: rate_unconditional(DEMO, **kw),
        dict(model=None, K=Count("block count", 3), epsilon=EPSILON)),
    Row("simulate", simulate, _simulate,
        dict(model=None, strategies=None, epsilon=EPSILON, T=Count("block count", 10),
             seed=Count("seed", 1, 0), eta=ETA, c=Real("channel rate", None, -1.0),
             batch_size=Count("batch_size", 2), collect_batches=None)),
]
ROWS = {row.name: row for row in TABLE}

# returned records and the error type: built by the library, not called with counts
EXEMPT = {"BlockTrace", "ChernoffBatch", "CodecTrialReport", "EntropyStats", "IngestResult",
          "LowerBound", "ModelError", "SimulationResult"}


def _bad(arg) -> list:
    if isinstance(arg, Count):  # a float, integral or not, a bool, too small, a string
        return [2.5, float(arg.low + 1), True, arg.low - 1, "1"]
    return [True, math.nan, "0.5", arg.out]


PROBES = [pytest.param(row.name, param, bad, id=f"{row.name}-{param}-{bad!r}")
          for row in TABLE for param, arg in row.params.items() if arg is not None
          for bad in _bad(arg)]


def _valid(row: Row, numpy: bool = False) -> dict:
    """The row's valid counts and reals, as Python or as numpy scalars."""
    cast = {Count: np.int64, Real: np.float64}
    return {p: cast[type(a)](a.valid) if numpy else a.valid for p, a in row.params.items()
            if a is not None and a.valid is not None}


@pytest.mark.parametrize("name, param, bad", PROBES)
def test_a_bad_argument_is_refused_by_name(name, param, bad):
    row = ROWS[name]
    label = row.params[param].label
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # quantize_model's empty levels
        with pytest.raises(ValueError) as info:
            row.call(**{**_valid(row), param: bad})
    assert label in str(info.value), (param, bad, str(info.value))
    if bad == "0.5":  # a refused string is shown as one, not as the number it spells
        assert "'0.5'" in str(info.value), (param, str(info.value))


@pytest.mark.parametrize("name", [row.name for row in TABLE if row.call is not None])
def test_valid_arguments_run_as_python_and_numpy_numbers(name):
    """Each row's valid values run, and so do the same values as numpy scalars,
    so a refusal above is the bad argument's."""
    row = ROWS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        row.call(**_valid(row))
        row.call(**_valid(row, numpy=True))


def test_table_lists_every_public_callable_and_parameter():
    """A public callable, or a parameter, that the table does not list fails
    here: its count and real arguments would go unprobed."""
    public = {name for name in swdelay.__all__ if callable(getattr(swdelay, name))}
    assert public - EXEMPT <= set(ROWS), sorted(public - EXEMPT - set(ROWS))
    for name in EXEMPT:
        kind = getattr(swdelay, name)
        assert (dataclasses.is_dataclass(kind) or issubclass(kind, (tuple, Exception))), name
    for row in TABLE:
        assert list(inspect.signature(row.fn).parameters) == list(row.params), row.name


def test_read_trace_skip_header_is_a_count(tmp_path):
    """``read_trace`` (used by ``swdelay ingest``) takes its header count
    through the same check."""
    path = tmp_path / "trace.csv"
    path.write_text("x,y\n0,1\n")
    assert read_trace(path, np.int64(1)).tolist() == [[0, 1]]
    for bad in (1.0, True, -1, "1"):
        with pytest.raises(ValueError, match="^skip_header must be"):
            read_trace(path, bad)


def test_run_sweep_checks_seeds_and_workers_before_any_task(monkeypatch):
    """``cli.run_sweep`` checks each seed and the worker count, as it checks
    each eta, before it starts a run."""
    def never(payload):
        raise AssertionError("a run started before the arguments were checked")

    monkeypatch.setattr(cli, "_sweep_task", never)
    for seeds, workers, message in (((1, 2.5), 1, "^seed must be an integer, got 2.5$"),
                                    ((1, -1), 2, "^seed must be >= 0, got -1$"),
                                    ((1,), 1.5, "^workers must be an integer, got 1.5$"),
                                    ((1, 2), True, "^workers must be an integer, got True$")):
        with pytest.raises(ValueError, match=message):
            cli.run_sweep(DEMO, ("we",), (0.5,), seeds, workers=workers, epsilon=0.01, T=50)
