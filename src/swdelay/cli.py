"""Command-line surface: reproducible experiments emitting CSV.

Every command is deterministic given its flags and seeds; rerunning produces
byte-identical output once the timestamp header is suppressed with
``--no-timestamp``.  Exit codes: 0 success, 1 validation/usage error,
2 acceptance-check failure (bound bracketing).
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timezone

import numpy as np

from . import bounds as bounds_mod
from . import codec as codec_mod
from .ingest import blockify, quantize_model, read_trace
from .model import (
    ModelError,
    SourceModel,
    bsc_pair_model,
    check_count,
    compute_stats,
    demo_model,
    load_model,
    save_model,
)
from .rate import RateAccumulator, k_c, rate_unconditional
from .strategies import (STRATEGIES, WAIT_TO_ENCODE, SimulationResult, block_delays,
                         check_run, simulate)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CHECK_FAILED = 2

SWEEP_COLUMNS = (
    "strategy", "eta", "epsilon", "seed", "T",
    "mean_delay", "mean_w_e", "mean_w_c", "mean_w_d",
    "outage_rate", "mean_rate", "batches",
)


class CliError(Exception):
    """User-facing error: message printed, exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        raise CliError(message)


def _fmt(value) -> str:
    return f"{value:.12g}" if isinstance(value, float) else str(value)


def _write_csv(out_path, header, rows, timestamp: bool) -> None:
    def _emit(fh):
        if timestamp:
            fh.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])

    if out_path in (None, "-"):
        _emit(sys.stdout)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            _emit(fh)


def _check_writable(args) -> None:
    """Rejects an output path that could not be opened, or that another output
    flag also names, before any work; an existing file is left untouched until
    the results are written.  Only '-' (stdout) may repeat."""
    flags = {}  # real path -> the flag naming it
    for flag in ("--out", "--trace-out", "--assign-out"):
        path = getattr(args, flag[2:].replace("-", "_"), None)
        if path in (None, "-"):
            continue
        folder = os.path.dirname(path) or "."  # not abspath, which folds "missing/.." away
        target = path if os.path.exists(path) else folder
        if (path == "" or not os.path.isdir(folder) or os.path.isdir(path)
                or not os.access(target, os.W_OK)):
            raise CliError(f"{flag}: cannot write {path!r}: not a writable file "
                           f"in an existing directory")
        real = os.path.realpath(path)
        if real in flags:
            raise CliError(f"{flags[real]} and {flag} name one file, {path!r}")
        flags[real] = flag


def _load(args) -> SourceModel:
    if getattr(args, "model", None) is None:
        raise CliError("a model file is required (--model)")
    try:
        return load_model(args.model)
    except (OSError, ModelError) as exc:
        raise CliError(f"cannot load model: {exc}") from exc


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive number, got {value}")
    return value


def _int_at_least(low: int):
    """An argparse type: an integer of at least ``low``."""
    def parse(text: str) -> int:
        value = int(text)  # a ValueError reads "invalid int value", by __name__
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"
    return parse


_positive_int = _int_at_least(1)
_seed = _int_at_least(0)  # numpy's generators take no negative seed


def _strategy(name: str) -> str:
    if name not in STRATEGIES:
        raise argparse.ArgumentTypeError(
            f"unknown strategy {name!r}; expected one of {STRATEGIES}")
    return name


def _list_of(kind):
    """An argparse type: a comma list of at least one value, each parsed by
    ``kind``; empty items are dropped."""
    def parse(text: str) -> tuple:
        values = [v for v in text.split(",") if v != ""]
        if not values:
            raise argparse.ArgumentTypeError(f"empty list {text!r}")
        try:
            return tuple(kind(v) for v in values)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad {kind.__name__} list {text!r}") from None
    return parse


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    try:
        _load(args)
    except CliError as exc:  # an invalid model cannot be built: print why
        if not getattr(exc.__cause__, "violations", None):
            raise
        print("\n".join(exc.__cause__.violations))
        return EXIT_VALIDATION
    print("ok")
    return EXIT_OK


def cmd_stats(args) -> int:
    model = _load(args)
    s = compute_stats(model)
    rows = [("e_h", s.e_h), ("var_h", s.var_h), ("h_max", s.h_max), ("m_h", s.m_h),
            ("m", s.m), ("m_star", s.m_star)]
    for i in range(s.m):
        rows += [(f"{name}_{i + 1}", values[i]) for name, values in
                 (("phi", s.phi), ("e_h", s.e_hi), ("var_h", s.var_hi), ("h_max", s.h_maxi))]
    _write_csv(args.out, ("quantity", "value"), rows, not args.no_timestamp)
    return EXIT_OK


def cmd_rate(args) -> int:
    model = _load(args)
    if (args.blocks is None) == (args.groups is None):
        raise CliError("give exactly one of --blocks (unconditional) or --groups")
    if args.blocks is not None:
        value = rate_unconditional(model, args.blocks, args.epsilon)
    else:
        acc = RateAccumulator(model)
        for g in args.groups:
            acc.push_block(g)
        value = acc.rate_quantile(args.epsilon)
    print(_fmt(value))
    return EXIT_OK


def cmd_kc(args) -> int:
    model = _load(args)
    # the arguments of the one-block run whose batch size k_c gives
    stats, c, eta = check_run(model, (WAIT_TO_ENCODE,), epsilon=args.epsilon, T=1,
                              eta=args.eta, c=args.c)
    exact = k_c(model, c, args.epsilon)
    cher = bounds_mod.k_c_chernoff(stats, eta, args.epsilon)
    print(_fmt(exact))
    print(_fmt(cher.value))
    print(_fmt(cher.k_int))
    return EXIT_OK


def cmd_bounds(args) -> int:
    model = _load(args)
    stats = compute_stats(model)
    report = bounds_mod.bounds_report(stats, args.eta_grid, args.epsilon)
    rows = [(r.eta, r.ub_we, r.ub_wd, r.lb_we, r.lb_wd, r.gamma, r.argmax_istar)
            for r in report]
    _write_csv(args.out, ("eta", "ub_we", "ub_wd", "lb_we", "lb_wd", "gamma", "argmax_istar"),
               rows, not args.no_timestamp)
    crossed = [r for r in report if r.ub_we < r.lb_we or r.ub_wd < r.lb_wd]
    for r in crossed:  # seen only where c >= h_max
        print(f"error: bound bracketing violated at eta={_fmt(r.eta)}: "
              f"ub_we={_fmt(r.ub_we)} lb_we={_fmt(r.lb_we)} "
              f"ub_wd={_fmt(r.ub_wd)} lb_wd={_fmt(r.lb_wd)}", file=sys.stderr)
    return EXIT_CHECK_FAILED if crossed else EXIT_OK


def _result_row(res: SimulationResult, scale: float = 1.0) -> tuple:
    return (
        res.strategy, res.eta,
        res.epsilon if res.epsilon is not None else "",
        res.seed, res.blocks,
        res.mean_delay * scale, res.mean_w_e * scale, res.mean_w_c * scale,
        res.mean_w_d * scale,
        res.outage_rate, res.mean_encoding_rate, res.batches,
    )


def _run_model(args) -> tuple[SourceModel, float]:
    """The model of a run, collapsed by --no-marginals (blind), and the delay
    scale: blocks by default; --seconds converts via n * slot_seconds."""
    model = _load(args)
    model = model.collapse_marginals() if args.no_marginals else model
    if args.seconds and model.slot_seconds is None:
        raise CliError("--seconds needs a model with slot_seconds")
    return model, model.block_len_n * model.slot_seconds if args.seconds else 1.0


def cmd_simulate(args) -> int:
    model, scale = _run_model(args)
    res, = simulate(model, (args.strategy,), epsilon=args.epsilon, T=args.blocks,
                    seed=args.seed, eta=args.eta, c=args.c, batch_size=args.batch_size,
                    collect_batches=args.trace_out is not None)
    if res.unstable:
        print(f"warning: unstable queue for {res.strategy}", file=sys.stderr)
    _write_csv(args.out, SWEEP_COLUMNS, [_result_row(res, scale)],
               not args.no_timestamp)
    if args.trace_out is not None:
        block, *delays = block_delays(res)
        rows = zip(block.tolist(), *((w * scale).tolist() for w in delays))
        _write_csv(args.trace_out, ("t", "w_e", "w_c", "w_d"), rows,
                   not args.no_timestamp)
    return EXIT_OK


def _sweep_task(payload) -> tuple[SimulationResult, ...]:
    model, strategies, run, (eta, seed) = payload
    return simulate(model, strategies, eta=eta, seed=seed, **run)


def run_sweep(model: SourceModel, strategies, eta_grid, seeds, *, workers: int = 1,
              **run) -> list[SimulationResult]:
    """One Monte Carlo sweep, every argument checked before any task starts: one
    ``simulate`` task per (eta, seed) runs every strategy, with ``run`` holding epsilon,
    T and batch_size.  Transposing the tasks' results gives (strategy, eta, seed) order."""
    if not (strategies and eta_grid and seeds):
        raise ValueError("a sweep needs at least one strategy, eta and seed")
    for name, values in (("strategy", strategies), ("eta", eta_grid), ("seed", seeds)):
        if len(set(values)) < len(values):  # a repeat would count one run as two samples
            raise ValueError(f"a sweep repeats a {name}: {', '.join(map(str, values))}")
    for eta in eta_grid:
        check_run(model, strategies, eta=eta, **run)
    for seed in seeds:
        check_count("seed", seed, 0)
    tasks = [(eta, seed) for eta in eta_grid for seed in seeds]
    payloads = [(model, strategies, run, t) for t in tasks]
    workers = min(check_count("workers", workers), len(tasks))  # a pool starts every worker at once
    if workers <= 1:
        done = map(_sweep_task, payloads)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_sweep_task, payloads))
    return [res for per_strategy in zip(*done) for res in per_strategy]


def cmd_sweep(args) -> int:
    model, scale = _run_model(args)
    results = run_sweep(model, args.strategies, args.eta_grid, args.seeds,
                        workers=args.workers, epsilon=args.epsilon, T=args.blocks,
                        batch_size=args.batch_size)
    for r in results:
        if r.unstable:
            print(f"warning: unstable queue for {r.strategy} at eta={_fmt(r.eta)} "
                  f"seed={r.seed}", file=sys.stderr)
    _write_csv(args.out, SWEEP_COLUMNS, [_result_row(r, scale) for r in results],
               not args.no_timestamp)
    return EXIT_OK


def cmd_example_fig4(args) -> int:
    """Bundled six-cdf model: bounds vs simulated delays, bracketing checked."""
    if len(args.seeds) < 2:  # the bracket's slack is 3 standard errors over seeds
        raise CliError(f"--seeds: the bracket test needs at least two seeds, got {len(args.seeds)}")
    model = demo_model()
    stats = compute_stats(model)
    epsilon = 0.01
    report = bounds_mod.bounds_report(stats, args.eta_grid, epsilon)
    results = run_sweep(model, ("we", "wd"), args.eta_grid, args.seeds,
                        workers=args.workers, epsilon=epsilon, T=args.blocks)
    for r in results:  # a run that decoded nothing has no mean delay to bracket
        if not r.decoded_blocks:
            raise CliError(f"--blocks {args.blocks}: the {r.strategy} run at eta={_fmt(r.eta)} "
                           f"seed={r.seed} decoded no block")

    print(f"model: m={model.m} cdfs={len(model.entries)} "
          f"e_h={_fmt(stats.e_h)} var_h={_fmt(stats.var_h)} "
          f"h_max={_fmt(stats.h_max)} epsilon={_fmt(epsilon)}",
          file=sys.stderr)

    delays = np.array([r.mean_delay for r in results]).reshape(2, len(report), -1)
    rows = []
    for strategy, by_eta in zip(("we", "wd"), delays):  # run_sweep's (strategy, eta, seed) order
        for row, sims in zip(report, by_eta):
            mean = float(np.mean(sims))
            se = float(np.std(sims, ddof=1) / math.sqrt(len(sims)))
            lb, ub = getattr(row, f"lb_{strategy}"), getattr(row, f"ub_{strategy}")
            ok = (lb - 3 * se) <= mean <= (ub + 3 * se)
            rows.append((row.eta, strategy, mean, se, lb, ub, "pass" if ok else "fail"))
            print(f"eta={_fmt(row.eta)} {strategy}: lb={_fmt(lb)} "
                  f"sim={_fmt(mean)} ub={_fmt(ub)} -> {'pass' if ok else 'FAIL'}",
                  file=sys.stderr)
    _write_csv(
        args.out,
        ("eta", "strategy", "sim_mean_delay", "sim_stderr", "lb", "ub", "bracket"),
        rows,
        not args.no_timestamp,
    )
    return EXIT_OK if all(bracket == "pass" for *_, bracket in rows) else EXIT_CHECK_FAILED


def cmd_codec(args) -> int:
    if (args.model is None) == (args.bsc is None):
        raise CliError("give exactly one of --model or --bsc CROSSOVER")
    model = bsc_pair_model(args.bsc) if args.bsc is not None else _load(args)
    groups = args.groups
    if groups is None:
        groups = (1,) * (1 if args.k is None else args.k)
    elif args.k is not None and args.k != len(groups):
        raise CliError(f"--k {args.k} does not match the {len(groups)} groups of --groups")
    book = codec_mod.Codebook(model, groups, n=args.n, delta=args.delta, seed=args.seed,
                              kind=args.kind)
    for rate in args.rates:  # every rate is checked before any trial
        book.bins(rate)
    rows = []
    for rate in args.rates:  # one sequence table, X-typical set and draw for all
        report = codec_mod.run_codec_trials(book, rate, trials=args.trials, seed=args.seed + 1)
        rows.append((rate, report.err_rate, report.eps1, report.eps2, report.eps3))
    _write_csv(args.out, ("rate_bits", "err_rate", "eps1", "eps2", "eps3"),
               rows, not args.no_timestamp)
    return EXIT_OK


def cmd_ingest(args) -> int:
    if args.out is None:
        raise CliError("an output model path is required (--out)")
    try:
        trace = read_trace(args.input, args.skip_header)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read trace: {exc}") from exc
    result = quantize_model(
        blockify(trace, args.n),
        joint_levels=args.joint_levels,
        marginal_levels=args.marginal_levels,
        representative_seed=args.random_representative,
        block_len_n=args.n,
        slot_seconds=args.slot_seconds,
    )
    save_model(result.model, args.out)
    print(f"model written to {args.out} "
          f"(marginal repair distortion {_fmt(result.marginal_distortion)}, "
          f"{int((result.group == 0).sum())} blocks quarantined)", file=sys.stderr)
    if args.assign_out is not None:
        rows = zip(range(1, len(result.group) + 1), result.group.tolist(),
                   result.member.tolist(), result.d_to_ref.tolist())
        _write_csv(args.assign_out, ("t", "i", "j", "d_to_ref"), rows,
                   not args.no_timestamp)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="swdelay", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model=True, seed=None, workers=False, out=True):
        if model:
            p.add_argument("--model", help="model config file (YAML)")
        if seed is not None:
            p.add_argument("--seed", type=seed, default=0)
        if out:
            p.add_argument("--out", default=None, help="output CSV path ('-' = stdout)")
            p.add_argument("--no-timestamp", action="store_true",
                           help="suppress the timestamp header line")
        if workers:
            p.add_argument("--workers", type=_positive_int, default=1,
                           help="worker processes for the runs")

    def delay_flags(p):  # simulate and sweep
        p.add_argument("--no-marginals", action="store_true",
                       help="collapse the marginal groups (blind encoder/decoder)")
        p.add_argument("--seconds", action="store_true",
                       help="report delays in seconds (needs slot_seconds)")

    p = sub.add_parser("validate", help="check a model file against the invariants")
    common(p, out=False)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("stats", help="entropy statistics of a model")
    common(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("rate", help="minimum joint encoding rate (bits, cumulative)")
    common(p, out=False)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--blocks", type=int, default=None,
                   help="unconditional K-block quantile")
    p.add_argument("--groups", type=_list_of(int), default=None,
                   help="comma list of observed marginal groups (conditional)")
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("kc", help="smallest decodable batch size and its surrogate")
    common(p, out=False)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--c", type=float, default=None)
    p.set_defaults(func=cmd_kc)

    p = sub.add_parser("bounds", help="closed-form delay bounds over an eta grid")
    common(p)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--eta-grid", type=_list_of(float), required=True,
                   help="comma list of eta values")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("simulate", help="one strategy run")
    common(p, seed=_seed)
    p.add_argument("--strategy", required=True, choices=STRATEGIES)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--blocks", type=int, required=True, help="simulated blocks T")
    p.add_argument("--batch-size", type=_positive_int, default=None,
                   help="N for the accumulate baseline")
    p.add_argument("--trace-out", default=None,
                   help="optional per-block delay CSV")
    delay_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="Monte Carlo sweep over strategies/etas/seeds")
    common(p, workers=True)
    p.add_argument("--strategies", type=_list_of(_strategy), required=True,
                   help=f"comma list from {','.join(STRATEGIES)}")
    p.add_argument("--eta-grid", type=_list_of(float), required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--blocks", type=int, required=True)
    p.add_argument("--seeds", type=_list_of(_seed), required=True, help="comma list of seeds")
    p.add_argument("--batch-size", type=_positive_int, default=None)
    delay_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("example-fig4",
                       help="bundled six-cdf example: bounds vs simulation")
    common(p, model=False, workers=True)
    p.add_argument("--eta-grid", type=_list_of(float), default="0.5,0.25,0.1,0.05")
    p.add_argument("--blocks", type=int, default=20000)
    p.add_argument("--seeds", type=_list_of(_seed), default="1,2,3")
    p.set_defaults(func=cmd_example_fig4)

    p = sub.add_parser("codec", help="random-binning codec Monte Carlo trials")
    common(p, seed=int)  # the codec checks its own range, [0, 2**64 - K)
    p.add_argument("--bsc", type=float, default=None,
                   help="binary symmetric pair with this crossover")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None,
                   help="blocks per message, each of group 1 (default 1; with "
                        "--groups, must equal their number)")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--rates", type=_list_of(float), required=True,
                   help="comma list of rate_bits")
    p.add_argument("--trials", type=_positive_int, required=True)
    p.add_argument("--kind", choices=(codec_mod.BATCH, codec_mod.SEQUENTIAL),
                   default=codec_mod.BATCH)
    p.add_argument("--groups", type=_list_of(int), default=None,
                   help="comma list of observed groups (default: group 1 per block)")
    p.set_defaults(func=cmd_codec)

    p = sub.add_parser("ingest", help="build a model from a paired symbol trace")
    common(p, model=False)
    p.add_argument("--input", required=True,
                   help="trace file: one x,y line of decimal digits per symbol pair")
    p.add_argument("--n", type=_positive_int, required=True, help="symbols per block")
    p.add_argument("--joint-levels", type=_positive_int, default=128)
    p.add_argument("--marginal-levels", type=_positive_int, default=8)
    p.add_argument("--skip-header", type=_int_at_least(0), default=0,
                   help="lines to skip before the first x,y line")
    p.add_argument("--slot-seconds", type=_positive_float, default=None,
                   help="seconds per symbol, written to the model for --seconds")
    p.add_argument("--random-representative", type=_seed, default=None, metavar="SEED",
                   help="draw level representatives at random with this seed")
    p.add_argument("--assign-out", default=None,
                   help="optional per-block assignment CSV")
    p.set_defaults(func=cmd_ingest)

    return parser


def _warning_line(message, category, filename, lineno, line=None) -> str:
    return f"warning: {message}\n"


def main(argv=None) -> int:
    parser = build_parser()
    formatwarning, warnings.formatwarning = warnings.formatwarning, _warning_line
    try:
        args = parser.parse_args(argv)
        _check_writable(args)
        return args.func(args)
    except (CliError, ValueError, OSError, MemoryError, Warning) as exc:
        # a Warning arrives here when warnings are raised as errors (-W error);
        # a MemoryError when a count asks for more memory than can be had
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
