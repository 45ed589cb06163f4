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
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import bounds as bounds_mod
from . import codec as codec_mod
from .ingest import blockify, quantize_model
from .model import (
    ModelError,
    SourceModel,
    bsc_pair_model,
    compute_stats,
    demo_model,
    load_model,
    save_model,
)
from .rate import RateAccumulator, k_c, k_c_chernoff, rate_unconditional
from .strategies import (STRATEGIES, SimulationResult, check_run, resolve_channel_rate,
                         simulate)

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
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return f"{value:.12g}"
    return str(value)


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


def _check_writable(*paths) -> None:
    """Rejects an output path that could not be opened, before any computation;
    an existing file is left untouched until the results are written."""
    for path in paths:
        if path in (None, "-"):
            continue
        folder = os.path.dirname(os.path.abspath(path))
        target = path if os.path.exists(path) else folder
        if not os.path.isdir(folder) or os.path.isdir(path) or not os.access(target, os.W_OK):
            raise CliError(f"cannot write {path}: not a writable file in an existing directory")


def _load(args) -> SourceModel:
    if getattr(args, "model", None) is None:
        raise CliError("a model file is required (--model)")
    try:
        return load_model(args.model)
    except (OSError, ModelError) as exc:
        raise CliError(f"cannot load model: {exc}") from exc


def _parse_list(text: str, kind: type) -> list:
    """A comma list flag: at least one value, each parsed by ``kind``."""
    values = [v for v in text.split(",") if v != ""]
    if not values:
        raise CliError(f"empty list {text!r}")
    try:
        return [kind(v) for v in values]
    except ValueError as exc:
        raise CliError(f"bad {kind.__name__} list {text!r}") from exc


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
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


_positive_int = _int_at_least(1)
_seed = _int_at_least(0)  # numpy's generators take no negative seed


def _seed_list(text: str) -> tuple[int, ...]:
    seeds = tuple(_parse_list(text, int))
    if min(seeds) < 0:
        raise CliError(f"--seeds: must be >= 0, got {min(seeds)}")
    return seeds


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
    rows = [
        ("e_h", s.e_h), ("var_h", s.var_h), ("h_max", s.h_max), ("m_h", s.m_h),
        ("m", s.m), ("m_star", s.m_star),
    ]
    for i in range(s.m):
        rows += [
            (f"phi_{i + 1}", s.phi[i]),
            (f"e_h_{i + 1}", s.e_hi[i]),
            (f"var_h_{i + 1}", s.var_hi[i]),
            (f"h_max_{i + 1}", s.h_maxi[i]),
        ]
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
        for g in _parse_list(args.groups, int):
            acc.push_block(g)
        value = acc.rate_quantile(args.epsilon)
    print(_fmt(value))
    return EXIT_OK


def cmd_kc(args) -> int:
    model = _load(args)
    stats = compute_stats(model)
    try:
        c, eta = resolve_channel_rate(stats, args.eta, args.c)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    exact = k_c(model, c, args.epsilon)
    cher = k_c_chernoff(stats, eta, args.epsilon)
    print(_fmt(exact))
    print(_fmt(cher.value))
    print(_fmt(cher.k_int))
    return EXIT_OK


def cmd_bounds(args) -> int:
    model = _load(args)
    stats = compute_stats(model)
    etas = _parse_list(args.eta_grid, float)
    try:
        report = bounds_mod.bounds_report(stats, etas, args.epsilon)
    except ModelError as exc:
        raise CliError(str(exc)) from exc
    rows = [
        (r.eta, r.ub_we, r.ub_wd, r.lb_we, r.lb_wd, r.gamma, r.argmax_istar)
        for r in report
    ]
    _write_csv(
        args.out,
        ("eta", "ub_we", "ub_wd", "lb_we", "lb_wd", "gamma", "argmax_istar"),
        rows,
        not args.no_timestamp,
    )
    return EXIT_OK


def _result_row(res: SimulationResult, scale: float = 1.0) -> tuple:
    return (
        res.strategy, res.eta,
        res.epsilon if res.epsilon is not None else "",
        res.seed, res.blocks,
        res.mean_delay * scale, res.mean_w_e * scale, res.mean_w_c * scale,
        res.mean_w_d * scale,
        res.outage_rate, res.mean_encoding_rate, res.batches,
    )


def _delay_scale(model: SourceModel, seconds: bool) -> float:
    """Blocks by default; --seconds converts via n * slot_seconds."""
    if not seconds:
        return 1.0
    if model.slot_seconds is None:
        raise CliError("--seconds needs a model with slot_seconds")
    return model.block_len_n * model.slot_seconds


def cmd_simulate(args) -> int:
    _check_writable(args.out, args.trace_out)
    model = _load(args)
    scale = _delay_scale(model, args.seconds)
    run = dict(epsilon=args.epsilon, T=args.blocks, eta=args.eta, c=args.c,
               batch_size=args.batch_size)
    check_run((args.strategy,), **run)
    res, = simulate(model, (args.strategy,), seed=args.seed,
                    use_marginals=not args.no_marginals,
                    collect_records=args.trace_out is not None, **run)
    if res.unstable:
        print(f"warning: unstable queue for {res.strategy}", file=sys.stderr)
    _write_csv(args.out, SWEEP_COLUMNS, [_result_row(res, scale)],
               not args.no_timestamp)
    if args.trace_out is not None:
        rec = res.records
        rows = zip(rec.block.tolist(), (rec.w_e * scale).tolist(),
                   (rec.w_c * scale).tolist(), (rec.w_d * scale).tolist())
        _write_csv(args.trace_out, ("t", "w_e", "w_c", "w_d"), rows,
                   not args.no_timestamp)
    return EXIT_OK


@dataclass(frozen=True)
class SweepSpec:
    """One Monte Carlo sweep: one ``simulate`` task per (eta, seed) runs every
    strategy on that (eta, seed)."""

    strategies: tuple[str, ...]
    eta_grid: tuple[float, ...]
    epsilon: float
    blocks: int
    seeds: tuple[int, ...]
    batch_size: int | None = None
    use_marginals: bool = True

    def __post_init__(self):
        if not (self.strategies and self.eta_grid and self.seeds):
            raise ValueError("a sweep needs at least one strategy, eta and seed")
        for eta in self.eta_grid:
            check_run(self.strategies, epsilon=self.epsilon, T=self.blocks, eta=eta,
                      batch_size=self.batch_size)

    def tasks(self) -> list[tuple[float, int]]:
        """One (eta, seed) per task."""
        return [(eta, seed) for eta in self.eta_grid for seed in self.seeds]


def _sweep_task(payload) -> tuple[SimulationResult, ...]:
    model, spec, (eta, seed) = payload
    return simulate(model, spec.strategies, epsilon=spec.epsilon, T=spec.blocks, seed=seed,
                    eta=eta, batch_size=spec.batch_size, use_marginals=spec.use_marginals)


def run_sweep(model: SourceModel, spec: SweepSpec, workers: int = 1
              ) -> list[SimulationResult]:
    """All sweep runs, merged back in spec order regardless of completion."""
    tasks = spec.tasks()
    payloads = [(model, spec, t) for t in tasks]
    if workers <= 1:
        done = map(_sweep_task, payloads)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_sweep_task, payloads))
    by_run = {(res.strategy, eta, seed): res
              for (eta, seed), results in zip(tasks, done) for res in results}
    return [by_run[strategy, eta, seed] for strategy in spec.strategies
            for eta in spec.eta_grid for seed in spec.seeds]


def cmd_sweep(args) -> int:
    _check_writable(args.out)
    model = _load(args)
    scale = _delay_scale(model, args.seconds)
    spec = SweepSpec(
        strategies=tuple(args.strategies.split(",")),
        eta_grid=tuple(_parse_list(args.eta_grid, float)),
        epsilon=args.epsilon,
        blocks=args.blocks,
        seeds=_seed_list(args.seeds),
        batch_size=args.batch_size,
        use_marginals=not args.no_marginals,
    )
    try:
        results = run_sweep(model, spec, workers=args.workers)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    unstable = [r for r in results if r.unstable]
    for r in unstable:
        print(
            f"warning: unstable queue for {r.strategy} at eta={_fmt(r.eta)} "
            f"seed={r.seed}",
            file=sys.stderr,
        )
    _write_csv(args.out, SWEEP_COLUMNS, [_result_row(r, scale) for r in results],
               not args.no_timestamp)
    return EXIT_OK


def cmd_example_fig4(args) -> int:
    """Bundled six-cdf model: bounds vs simulated delays, bracketing checked."""
    _check_writable(args.out)
    model = demo_model()
    stats = compute_stats(model)
    epsilon = 0.01
    etas = tuple(_parse_list(args.eta_grid, float))
    seeds = _seed_list(args.seeds)
    report = bounds_mod.bounds_report(stats, etas, epsilon)
    spec = SweepSpec(
        strategies=("we", "wd"),
        eta_grid=etas,
        epsilon=epsilon,
        blocks=args.blocks,
        seeds=seeds,
    )
    results = run_sweep(model, spec, workers=args.workers)

    print(f"model: m={model.m} cdfs={len(model.entries)} "
          f"e_h={_fmt(stats.e_h)} var_h={_fmt(stats.var_h)} "
          f"h_max={_fmt(stats.h_max)} epsilon={_fmt(epsilon)}",
          file=sys.stderr)

    rows = []
    all_ok = True
    for strategy, which in (("we", "WE"), ("wd", "WD")):
        for row in report:
            sims = [
                r.mean_delay for r in results
                if r.strategy == strategy and r.eta == row.eta
            ]
            mean = float(np.mean(sims))
            se = float(np.std(sims, ddof=1) / math.sqrt(len(sims))) if len(sims) > 1 else 0.0
            lb = row.lb_we if which == "WE" else row.lb_wd
            ub = row.ub_we if which == "WE" else row.ub_wd
            ok = (lb - 3 * se) <= mean <= (ub + 3 * se)
            all_ok &= ok
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
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def cmd_codec(args) -> int:
    if (args.model is None) == (args.bsc is None):
        raise CliError("give exactly one of --model or --bsc CROSSOVER")
    _check_writable(args.out)
    model = bsc_pair_model(args.bsc) if args.bsc is not None else _load(args)
    groups = tuple(_parse_list(args.groups, int)) if args.groups is not None else (1,) * args.k
    configs = [
        codec_mod.CodecConfig(
            alphabet_x=args.alphabet_x,
            alphabet_y=args.alphabet_y,
            n=args.n,
            blocks=args.k,
            delta=args.delta,
            rate_bits=rate,
            seed=args.seed,
        )
        for rate in _parse_list(args.rates, float)
    ]
    for config in configs:  # checks the groups and pmf shapes before any trial
        codec_mod.Codebook(model, config, groups, args.kind)
    rows = []
    for config in configs:
        report = codec_mod.run_codec_trials(
            model, groups, config, kind=args.kind,
            trials=args.trials, seed=args.seed + 1,
        )
        rows.append((config.rate_bits, report.err_rate, report.eps1, report.eps2,
                     report.eps3))
    _write_csv(args.out, ("rate_bits", "err_rate", "eps1", "eps2", "eps3"),
               rows, not args.no_timestamp)
    return EXIT_OK


def cmd_ingest(args) -> int:
    if args.out is None:
        raise CliError("an output model path is required (--out)")
    _check_writable(args.out, args.assign_out)
    try:
        trace = np.loadtxt(args.input, delimiter=",", dtype=np.int64,
                           skiprows=args.skip_header, ndmin=2)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read trace: {exc}") from exc
    try:
        result = quantize_model(
            blockify(trace, args.n),
            joint_levels=args.joint_levels,
            marginal_levels=args.marginal_levels,
            representative="random" if args.random_representative else "midpoint",
            seed=args.seed,
            block_len_n=args.n,
            slot_seconds=args.slot_seconds,
        )
    except Exception as exc:
        raise CliError(str(exc)) from exc
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

    def common(p, model=True, seed=None, workers=False):
        if model:
            p.add_argument("--model", help="model config file (YAML)")
        if seed is not None:
            p.add_argument("--seed", type=seed, default=0)
        p.add_argument("--out", default=None, help="output CSV path ('-' = stdout)")
        if workers:
            p.add_argument("--workers", type=_positive_int, default=1,
                           help="worker processes for the runs")
        p.add_argument("--no-timestamp", action="store_true",
                       help="suppress the timestamp header line")

    p = sub.add_parser("validate", help="check a model file against the invariants")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("stats", help="entropy statistics of a model")
    common(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("rate", help="minimum joint encoding rate (bits, cumulative)")
    common(p)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--blocks", type=int, default=None,
                   help="unconditional K-block quantile")
    p.add_argument("--groups", default=None,
                   help="comma list of observed marginal groups (conditional)")
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("kc", help="smallest decodable batch size and its surrogate")
    common(p)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--c", type=float, default=None)
    p.set_defaults(func=cmd_kc)

    p = sub.add_parser("bounds", help="closed-form delay bounds over an eta grid")
    common(p)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--eta-grid", required=True, help="comma list of eta values")
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
    p.add_argument("--no-marginals", action="store_true",
                   help="collapse the marginal groups (blind encoder/decoder)")
    p.add_argument("--trace-out", default=None,
                   help="optional per-block delay CSV")
    p.add_argument("--seconds", action="store_true",
                   help="report delays in seconds (needs slot_seconds)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="Monte Carlo sweep over strategies/etas/seeds")
    common(p, workers=True)
    p.add_argument("--strategies", required=True,
                   help=f"comma list from {','.join(STRATEGIES)}")
    p.add_argument("--eta-grid", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--blocks", type=int, required=True)
    p.add_argument("--seeds", required=True, help="comma list of seeds")
    p.add_argument("--batch-size", type=_positive_int, default=None)
    p.add_argument("--no-marginals", action="store_true")
    p.add_argument("--seconds", action="store_true",
                   help="report delays in seconds (needs slot_seconds)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("example-fig4",
                       help="bundled six-cdf example: bounds vs simulation")
    common(p, model=False, workers=True)
    p.add_argument("--eta-grid", default="0.5,0.25,0.1,0.05")
    p.add_argument("--blocks", type=int, default=20000)
    p.add_argument("--seeds", default="1,2,3")
    p.set_defaults(func=cmd_example_fig4)

    p = sub.add_parser("codec", help="random-binning codec Monte Carlo trials")
    common(p, seed=int)  # the codec checks its own range, [0, 2**64 - K)
    p.add_argument("--bsc", type=float, default=None,
                   help="binary symmetric pair with this crossover")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=1, help="blocks per message")
    p.add_argument("--alphabet-x", type=int, default=2)
    p.add_argument("--alphabet-y", type=int, default=2)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--rates", required=True, help="comma list of rate_bits")
    p.add_argument("--trials", type=_positive_int, required=True)
    p.add_argument("--kind", choices=(codec_mod.BATCH, codec_mod.SEQUENTIAL),
                   default=codec_mod.BATCH)
    p.add_argument("--groups", default=None,
                   help="comma list of observed groups (default: group 1 per block)")
    p.set_defaults(func=cmd_codec)

    p = sub.add_parser("ingest", help="build a model from a paired symbol trace")
    common(p, model=False, seed=_seed)
    p.add_argument("--input", required=True, help="CSV of integer (x, y) pairs")
    p.add_argument("--n", type=_positive_int, required=True, help="symbols per block")
    p.add_argument("--joint-levels", type=_positive_int, default=128)
    p.add_argument("--marginal-levels", type=_positive_int, default=8)
    p.add_argument("--skip-header", type=int, default=0)
    p.add_argument("--slot-seconds", type=_positive_float, default=None,
                   help="seconds per symbol, written to the model for --seconds")
    p.add_argument("--random-representative", action="store_true",
                   help="draw level representatives at random (seeded)")
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
        return args.func(args)
    except (CliError, ModelError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
