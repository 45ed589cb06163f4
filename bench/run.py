#!/usr/bin/env python3
"""swdelay benchmark: three workloads driven through ``swdelay.cli.main``.

Run from the root of a checkout (the directory that holds ``src/swdelay``):

    python3 bench/run.py --workload fig4-lattice --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload fig4-lattice --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --workload codec-trials --seed 1 --seconds 2 --trace 0 --smoke

A run is a closed loop with one caller: it generates the workload's inputs
from ``--seed``, runs one untimed warm-up round, and then repeats the same
round of CLI commands until ``--seconds`` have passed.  Every round checks
the program's outputs and hashes every ``--no-timestamp`` output file; all
rounds of a run must produce the warm-up round's digests.

``--trace 0`` reports the end-to-end metrics, medians over the timed rounds.
``--trace 1`` alternates untraced and traced rounds and reports the per-layer
metrics of the traced ones (see ``bench/tracer.py``), plus the tracing
overhead.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full report, with
run metadata, digests and spans, is written under ``.bench_out/``.

``--smoke`` shrinks every input so that a run takes seconds; it exists for
the benchmark's own test and its numbers are not comparable.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path.cwd()
OUT_DIR = ROOT / ".bench_out"

# a run starts no new round after this many seconds, so that it ends in time
# even when the program under test has become much slower
HARD_LIMIT_S = 90.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_rel", "ratio"),
    ("main_rel", "ratio"),
    ("peak_rss_mb", "MiB"),
)


def _layer(name: str, fields: str) -> list[tuple[str, str]]:
    units = {"calls": "count", "self_s": "s", "us_p50": "us", "us_p99": "us",
             "batches": "count", "blocks_per_s": "blocks/s", "failed": "count"}
    return [(f"{name}.{f}", units[f]) for f in fields.split()]


PER_LAYER = (
    _layer("model.sample_trace", "calls self_s")
    + _layer("model.compute_stats", "calls self_s")
    + _layer("model.validate_model", "calls")
    + _layer("rate.push_block", "calls self_s us_p50 us_p99")
    + _layer("rate.tail_above", "calls self_s us_p50 us_p99")
    + _layer("rate.rate_quantile", "calls self_s us_p50 us_p99")
    + _layer("rate.reset", "calls self_s")
    + [("rate.tail_above.stop_ratio", "ratio"), ("rate.coarse_share", "ratio")]
    + _layer("channel.enqueue", "calls self_s us_p50")
    + _layer("strategies.we", "self_s blocks_per_s batches")
    + _layer("strategies.wd", "self_s blocks_per_s batches")
    + _layer("strategies.known-joint", "self_s blocks_per_s batches")
    + _layer("bounds.bounds_report", "calls self_s")
    + [("cli.main.self_s", "s")]
    + _layer("codec.run_codec_trials", "calls self_s")
    + [("codec.us_per_trial", "us")]
    + _layer("codec.encode", "calls self_s us_p50")
    + _layer("codec.jointly_typical", "calls self_s")
    + [(f"codec.{f}", "count") for f in ("errors", "eps1", "eps2", "eps3")]
    + [("ingest.blockify.self_s", "s"), ("ingest.blockify.us_per_block", "us")]
    + _layer("ingest.quantize_model", "calls self_s failed")
    + [("ingest.model_entries", "count"), ("ingest.model_groups", "count"),
       ("ingest.blocks_per_s", "blocks/s")]
    + [("trace.wall_s", "s"), ("trace.overhead_s", "s")]
)


@dataclass(frozen=True)
class Sizes:
    fig4_blocks: int      # blocks per (strategy, eta, seed) run of example-fig4
    trace_blocks: int     # blocks per ingest trace
    sweep_blocks: int     # T of the sweep on the learned model
    codec_trials: int     # trials per codec rate
    setup_reps: int       # fresh interpreters timed for setup_s
    min_rounds: int       # timed rounds (pairs under --trace 1) at least


FULL = Sizes(fig4_blocks=10_000, trace_blocks=2_000, sweep_blocks=250,
             codec_trials=500, setup_reps=7, min_rounds=3)
SMOKE = Sizes(fig4_blocks=400, trace_blocks=60, sweep_blocks=100,
              codec_trials=20, setup_reps=2, min_rounds=1)


# ---------------------------------------------------------------------------
# one round: CLI commands, gates, digests
# ---------------------------------------------------------------------------

class Round:
    """Outcome of one pass over a workload's commands."""

    def __init__(self):
        self.ops = 0
        self.failures: list[str] = []
        self.known: list[str] = []
        self.digests: dict[str, str] = {}
        self.phase_s: dict[str, float] = {}
        self.phase_units: dict[str, float] = {}
        self.ref_s = math.nan  # reference kernel time beside the round

    @property
    def wall_s(self) -> float:
        return sum(self.phase_s.values())

    def rate(self, phase: str) -> float:
        return self.phase_units[phase] / self.phase_s[phase]

    def gate(self, ok: bool, what: str) -> bool:
        self.ops += 1
        if not ok:
            self.failures.append(what)
        return ok

    def digest(self, path: Path) -> None:
        self.digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()

    def cli(self, phase: str, units: float, argv: list[str], tracer) -> tuple[int | None, str]:
        """Runs one command in-process; its wall time counts towards the phase."""
        from swdelay import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(tracer.installed())
            stack.enter_context(contextlib.redirect_stdout(out))
            stack.enter_context(contextlib.redirect_stderr(err))
            t0 = perf_counter()
            try:
                rc = cli.main(argv)
            except Exception:  # a traceback is a failed operation, not a crash
                traceback.print_exc(file=err)
                rc = None
            dt = perf_counter() - t0
        self.phase_s[phase] = self.phase_s.get(phase, 0.0) + dt
        self.phase_units[phase] = self.phase_units.get(phase, 0.0) + units
        return rc, err.getvalue()


def _last_line(text: str) -> str:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    return lines[-1] if lines else ""


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))


def _fresh(out: Path) -> Path:
    """Empties the per-round output directory, so no file survives a failed command."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    return out


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Fig4Lattice:
    """`swdelay example-fig4` on the built-in dyadic demo model.

    Exact lattice, tiny support: per-block Python overhead in strategies,
    rate and channel dominates.  eta = 0.5 flushes every block, eta = 0.05
    runs batches of about 20 blocks.
    """

    name = "fig4-lattice"
    main_phase = "sim"
    etas = "0.5,0.25,0.1,0.05"

    def __init__(self, work: Path, seed: int, size: Sizes):
        from swdelay.model import demo_model, save_model

        rng = np.random.default_rng(seed)
        self.seeds = ",".join(str(int(s)) for s in rng.choice(10**6, 2, replace=False) + 1)
        self.blocks = size.fig4_blocks
        self.work = work
        self.model_path = work / "demo.yaml"
        save_model(demo_model(), self.model_path)

    def verify(self, r: Round) -> None:
        """Every round checks its own rows; nothing more to do."""

    def round(self, r: Round, tracer) -> None:
        out = _fresh(self.work / "out") / "fig4.csv"
        units = 2 * len(self.etas.split(",")) * len(self.seeds.split(",")) * self.blocks
        rc, err = r.cli("sim", units, [
            "example-fig4", "--eta-grid", self.etas, "--blocks", str(self.blocks),
            "--seeds", self.seeds, "--out", str(out), "--no-timestamp",
        ], tracer)
        # exit code 2 means a simulated mean left its bound bracket
        if not r.gate(rc == 0, f"example-fig4 exit {rc}: {_last_line(err)}") and rc != 2:
            return
        rows = _rows(out)
        r.gate(len(rows) == 2 * len(self.etas.split(",")), f"example-fig4 wrote {len(rows)} rows")
        for row in rows:
            r.gate(row["bracket"] == "pass",
                   f"{row['strategy']} eta={row['eta']}: {row['sim_mean_delay']} "
                   f"outside [{row['lb']}, {row['ub']}]")
        r.digest(out)


KNOWN_INGEST_DEFECT = "marginal repair did not converge"


class IngestNonlattice:
    """`swdelay ingest` on two 4-ary paired traces, then a sweep on the learned model.

    The learned model is off-lattice, so the rate accumulator runs on the
    coarse 1e-3-bit grid with group pmfs of several hundred points: the only
    workload that measures ingest and the coarse-grid convolution.
    """

    name = "ingest-nonlattice"
    main_phase = "sim"
    block_len = 500
    # (file stem, per-block crossover mix, content seed)
    traces = (("noisy", (0.1, 0.2, 0.3), 101), ("lownoise", (0.05, 0.15, 0.3), 102))
    # Fixed like the trace contents: at eta = 0.1 a row has only a handful of
    # batches and a push costs in proportion to the batch so far, so the
    # sweep time moved by 15% between sweep seeds.
    sweep_seed = "103"

    def __init__(self, work: Path, seed: int, size: Sizes):
        rng = np.random.default_rng(seed)
        self.work = work
        self.trace_blocks = size.trace_blocks
        self.sweep_blocks = size.sweep_blocks
        for stem, flips, content_seed in self.traces:
            _write_trace(work / f"{stem}.csv", flips, content_seed, self.trace_blocks,
                         self.block_len, order_rng=rng)
        self.model_path = work / "model-noisy.yaml"

    def round(self, r: Round, tracer) -> None:
        from swdelay.model import load_model, validate_model

        out = _fresh(self.work / "out")
        learned = None
        for stem, _, _ in self.traces:
            model, assign = out / f"model-{stem}.yaml", out / f"assign-{stem}.csv"
            rc, err = r.cli("ingest", self.trace_blocks, [
                "ingest", "--input", str(self.work / f"{stem}.csv"),
                "--n", str(self.block_len), "--joint-levels", "16", "--marginal-levels", "4",
                "--out", str(model), "--assign-out", str(assign), "--no-timestamp",
            ], tracer)
            if stem == "lownoise" and rc == 1 and KNOWN_INGEST_DEFECT in err:
                # documented defect: attempted, reported, not a regression
                r.ops += 1
                r.known.append(f"ingest {stem}: {_last_line(err)}")
                continue
            if not r.gate(rc == 0, f"ingest {stem} exit {rc}: {_last_line(err)}"):
                continue
            bad = validate_model(load_model(model))
            if r.gate(not bad, f"learned model {stem} invalid: {bad[:3]}") and stem == "noisy":
                learned = model
            r.digest(model)
            r.digest(assign)
        if learned is None:
            return
        shutil.copyfile(learned, self.model_path)
        sweep = out / "sweep.csv"
        rc, err = r.cli("sim", 3 * 2 * self.sweep_blocks, [
            "sweep", "--model", str(learned), "--strategies", "we,wd,known-joint",
            "--eta-grid", "0.25,0.1", "--epsilon", "0.01",
            "--blocks", str(self.sweep_blocks), "--seeds", self.sweep_seed,
            "--out", str(sweep), "--no-timestamp",
        ], tracer)
        if r.gate(rc == 0, f"sweep exit {rc}: {_last_line(err)}"):
            r.digest(sweep)

    def verify(self, r: Round) -> None:
        """Outage check of the warm-up sweep; later rounds must repeat its digests.

        Blocks of one batch share one outcome and the guarantee is
        P{outage} <= eps per batch, so the test counts batches: each we/wd
        row is re-run through the library with its batch log, must reproduce
        the CSV row, and its number of batches in outage must not be
        improbable under Binomial(batches, eps) (tail p >= 1e-5).  A 3-sigma
        rule on the block-weighted outage rate is not sound here: at eta =
        0.1 a row has 6 to 12 batches, and one outage batch covers a tenth of
        the blocks or more.  known-joint rows must have no outage at all.
        """
        from swdelay.model import load_model
        from swdelay.strategies import run_wait_to_decode, run_wait_to_encode

        runners = {"we": run_wait_to_encode, "wd": run_wait_to_decode}
        sweep = self.work / "out" / "sweep.csv"
        if not sweep.is_file():
            return  # the warm-up round already failed
        model = load_model(self.model_path)
        for row in _rows(sweep):
            label = f"{row['strategy']} eta={row['eta']}"
            if row["strategy"] not in runners:
                r.gate(float(row["outage_rate"]) == 0.0, f"{label}: outage {row['outage_rate']}")
                continue
            eps = float(row["epsilon"])
            res = runners[row["strategy"]](
                model, epsilon=eps, T=int(row["T"]), seed=int(row["seed"]),
                eta=float(row["eta"]), collect_batches=True)
            r.gate(res.batches == int(row["batches"])
                   and abs(res.outage_rate - float(row["outage_rate"])) <= 1e-9,
                   f"{label}: library run differs from the CSV row")
            hits = sum(b.outage for b in res.batch_log)
            p = _binomial_tail(res.batches, eps, hits)
            r.gate(p >= 1e-5, f"{label}: {hits} of {res.batches} batches in outage (p = {p:.2g})")


def _binomial_tail(n: int, p: float, k: int) -> float:
    """P{Binomial(n, p) >= k}."""
    return sum(math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(k, n + 1))


def _write_trace(path: Path, flips, content_seed: int, blocks: int, n: int,
                 order_rng: np.random.Generator) -> None:
    """Paired 4-ary trace: y is x through a symmetric channel whose crossover
    is drawn per block from ``flips``.

    Block contents come from ``content_seed``, not from the workload seed:
    the learned model, and with it the cost of simulating it, is the same on
    every workload seed (between content draws the sweep time of the learned
    model varies by 2x, which would hide any regression).  The workload seed
    shuffles the order of blocks 2..N.  Block 1 is ingest's divergence
    reference and is drawn at the noisiest level, so that no block has an
    infinite divergence to it.
    """
    rng = np.random.default_rng(content_seed)
    crossover = rng.choice(np.asarray(flips), size=blocks)
    crossover[0] = max(flips)
    x = rng.integers(0, 4, size=(blocks, n))
    flip = rng.random((blocks, n)) < crossover[:, None]
    y = np.where(flip, (x + rng.integers(1, 4, size=(blocks, n))) % 4, x)
    order = np.concatenate([[0], 1 + order_rng.permutation(blocks - 1)])
    x, y = x[order].ravel(), y[order].ravel()
    text = np.empty((x.size, 4), dtype=np.uint8)
    text[:, 0], text[:, 1], text[:, 2], text[:, 3] = x + 48, ord(","), y + 48, ord("\n")
    path.write_bytes(text.tobytes())


class CodecTrials:
    """`swdelay codec`, batch and sequential, on a one-group two-member binary model.

    Both members have uniform marginals, so the decoder must tell them apart
    from the typicality test alone; the exhaustive decode runs over 2^12 to
    2^14 sequences with 2 and 4 hypotheses and all three error events occur.
    """

    name = "codec-trials"
    main_phase = "codec"
    kinds = (("batch", "12", "1", "6,9,12"), ("sequential", "7", "2", "8,11,14"))

    def __init__(self, work: Path, seed: int, size: Sizes):
        from swdelay.entropy import cond_entropy_x_given_y_bits
        from swdelay.model import CdfEntry, SourceModel, save_model

        rng = np.random.default_rng(seed)
        self.codec_seed = str(int(rng.integers(1, 10**6)))
        self.trials = size.codec_trials
        self.work = work
        pmfs = (np.array([[0.45, 0.05], [0.05, 0.45]]), np.full((2, 2), 0.25))
        model = SourceModel(tuple(
            CdfEntry(1, j, 0.5, cond_entropy_x_given_y_bits(p), p)
            for j, p in enumerate(pmfs, start=1)
        ))
        self.model_path = work / "codec.yaml"
        save_model(model, self.model_path)

    def verify(self, r: Round) -> None:
        """Every round checks its own rows; nothing more to do."""

    def round(self, r: Round, tracer) -> None:
        out = _fresh(self.work / "out")
        for kind, n, k, rates in self.kinds:
            path = out / f"codec-{kind}.csv"
            rc, err = r.cli("codec", self.trials * len(rates.split(",")), [
                "codec", "--model", str(self.model_path), "--kind", kind,
                "--n", n, "--k", k, "--rates", rates, "--delta", "0.5",
                "--trials", str(self.trials), "--seed", self.codec_seed,
                "--out", str(path), "--no-timestamp",
            ], tracer)
            if not r.gate(rc == 0, f"codec {kind} exit {rc}: {_last_line(err)}"):
                continue
            rows = _rows(path)
            for row in rows:
                errors = round(float(row["err_rate"]) * self.trials)
                events = int(row["eps1"]) + int(row["eps2"]) + int(row["eps3"])
                r.gate(events == errors,
                       f"codec {kind} rate {row['rate_bits']}: eps1+eps2+eps3 = {events} "
                       f"!= {errors} errors")
            err_rates = [float(row["err_rate"]) for row in rows]
            r.gate(all(a >= b for a, b in zip(err_rates, err_rates[1:])),
                   f"codec {kind}: err_rate rises with rate: {err_rates}")
            r.digest(path)


WORKLOADS = {w.name: w for w in (Fig4Lattice, IngestNonlattice, CodecTrials)}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); import swdelay.cli; "
    "from swdelay.model import compute_stats, load_model; "
    "compute_stats(load_model(sys.argv[1]))"
)


def time_setup(model_path: Path, r: Round) -> float:
    """Wall time of a fresh interpreter importing swdelay.cli and loading the model."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(model_path)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    dt = perf_counter() - t0
    r.gate(proc.returncode == 0, f"setup exit {proc.returncode}: {_last_line(proc.stderr)}")
    return dt


def layer_metrics(tr, rnd: Round) -> dict[str, float]:
    """Per-layer metrics of one traced round."""
    from tracer import Stat

    empty = Stat()

    def st(name: str) -> Stat:
        return tr.stats.get(name, empty)

    m: dict[str, float] = {}
    for name, _ in PER_LAYER:
        base, _, field = name.rpartition(".")
        s = st(base)
        if field == "calls":
            m[name] = s.calls
        elif field == "self_s":
            m[name] = s.self_s
        elif field in ("us_p50", "us_p99"):
            m[name] = s.quantile_us(0.5 if field == "us_p50" else 0.99)
        elif field == "failed":
            m[name] = s.failed
        elif field == "batches":
            m[name] = s.extra.get("batches", 0)
        elif field == "blocks_per_s" and base.startswith("strategies."):
            m[name] = s.extra["blocks"] / s.total_s if s.calls else 0.0

    stopped = sum(st(f"strategies.{s}").extra.get("batches", 0) for s in ("we", "wd"))
    tail = st("rate.tail_above").calls
    m["rate.tail_above.stop_ratio"] = stopped / tail if tail else 0.0
    accs = tr.accumulators
    m["rate.coarse_share"] = sum(not a.exact for a in accs) / len(accs) if accs else 0.0

    codec = st("codec.run_codec_trials")
    trials = codec.extra.get("trials", 0)
    m["codec.us_per_trial"] = codec.total_s / trials * 1e6 if trials else 0.0
    for f in ("errors", "eps1", "eps2", "eps3"):
        m[f"codec.{f}"] = codec.extra.get(f, 0)

    blk = st("ingest.blockify")
    blocks = blk.extra.get("blocks", 0)
    m["ingest.blockify.us_per_block"] = blk.total_s / blocks * 1e6 if blocks else 0.0
    quant = st("ingest.quantize_model")
    m["ingest.model_entries"] = quant.extra.get("entries", 0)
    m["ingest.model_groups"] = quant.extra.get("groups", 0)
    m["ingest.blocks_per_s"] = rnd.rate("ingest") if "ingest" in rnd.phase_s else 0.0
    m["trace.wall_s"] = rnd.wall_s
    return m


@dataclass
class Measured:
    plain: list[Round] = field(default_factory=list)    # untraced timed rounds
    traced: list[Round] = field(default_factory=list)
    layers: list[dict[str, float]] = field(default_factory=list)  # per traced round
    spans: list[dict] = field(default_factory=list)     # of the last traced round
    setup_s: list[float] = field(default_factory=list)
    setup: Round = field(default_factory=Round)         # gates of the setup runs


# The reference kernel mixes an interpreter loop with small and large numpy
# calls, as the workloads do.  It lives in the benchmark, so a change to the
# program cannot move it, while a slower machine slows it like the rounds.
_REF_SMALL = np.array([0.25, 0.5, 0.25])
_REF_LARGE = np.linspace(0.0, 1.0, 4096)


def reference_s() -> float:
    """Wall time of the fixed reference kernel (about 0.1 s)."""
    t0 = perf_counter()
    acc = np.ones(1)
    total = 0.0
    for i in range(20_000):
        acc = np.convolve(acc, _REF_SMALL) if i % 16 else np.ones(1)
        total += float(acc.sum()) * 0.5 + i % 7
    for _ in range(12):
        np.convolve(_REF_LARGE, _REF_LARGE)
    return perf_counter() - t0


def run_rounds(wl, size: Sizes, seconds: int, traced: bool) -> Measured:
    """Timed rounds until `seconds` pass.

    The reference kernel runs before the first round and after each
    untraced round; a round's ref_s is the mean of the two runs beside it.
    Untraced, one setup_s sample follows each round until there are
    size.setup_reps of them, so that rounds and set-up see the same stretch
    of machine time.  Traced, rounds come in (untraced, traced) pairs.
    """
    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
    m = Measured()
    start = perf_counter()
    ref = reference_s()
    while True:
        elapsed = perf_counter() - start
        done = len(m.plain) >= size.min_rounds and elapsed >= seconds
        if done or (m.plain and elapsed >= HARD_LIMIT_S):
            break
        r = Round()
        wl.round(r, None)
        m.plain.append(r)
        after = reference_s()
        r.ref_s, ref = (ref + after) / 2, after
        if tracer is None:
            if len(m.setup_s) < size.setup_reps:
                m.setup_s.append(time_setup(wl.model_path, m.setup))
            continue
        tracer.reset()
        r = Round()
        wl.round(r, tracer)
        m.traced.append(r)
        m.layers.append(layer_metrics(tracer, r))
    while tracer is None and len(m.setup_s) < size.setup_reps:
        m.setup_s.append(time_setup(wl.model_path, m.setup))
    if tracer is not None:
        m.spans = list(tracer.spans)
    return m


def median_metrics(layers: list[dict[str, float]]) -> dict[str, float]:
    """Median over traced rounds; counts repeat exactly and are taken as they are."""
    units = dict(PER_LAYER)
    return {k: layers[0][k] if units[k] == "count" else statistics.median(row[k] for row in layers)
            for k in layers[0]}


# ---------------------------------------------------------------------------
# run metadata
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"  # a checkout without git metadata


def metadata(seed: int) -> dict:
    src = ROOT / "src" / "swdelay"
    lines = sum(p.read_bytes().count(b"\n") for p in sorted(src.glob("*.py")))
    return {
        "nproc": os.cpu_count(), "cpu": _cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "commit": _git_commit(), "seed": seed, "src_swdelay_lines": lines,
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-check")
    return p.parse_args(argv)


def import_program() -> None:
    """Imports swdelay from src/ of the current directory, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "swdelay" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'swdelay'} not found; run from the repository root")
    sys.path.insert(0, str(src))
    import swdelay.cli  # noqa: F401

    origin = Path(sys.modules["swdelay"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"error: swdelay imported from {origin}, not from {src}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds < 1:
        raise SystemExit("error: --seconds must be >= 1")
    import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    size = SMOKE if args.smoke else FULL

    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](work, args.seed, size)
        warm = Round()
        wl.round(warm, None)
        wl.verify(warm)
        m = run_rounds(wl, size, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for r in m.plain + m.traced:
        r.gate(r.digests == warm.digests, "output digests differ from the warm-up round")
    for name, unit in PER_LAYER if args.trace else ():
        if unit == "count" and len({row[name] for row in m.layers}) > 1:
            warm.gate(False, f"count {name} differs between traced rounds")
    everything = [warm, m.setup] + m.plain + m.traced
    failures = [f for r in everything for f in r.failures]
    known = [k for r in everything for k in r.known]
    attempted = sum(r.ops for r in everything)

    if args.trace:
        metrics = median_metrics(m.layers)
        metrics["trace.overhead_s"] = (statistics.median(r.wall_s for r in m.traced)
                                       - statistics.median(r.wall_s for r in m.plain))
        metrics = {name: metrics[name] for name, _ in PER_LAYER}
        units = dict(PER_LAYER)
    else:
        metrics = {
            "setup_s": statistics.median(m.setup_s),
            "wall_rel": statistics.median(r.wall_s / r.ref_s for r in m.plain),
            "main_rel": statistics.median(r.phase_s[wl.main_phase] / r.ref_s for r in m.plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)

    phases = {"sim": "sim_blocks_per_s", "ingest": "ingest_blocks_per_s",
              "codec": "codec_trials_per_s"}
    report = {
        "workload": args.workload, "trace": args.trace, "smoke": args.smoke,
        "seconds": args.seconds, "meta": metadata(args.seed),
        "rounds": len(m.plain), "traced_rounds": len(m.traced),
        "wall_s": statistics.median(r.wall_s for r in m.plain),
        "round_wall_s": [round(r.wall_s, 6) for r in m.plain],
        "round_ref_s": [round(r.ref_s, 6) for r in m.plain],
        "setup_s": [round(t, 6) for t in m.setup_s],
        "throughput": {phases[p]: statistics.median(r.rate(p) for r in m.plain)
                       for p in phases if p in warm.phase_s},
        "ops_attempted": attempted, "ops_failed": len(failures),
        "ops_failed_share": (len(failures) + len(known)) / attempted,
        "known_defects": sorted(set(known)), "known_defect_count": len(known),
        "failures": sorted(set(failures))[:20],
        "digests": warm.digests,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps({**report, "metrics": metrics, "spans": m.spans}, indent=1))

    for name, value in metrics.items():
        print(f"{name:34s} {value:14.6g} {units[name]}")
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
