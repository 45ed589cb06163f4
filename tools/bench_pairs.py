#!/usr/bin/env python3
"""Paired benchmark of two revisions: parent and change, run alternately.

    python3 tools/bench_pairs.py BASE CHANGE --first-seed 9001 --out BENCH_<n>.json

Exports both revisions with ``git archive`` into a work directory and refuses
to run unless ``bench/`` and ``BENCHMARK.json`` are byte-identical in both, so
both sides are measured by the same benchmark.  For every workload of
``BENCHMARK.json`` it then runs ``bench/run.py --trace 0`` in each export,
at the benchmark's ``run_seconds``, for ten pairs, pair i on seed
``first-seed + i`` for both sides, BASE first in even pairs and CHANGE first
in odd ones.  Pick seeds that were not used while the change was written.
Each run moves its export to one path, ``run`` in the work directory, and
back after it, because a tree's timings and peak RSS have been seen to move
with the directory it runs from; the output records that path.

The output holds each export's line count of ``src/swdelay``, so that a
change reports its size beside its speed, and, per workload, every run's
metrics, correctness and output digests, whether each pair's digests are
equal, and per metric of the runs' final JSON line: both sides' median and quartiles, the pairs the change won,
lost and tied (a tie counts for neither side), and whether a gain can be
claimed: the change wins at least nine tenths of the pairs, the medians
differ, in its favour, by more than the base runs' interquartile range, and
the change fails no larger share of its operations than the base.  A metric
with a bound in ``BENCHMARK.json`` also says whether the change's median is
within it, and is marked unresolved when the base runs spread wider than the
bound, so that the pairs cannot tell, unless every change run is better than
every base run.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

PAIRS = 10
CLAIM_SHARE = 0.9  # share of pairs the change must win to claim a gain


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (inclusive method)."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(base: list[float], change: list[float], better: str,
              bound: float | None = None, base_failed: float = 0.0,
              change_failed: float = 0.0) -> dict:
    """Compare one metric over pairs: ``base[i]`` and ``change[i]`` are the
    two sides of pair i, and ``better`` is ``"lower"`` or ``"higher"``.
    ``base_failed`` and ``change_failed`` are the shares of each side's
    operations, over all its runs, that failed."""
    if len(base) != len(change) or not base:
        raise ValueError("base and change need the same, nonzero number of runs")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1 if better == "lower" else -1  # sign * (change - base) < 0 is a win
    diffs = [sign * (c - b) for b, c in zip(base, change)]
    wins = sum(d < 0 for d in diffs)
    losses = sum(d > 0 for d in diffs)
    b1, b2, b3 = quartiles(base)
    c1, c2, c3 = quartiles(change)
    out = {
        "better": better,
        "base": {"q1": b1, "median": b2, "q3": b3},
        "change": {"q1": c1, "median": c2, "q3": c3},
        "pairs": len(base), "wins": wins, "losses": losses,
        "ties": len(base) - wins - losses,
        "median_change": (c2 - b2) / b2 if b2 else None,
        "gain_claimable": (wins >= CLAIM_SHARE * len(base)
                           and sign * (c2 - b2) < -(b3 - b1)
                           and change_failed <= base_failed),
    }
    if bound is not None:
        out["bound"] = bound
        out["within_bound"] = sign * (c2 - b2) <= bound * abs(b2)
        separated = max(sign * c for c in change) < min(sign * b for b in base)
        out["unresolved"] = b3 - b1 > bound * abs(b2) and not separated
    return out


def _export(repo: Path, rev: str, dest: Path) -> str:
    """Extracts ``git archive REV`` into dest; returns the commit id."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=repo,
                         check=True, capture_output=True, text=True).stdout.strip()
    data = subprocess.run(["git", "archive", sha], cwd=repo, check=True,
                          capture_output=True).stdout
    dest.mkdir(parents=True)
    # the "data" filter exists from Python 3.10.12 and 3.11.4
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, **safe)
    return sha


def _bench_files(root: Path) -> dict[str, str]:
    files = [root / "BENCHMARK.json", *sorted((root / "bench").rglob("*"))]
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in files if p.is_file()}


def src_lines(tree: Path) -> int:
    """Lines of ``src/swdelay/*.py`` in a tree, counted as ``bench/run.py``
    counts its ``src_swdelay_lines``: the newline bytes of every file."""
    files = sorted((tree / "src" / "swdelay").glob("*.py"))
    return sum(p.read_bytes().count(b"\n") for p in files)


def _run(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"bench/run.py {workload} seed {seed} in {tree} exited "
                           f"{proc.returncode}: {proc.stderr.strip()[-500:]}")
    report, result = lines[-2]["report"], lines[-1]
    return {
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "digests": report["digests"],
        "src_swdelay_lines": report["meta"]["src_swdelay_lines"],
    }


def _pairs(trees: dict[str, Path], stage: Path, workload: str, first_seed: int,
           seconds: int, run=_run) -> list[dict]:
    """The runs of one workload, each side's tree moved to ``stage`` for its
    run and back after it, also when the run raises."""
    runs = []
    for i in range(PAIRS):
        seed = first_seed + i
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            trees[side].rename(stage)
            try:
                pair[side] = run(stage, workload, seed, seconds)
            except RuntimeError as exc:  # the path no longer tells the sides apart
                raise RuntimeError(f"{side}: {exc}") from exc
            finally:
                stage.rename(trees[side])
            print(f"{workload} pair {i} {side}: {pair[side]['metrics']}",
                  file=sys.stderr, flush=True)
        pair["digests_equal"] = pair["base"]["digests"] == pair["change"]["digests"]
        runs.append(pair)
    return runs


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", help="parent revision")
    p.add_argument("change", help="revision of the change")
    p.add_argument("--first-seed", type=int, required=True,
                   help="seed of the first pair; pair i runs on first-seed + i")
    p.add_argument("--out", type=Path, required=True, help="output JSON file")
    p.add_argument("--workdir", type=Path, default=None,
                   help="where to make the temporary directory that holds both "
                        "exports (default: the system's); it is removed at the end")
    args = p.parse_args(argv)
    repo = Path.cwd()
    work = Path(tempfile.mkdtemp(prefix="bench-pairs-", dir=args.workdir))
    try:
        trees = {side: work / side for side in ("base", "change")}
        revs = {side: _export(repo, rev, trees[side])
                for side, rev in (("base", args.base), ("change", args.change))}
        if _bench_files(trees["base"]) != _bench_files(trees["change"]):
            print("error: bench/ or BENCHMARK.json differ between the revisions",
                  file=sys.stderr)
            return 1
        spec = json.loads((trees["base"] / "BENCHMARK.json").read_text())
        seconds = spec["run_seconds"]
        end_to_end = {m["name"]: m for m in spec["end_to_end"]}
        stage = work / "run"
        out = {
            "base": revs["base"], "change": revs["change"], "pairs": PAIRS,
            "seconds": seconds, "first_seed": args.first_seed, "run_dir": str(stage),
            "src_swdelay_lines": {side: src_lines(tree) for side, tree in trees.items()},
            "machine": {"nproc": os.cpu_count(), "cpu": _cpu_model(),
                        "python": platform.python_version()},
            "workloads": {},
        }
        for workload in (w["name"] for w in spec["workloads"]):
            runs = _pairs(trees, stage, workload, args.first_seed, seconds)
            failed = {s: sum(r[s]["failed"] for r in runs) / sum(r[s]["attempted"] for r in runs)
                      for s in ("base", "change")}
            metrics = {}
            for name in runs[0]["base"]["metrics"]:
                spec_m = end_to_end.get(name, {})
                metrics[name] = summarize(
                    [r["base"]["metrics"][name] for r in runs],
                    [r["change"]["metrics"][name] for r in runs],
                    spec_m.get("better", "lower"), spec_m.get("bound"),
                    failed["base"], failed["change"])
            out["workloads"][workload] = {
                "metrics": metrics,
                "digests_equal": all(r["digests_equal"] for r in runs),
                "failed_share": failed,
                "all_correct": all(r[s]["correct"] and not r[s]["failed"]
                                   for r in runs for s in ("base", "change")),
                "runs": runs,
            }
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
