"""Self-check of the benchmark, on tiny inputs (``--smoke``).

Run from the repository root:

    python3 -m pytest bench/test_bench.py -q

Every workload is run once untraced and once traced.  Each run must pass its
own correctness gates, emit exactly the metrics BENCHMARK.json names, with
their units, and produce the same output digests in both modes.  A copy of
the benchmark without the program must fail without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _lines(proc: subprocess.CompletedProcess) -> list[str]:
    return proc.stdout.strip().splitlines()


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric(workload):
    digests = []
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(ROOT, workload, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(_lines(proc)[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, _lines(proc)[-2]
        assert result["failed"] == 0 and result["attempted"] >= 1

        expected = {m["name"]: m["unit"] for m in SPEC[kind]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == expected
        for name, m in result["metrics"].items():
            assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
            if kind == "end_to_end":
                assert m["value"] > 0, name

        report = json.loads(_lines(proc)[-2])["report"]
        assert report["digests"], "no output was hashed"
        digests.append(report["digests"])
    assert digests[0] == digests[1], "traced and untraced runs wrote different outputs"


def test_refuses_to_run_without_the_program():
    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
