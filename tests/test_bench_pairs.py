"""The paired benchmark script's summary, on fixed numbers, and its pairing
of runs, with a fake runner on two temporary trees (no git, no subprocess:
bench/run.py is not run here)."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_summary_counts_wins_losses_and_ties():
    base = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    change = [0.5, 2.0, 2.5, 4.5, 4.0, 6.0, 6.5, 7.0, 8.0, 9.0]
    s = bench_pairs.summarize(base, change, "lower")
    assert (s["wins"], s["losses"], s["ties"], s["pairs"]) == (7, 1, 2, 10)
    assert s["base"] == {"q1": 3.25, "median": 5.5, "q3": 7.75}
    assert s["change"] == {"q1": 2.875, "median": 5.25, "q3": 6.875}
    assert s["median_change"] == pytest.approx(-0.25 / 5.5)
    assert not s["gain_claimable"]  # 7 of 10 wins, and 0.25 is inside the base IQR
    assert "bound" not in s
    # the same pairs where higher is better: the roles of wins and losses swap
    s = bench_pairs.summarize(base, change, "higher", bound=0.1)
    assert (s["wins"], s["losses"], s["ties"]) == (1, 7, 2)
    assert s["within_bound"] is True and s["bound"] == 0.1  # 4.5 % lower


def test_summary_claims_a_gain_only_past_the_base_spread():
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    clear = [b - 1.0 for b in base]
    s = bench_pairs.summarize(base, clear, "lower", bound=0.2)
    assert s["wins"] == 10 and s["gain_claimable"] and s["within_bound"]
    # nine wins and one tie still make nine tenths
    nine = clear[:9] + [base[9]]
    assert bench_pairs.summarize(base, nine, "lower")["gain_claimable"]
    # eight wins and two ties do not: ties count for neither side
    eight = clear[:8] + base[8:]
    s = bench_pairs.summarize(base, eight, "lower")
    assert (s["wins"], s["ties"]) == (8, 2) and not s["gain_claimable"]
    # every pair won by less than the base IQR (0.2) is no claim
    small = [b - 0.05 for b in base]
    s = bench_pairs.summarize(base, small, "lower")
    assert s["wins"] == 10 and not s["gain_claimable"]


def test_summary_bound_and_bad_input():
    base = [1.0] * 10
    assert bench_pairs.summarize(base, [1.2] * 10, "lower", bound=0.2)["within_bound"]
    assert not bench_pairs.summarize(base, [1.21] * 10, "lower", bound=0.2)["within_bound"]
    assert not bench_pairs.summarize(base, [0.79] * 10, "higher", bound=0.2)["within_bound"]
    with pytest.raises(ValueError, match="same, nonzero number"):
        bench_pairs.summarize(base, base[:9], "lower")
    with pytest.raises(ValueError, match="better must be"):
        bench_pairs.summarize(base, base, "faster")


def test_summary_marks_a_bound_unresolved_when_the_base_spreads_wider():
    # both sides' medians are 5.5, so a bound of 0.2 allows an IQR up to 1.1
    base = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    narrow = [4.75, 5.0, 5.0, 5.25, 5.5, 5.5, 5.75, 6.0, 6.25, 6.5]
    s = bench_pairs.summarize(narrow, narrow, "lower", bound=0.2)
    assert s["base"]["q3"] - s["base"]["q1"] == 0.875
    assert s["within_bound"] and not s["unresolved"]
    s = bench_pairs.summarize(base, base, "lower", bound=0.2)
    assert s["base"]["q3"] - s["base"]["q1"] == 4.5
    assert s["within_bound"] and s["unresolved"]
    # 4.5 is within 0.9 * 5.5 = 4.95
    assert bench_pairs.summarize(base, base, "lower", bound=0.9)["unresolved"] is False
    # a change whose every run beats every base run is resolved however wide
    # the base spread
    assert not bench_pairs.summarize(base, [0.5] * 10, "lower", bound=0.2)["unresolved"]
    assert bench_pairs.summarize(base, [1.0] * 10, "lower", bound=0.2)["unresolved"]


def test_summary_claims_no_gain_when_the_change_fails_more():
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    clear = [b - 1.0 for b in base]
    assert bench_pairs.summarize(base, clear, "lower", None, 0.01, 0.01)["gain_claimable"]
    assert bench_pairs.summarize(base, clear, "lower", None, 0.01, 0.0)["gain_claimable"]
    assert not bench_pairs.summarize(base, clear, "lower", None, 0.0, 0.001)["gain_claimable"]


def _fake_trees(tmp_path):
    trees = {side: tmp_path / side for side in ("base", "change")}
    for side, tree in trees.items():
        tree.mkdir()
        (tree / "side.txt").write_text(side)
    return trees, tmp_path / "run"


def test_pairs_run_both_sides_from_one_path(tmp_path):
    """Every run sees its own tree at the same path, the sides alternate
    first, and both trees are back in place afterwards."""
    trees, stage = _fake_trees(tmp_path)
    seen = []

    def run(tree, workload, seed, seconds):
        seen.append((tree, (tree / "side.txt").read_text(), seed))
        return {"metrics": {}, "digests": {"out": workload}}

    runs = bench_pairs._pairs(trees, stage, "w", 7, 1, run=run)
    assert {tree for tree, _, _ in seen} == {stage}
    assert [(side, seed) for _, side, seed in seen[:4]] == [
        ("base", 7), ("change", 7), ("change", 8), ("base", 8)]
    assert len(runs) == bench_pairs.PAIRS and all(r["digests_equal"] for r in runs)
    assert [r["first"] for r in runs[:2]] == ["base", "change"]
    assert not stage.exists()
    assert {side: (tree / "side.txt").read_text() for side, tree in trees.items()} == {
        "base": "base", "change": "change"}


def test_pairs_put_the_trees_back_after_a_failed_run(tmp_path):
    trees, stage = _fake_trees(tmp_path)
    calls = []

    def run(tree, workload, seed, seconds):
        calls.append((tree / "side.txt").read_text())
        if len(calls) == 2:
            raise RuntimeError("bench/run.py exited 1")
        return {"metrics": {}, "digests": {}}

    with pytest.raises(RuntimeError, match="^change: bench/run.py exited 1$"):
        bench_pairs._pairs(trees, stage, "w", 7, 1, run=run)
    assert calls == ["base", "change"] and not stage.exists()
    assert {side: (tree / "side.txt").read_text() for side, tree in trees.items()} == {
        "base": "base", "change": "change"}


def test_src_lines_counts_as_the_benchmark_does(tmp_path):
    """Each side's size is the newline count of its ``src/swdelay/*.py``, the
    rule of ``bench/run.py``'s ``src_swdelay_lines``: other files, nested
    folders and a last line without its newline do not count."""
    trees, _ = _fake_trees(tmp_path)
    for tree, texts in ((trees["base"], ("a\nb\n", "c\n")), (trees["change"], ("a\nb",))):
        pkg = tree / "src" / "swdelay"
        (pkg / "sub").mkdir(parents=True)
        for i, text in enumerate(texts):
            (pkg / f"m{i}.py").write_text(text)
        (pkg / "notes.txt").write_text("x\ny\n")
        (pkg / "sub" / "deep.py").write_text("x\n")
    assert {side: bench_pairs.src_lines(tree) for side, tree in trees.items()} == {
        "base": 3, "change": 1}
    assert bench_pairs.src_lines(tmp_path / "empty") == 0
