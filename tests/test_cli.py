import argparse
import dataclasses
import hashlib
import subprocess
import sys
import warnings
import weakref

import numpy as np
import pytest

from swdelay import CdfEntry, SourceModel, bsc_pair_model, cli, demo_model, save_model
from swdelay import model as model_mod
from swdelay.entropy import cond_entropy_x_given_y_bits
from swdelay.cli import SWEEP_COLUMNS, run_sweep
from swdelay.rate import RateAccumulator
from swdelay import strategies as strategies_mod
from swdelay.strategies import STRATEGIES

from conftest import child_env, two_group_pmf_model
from test_codec import uniform_marginal_pair_model
from test_ingest import PMF_A, PMF_B, synth_trace


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.yaml"
    save_model(demo_model(), path)
    return str(path)


def run_cli(*argv, options=()) -> tuple[int, str, str]:
    """``python OPTIONS -m swdelay ARGV`` in a new process."""
    proc = subprocess.run(
        [sys.executable, *options, "-m", "swdelay", *argv],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_validate_ok_and_bad(model_file, tmp_path):
    code, out, _ = run_cli("validate", "--model", model_file)
    assert code == 0 and out.strip() == "ok"
    bad = tmp_path / "bad.yaml"
    bad.write_text("groups:\n- members:\n  - prob: 0.9\n    cond_entropy: 2.0\n")
    code, out, _ = run_cli("validate", "--model", bad.as_posix())
    assert code == 1
    assert "prior does not sum to 1" in out


_PAIR_TABLES = ((0.4, 0.1, 0.1, 0.4), (0.7, 0.2, 0.05, 0.05))


def _pair_model_file(path, declared=None) -> str:
    """One group of two members whose marginals differ by (0.4, 0.25); each
    declares its true H(X|Y) unless ``declared`` gives the values."""
    if declared is None:
        declared = [cond_entropy_x_given_y_bits(np.reshape(t, (2, 2)))
                    for t in _PAIR_TABLES]
    members = "".join(
        f"  - {{prob: 0.5, cond_entropy: {h!r}, joint_pmf: "
        f"{{alphabet_x: 2, alphabet_y: 2, table: {list(t)}}}}}\n"
        for h, t in zip(declared, _PAIR_TABLES)
    )
    path.write_text("groups:\n- members:\n" + members)
    return path.as_posix()


def test_validate_prints_each_violation(tmp_path):
    """Two entropy mismatches and a marginal mismatch: one line each."""
    code, out, err = run_cli("validate", "--model",
                             _pair_model_file(tmp_path / "three.yaml", (0.5, 0.25)))
    assert code == 1 and err == ""
    assert out == (
        "cdf (1,1): joint_pmf conditional entropy 0.7219280948873621 does not "
        "match declared cond_entropy 0.5\n"
        "cdf (1,2): joint_pmf conditional entropy 0.4455015249879065 does not "
        "match declared cond_entropy 0.25\n"
        "group 1: cdf (1,2) marginals deviate from member 1 by (0.4, 0.25)\n"
    )


@pytest.mark.parametrize("argv, message", [
    (["rate", "--groups", "1,1", "--epsilon", "0.1"], "prior does not sum to 1 (got 0.9)"),
    (["codec", "--n", "4", "--delta", "0.5", "--rates", "2,4", "--trials", "50"],
     "group 1: cdf (1,2) marginals deviate from member 1 by (0.4, 0.25)"),
])
def test_invalid_model_rejected_by_every_command(tmp_path, argv, message):
    """rate and codec compute no statistics and draw no trace, and still
    refuse an invalid model file."""
    if argv[0] == "rate":
        path = tmp_path / "prob.yaml"
        path.write_text("groups:\n- members:\n  - prob: 0.9\n    cond_entropy: 2.0\n")
        path = path.as_posix()
    else:
        path = _pair_model_file(tmp_path / "unshared.yaml")
    code, out, err = run_cli(*argv, "--model", path)
    assert code == 1 and out == ""
    assert "invalid model: " in err and message in err
    assert "Traceback" not in err


def test_sweep_validates_the_model_once(model_file, monkeypatch, capsys):
    """A model is checked when it is built, not again by each run."""
    calls = []
    original = model_mod.validate_model

    def counted(model):
        calls.append(model)
        return original(model)

    monkeypatch.setattr(model_mod, "validate_model", counted)
    assert cli.main(["sweep", "--model", model_file, "--strategies", "we,wd,known-joint",
                     "--eta-grid", "0.25,0.1", "--epsilon", "0.01", "--blocks", "250",
                     "--seeds", "1", "--no-timestamp"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 1 + 3 * 2
    assert len(calls) == 1


def test_missing_model_is_usage_error(capsys):
    assert cli.main(["stats"]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: a model file is required (--model)"]


def test_simulate_we_without_epsilon_is_error(model_file):
    code, _, err = run_cli(
        "simulate", "--model", model_file, "--strategy", "we",
        "--eta", "0.25", "--blocks", "10",
    )
    assert code == 1
    assert "epsilon" in err


def test_rate_and_kc(model_file):
    code, out, _ = run_cli(
        "rate", "--model", model_file, "--epsilon", "0.01", "--blocks", "4"
    )
    assert code == 0 and out.strip() == "22"
    code, out, _ = run_cli(
        "rate", "--model", model_file, "--epsilon", "0.01", "--groups", "2,2"
    )
    assert code == 0 and out.strip() == "8"
    code, out, _ = run_cli(
        "kc", "--model", model_file, "--epsilon", "0.01", "--eta", "0.25"
    )
    assert code == 0
    kc, ktilde, kint = out.strip().splitlines()
    assert kc == "4" and kint == "12"
    assert float(ktilde) == pytest.approx(11.293047120341381, abs=1e-9)


@pytest.mark.parametrize("c", ["0", "-1", "inf", "nan"])
def test_kc_nonpositive_channel_rate_is_usage_error(model_file, c):
    code, out, err = run_cli(
        "kc", "--model", model_file, "--epsilon", "0.01", "--c", c
    )
    assert code == 1 and out == ""
    assert "channel rate must be positive" in err
    assert "Traceback" not in err


def test_bounds_csv(model_file):
    code, out, _ = run_cli(
        "bounds", "--model", model_file, "--epsilon", "0.01",
        "--eta-grid", "0.5,0.25", "--no-timestamp",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "eta,ub_we,ub_wd,lb_we,lb_wd,gamma,argmax_istar"
    first = lines[1].split(",")
    assert float(first[2]) == pytest.approx(2.5764968325773565, abs=1e-9)
    assert first[6] == "2"


def test_bounds_trivial_model_fails(tmp_path):
    path = tmp_path / "trivial.yaml"
    path.write_text("groups:\n- members:\n  - prob: 1.0\n    cond_entropy: 2.0\n")
    code, _, err = run_cli(
        "bounds", "--model", path.as_posix(), "--epsilon", "0.01",
        "--eta-grid", "0.5",
    )
    assert code == 1
    assert "trivial model" in err


def test_bounds_zero_entropy_group_and_zero_mean(tmp_path):
    zero_group = tmp_path / "zero-group.yaml"
    zero_group.write_text(
        "groups:\n- members:\n  - {prob: 0.5, cond_entropy: 1.0}\n"
        "- members:\n  - {prob: 0.25, cond_entropy: 0.0}\n"
        "  - {prob: 0.25, cond_entropy: 0.0}\n"
    )
    code, out, err = run_cli(
        "bounds", "--model", zero_group.as_posix(), "--epsilon", "0.01",
        "--eta-grid", "0.5,0.1", "--no-timestamp",
    )
    assert code == 0 and "Traceback" not in err
    assert len(out.strip().splitlines()) == 3
    zero_mean = tmp_path / "zero-mean.yaml"
    zero_mean.write_text(
        "groups:\n- members:\n  - {prob: 0.5, cond_entropy: 0.0}\n"
        "  - {prob: 0.5, cond_entropy: 0.0}\n"
    )
    code, out, err = run_cli(
        "bounds", "--model", zero_mean.as_posix(), "--epsilon", "0.01",
        "--eta-grid", "0.5",
    )
    assert code == 1 and out == ""
    assert "mean conditional entropy is 0" in err and "Traceback" not in err


_TINY_ETA = "is too small for the bounds: a 1/eta**2 term is not finite"
_TINY_GROUP = ("probability or conditional entropies are too small for the bounds: "
               "a coefficient is not finite")
_TINY_MODEL = ("the model's conditional entropies are too small for the bounds: "
               "a coefficient is not finite")
_LONE = "- members:\n  - {prob: 0.5, cond_entropy: 1.0}\n"


def _pair(prob: float, h1: str, h2: str) -> str:
    return (f"- members:\n  - {{prob: {prob}, cond_entropy: {h1}}}\n"
            f"  - {{prob: {prob}, cond_entropy: {h2}}}\n")


@pytest.mark.parametrize("groups, eta, message", [
    (None, "1e-160", f"eta = 1e-160 {_TINY_ETA}"),  # the demo model
    (None, "1e-155", f"eta = 1e-155 {_TINY_ETA}"),
    (_LONE + _pair(0.25, "1e-200", "2e-200"), "0.5", f"group 2's {_TINY_GROUP}"),
    (_LONE + _pair(0.25, "1e-160", "3e-160"), "0.5", f"group 2's {_TINY_GROUP}"),
    (_LONE + _pair(0.25, "1e-154", "3e-154"), "0.5", f"group 2's {_TINY_GROUP}"),
    (_pair(0.5, "1e-200", "2e-200"), "0.5", _TINY_MODEL),
    ("- members:\n  - {prob: 1.0, cond_entropy: 0.0}\n" + _pair(5.0e-301, "0.5", "1.5"), "1e-5",
     _TINY_MODEL),
], ids=["eta-1e-160", "eta-1e-155", "zero-division", "overflow", "nan", "one-group",
        "tiny-mean"])
def test_bounds_refuse_what_is_not_finite(model_file, tmp_path, capsys, groups, eta, message):
    """A bound that would be inf or nan, or raise a ZeroDivisionError or an
    OverflowError, is one error line and exit 1, with nothing written; each
    tiny-entropy model is valid.  example-fig4 refuses the demo's tiny eta
    the same way, before any simulation."""
    path = model_file
    if groups:
        path = tmp_path / "tiny.yaml"
        path.write_text("groups:\n" + groups)
        assert cli.main(["validate", "--model", str(path)]) == 0
        assert capsys.readouterr() == ("ok\n", "")
    argvs = [["bounds", "--model", str(path), "--epsilon", "0.01", "--eta-grid", eta]]
    if not groups:
        argvs.append(["example-fig4", "--eta-grid", eta, "--blocks", "20"])
    for argv in argvs:
        assert cli.main(argv) == 1, argv
        assert capsys.readouterr() == ("", f"error: {message}\n"), argv


def test_bounds_crossed_rows_exit_2(tmp_path, capsys):
    """Every entry has H = 2.5, so c >= h_max at every eta: the CSV keeps every
    row, each crossed eta gets one error line, and the exit code is 2."""
    path = tmp_path / "flat.yaml"
    path.write_text(
        "groups:\n- members:\n  - {prob: 0.375, cond_entropy: 2.5}\n"
        "  - {prob: 0.125, cond_entropy: 2.5}\n"
        "- members:\n  - {prob: 0.5, cond_entropy: 2.5}\n"
    )
    code = cli.main(["bounds", "--model", path.as_posix(), "--epsilon", "0.01",
                     "--eta-grid", "0.5,0.1", "--no-timestamp"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out.splitlines() == [
        "eta,ub_we,ub_wd,lb_we,lb_wd,gamma,argmax_istar",
        "0.5,0.5,1.5,0.333333333333,0.5,0,1",
        "0.1,0.5,1.5,0.533333333333,0.7,0,1",
    ]
    assert err == ("error: bound bracketing violated at eta=0.1: ub_we=0.5 "
                   "lb_we=0.533333333333 ub_wd=1.5 lb_wd=0.7\n")
    assert "Traceback" not in err


def test_kc_cutoff_is_model_error(tmp_path, capsys):
    """The coarse grid rounds 1.0004 and 1.0016 up to 1.001 and 1.002, whose
    mean 1.0015 exceeds c = 1.0013 at eta = 0.0003: the search stops at its
    cutoff with exit 1 and a message naming the cutoff and the round-up."""
    path = tmp_path / "coarse.yaml"
    path.write_text("groups:\n- members:\n  - {prob: 0.5, cond_entropy: 1.0004}\n"
                    "  - {prob: 0.5, cond_entropy: 1.0016}\n")
    code = cli.main(["kc", "--model", path.as_posix(), "--epsilon", "0.01",
                     "--eta", "0.0003"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == ("error: batch-size search passed its cutoff of 430 blocks: the rate "
                   "grid rounds each entropy up to a multiple of 0.001 bit, to a mean of "
                   "1.0015 against the channel rate 1.0013\n")
    assert "Traceback" not in err


def test_kc_searches_past_the_cutoff_when_the_grid_mean_is_below_c(tmp_path, capsys):
    """The model of the test above at c = 1.00158, above the grid's mean
    1.0015: K_c is 200 blocks, past 10x the Chernoff size of the true
    entropies (140 blocks), and the command prints it with the surrogate."""
    path = tmp_path / "coarse.yaml"
    path.write_text("groups:\n- members:\n  - {prob: 0.5, cond_entropy: 1.0004}\n"
                    "  - {prob: 0.5, cond_entropy: 1.0016}\n")
    code = cli.main(["kc", "--model", path.as_posix(), "--epsilon", "0.01", "--c", "1.00158"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert out == "200\n13.0324673515\n14\n"


@pytest.mark.parametrize("argv, flag", [
    (["rate", "--epsilon", "0.01", "--blocks", "4", "--out", "x.csv"], "--out x.csv"),
    (["kc", "--epsilon", "0.01", "--eta", "0.25", "--no-timestamp"], "--no-timestamp"),
    (["validate", "--out", "x.csv"], "--out x.csv"),
    (["codec", "--bsc", "0.1", "--n", "4", "--delta", "0.5", "--rates", "2",
      "--trials", "5", "--alphabet-x", "2"], "--alphabet-x 2"),
    (["codec", "--bsc", "0.1", "--n", "4", "--delta", "0.5", "--rates", "2",
      "--trials", "5", "--alphabet-y", "2"], "--alphabet-y 2"),
])
def test_removed_flags_are_refused(model_file, tmp_path, monkeypatch, capsys, argv, flag):
    monkeypatch.chdir(tmp_path)
    if argv[0] != "codec":
        argv = [*argv, "--model", model_file]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and f"error: unrecognized arguments: {flag}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x.csv").exists()


def test_codec_k_beside_groups_must_match(capsys):
    base = ["codec", "--bsc", "0.1", "--n", "3", "--delta", "0.5", "--rates", "2",
            "--trials", "5", "--no-timestamp"]
    assert cli.main([*base, "--groups", "1,1", "--k", "1"]) == 1
    assert capsys.readouterr().err == "error: --k 1 does not match the 2 groups of --groups\n"
    outs = []
    for extra in (["--groups", "1,1"], ["--groups", "1,1", "--k", "2"], ["--k", "2"]):
        assert cli.main([*base, *extra]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2]


def test_simulate_with_trace(model_file, tmp_path):
    out_csv = tmp_path / "run.csv"
    trace_csv = tmp_path / "trace.csv"
    code, _, _ = run_cli(
        "simulate", "--model", model_file, "--strategy", "wd",
        "--epsilon", "0.01", "--eta", "0.25", "--blocks", "500", "--seed", "3",
        "--out", out_csv.as_posix(), "--trace-out", trace_csv.as_posix(),
        "--no-timestamp",
    )
    assert code == 0
    rows = out_csv.read_text().strip().splitlines()
    assert rows[0].startswith("strategy,eta,epsilon,seed,T,mean_delay")
    fields = rows[1].split(",")
    assert fields[0] == "wd" and fields[3] == "3" and fields[4] == "500"
    trace_rows = trace_csv.read_text().strip().splitlines()
    assert trace_rows[0] == "t,w_e,w_c,w_d"
    blocks = [int(r.split(",")[0]) for r in trace_rows[1:]]
    assert 0 < len(blocks) <= 500
    assert blocks == sorted(blocks)
    # mean of the per-block totals reproduces the summary's mean_delay
    totals = [sum(map(float, r.split(",")[1:])) for r in trace_rows[1:]]
    assert float(fields[5]) == pytest.approx(np.mean(totals), abs=1e-9)


def test_simulate_no_marginals_exact_cycle(model_file):
    """Blind decoding on the bundled model is the deterministic K_c cycle."""
    code, out, _ = run_cli(
        "simulate", "--model", model_file, "--strategy", "wd",
        "--epsilon", "0.01", "--eta", "0.25", "--blocks", "4000", "--seed", "5",
        "--no-marginals", "--no-timestamp",
    )
    assert code == 0
    mean_delay = float(out.strip().splitlines()[1].split(",")[5])
    assert mean_delay == pytest.approx(3.5, abs=1e-9)  # K_c/2 + 3/2 at K_c = 4


def test_simulate_no_marginals_on_pmf_model(tmp_path):
    """Blind runs on a saved multi-group model with joint pmfs (as ingest
    writes them) print the same rows as on the model without its pmfs."""
    paths = []
    for with_pmfs in (True, False):
        paths.append(tmp_path / f"model-{with_pmfs}.yaml")
        save_model(two_group_pmf_model(with_pmfs), paths[-1])
    for strategy in ("we", "wd"):
        outs = []
        for path in paths:
            code, out, err = run_cli(
                "simulate", "--model", path.as_posix(), "--strategy", strategy,
                "--epsilon", "0.05", "--eta", "0.3", "--blocks", "300", "--seed", "3",
                "--no-marginals", "--no-timestamp",
            )
            assert code == 0, err
            outs.append(out)
        assert outs[0] == outs[1]


@pytest.mark.filterwarnings("ignore:channel rate .* delay may diverge")
@pytest.mark.parametrize("make_model", [demo_model, two_group_pmf_model,
                                        lambda: bsc_pair_model(0.1)],
                         ids=["demo", "two-group-pmf", "bsc"])
def test_no_marginals_is_the_collapsed_model_file(make_model, tmp_path, capsys):
    """--no-marginals prints the bytes of the same command, without the flag,
    on the saved collapse of the model: simulate for each strategy (with its
    per-block trace) and one sweep over every strategy."""
    model = make_model()
    given, flat = tmp_path / "given.yaml", tmp_path / "flat.yaml"
    save_model(model, given)
    save_model(model.collapse_marginals(), flat)
    commands = [["simulate", "--strategy", s, "--eta", "0.15", "--blocks", "300",
                 "--seed", "4", "--batch-size", "4"] for s in STRATEGIES]
    commands.append(["sweep", "--strategies", ",".join(STRATEGIES), "--seeds", "1,2",
                     "--eta-grid", "0.5,0.2,0.08", "--blocks", "300", "--batch-size", "4"])
    for argv in commands:
        outputs = []
        for path, flag in ((given, ["--no-marginals"]), (flat, [])):
            trace = tmp_path / f"trace-{path.stem}.csv"
            traced = ["--trace-out", trace.as_posix()] if argv[0] == "simulate" else []
            code = cli.main([*argv, *traced, "--model", path.as_posix(), "--epsilon", "0.01",
                             "--no-timestamp", *flag])
            out, err = capsys.readouterr()
            assert code == 0, err
            outputs.append((out, trace.read_bytes() if traced else None))
        assert outputs[0] == outputs[1], argv[:3]


def test_simulate_seconds_flag(tmp_path):
    model = demo_model()
    model = type(model)(model.entries, block_len_n=180, slot_seconds=1 / 60)
    path = tmp_path / "timed.yaml"
    save_model(model, path)
    args = [
        "simulate", "--model", str(path), "--strategy", "wd", "--no-marginals",
        "--epsilon", "0.01", "--eta", "0.25", "--blocks", "2000", "--seed", "5",
        "--no-timestamp",
    ]
    _, blocks_out, _ = run_cli(*args)
    code, secs_out, _ = run_cli(*args, "--seconds")
    assert code == 0
    in_blocks = float(blocks_out.strip().splitlines()[1].split(",")[5])
    in_secs = float(secs_out.strip().splitlines()[1].split(",")[5])
    assert in_secs == pytest.approx(in_blocks * 180 / 60, rel=1e-9)  # 3 s blocks


def test_sweep_row_count_and_order(model_file):
    """Rows come strategy-major in the order asked, although every strategy
    of one (eta, seed) comes from one shared task."""
    for names in (["we", "wd"], ["wd", "known-joint", "we"]):
        code, out, _ = run_cli(
            "sweep", "--model", model_file, "--strategies", ",".join(names),
            "--eta-grid", "0.5,0.25", "--epsilon", "0.01", "--blocks", "300",
            "--seeds", "1,2,3", "--no-timestamp",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1 + len(names) * 2 * 3
        rows = [tuple(line.split(",")[i] for i in (0, 1, 3)) for line in lines[1:]]
        assert rows == [(s, eta, seed) for s in names
                        for eta in ("0.5", "0.25") for seed in ("1", "2", "3")]


def test_sweep_workers_match_sequential():
    model = demo_model()
    for strategies, workers in ((("we", "wd"), 3), (("wd", "known-joint", "we"), 2)):
        run = dict(eta_grid=(0.5, 0.25), seeds=(1, 2), epsilon=0.01, T=400)
        seq = run_sweep(model, strategies, workers=1, **run)
        par = run_sweep(model, strategies, workers=workers, **run)
        assert seq == par
        assert [r.strategy for r in seq] == [s for s in strategies for _ in range(4)]


def test_sweep_pool_has_no_more_workers_than_tasks(monkeypatch):
    """A pool starts all its workers at once, so it is capped at the task count."""
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    run = dict(eta_grid=(0.5,), seeds=(1, 2), epsilon=0.01, T=200)
    par = run_sweep(demo_model(), ("we", "wd"), workers=64, **run)
    assert started == [2]
    assert par == run_sweep(demo_model(), ("we", "wd"), workers=1, **run)


BLOCKS_BEYOND_MEMORY = str(10**17)  # 10**17 float64 are 711 PiB: numpy refuses at once


@pytest.mark.parametrize("argv", [
    ["simulate", "--strategy", "we", "--eta", "0.5", "--epsilon", "0.01",
     "--blocks", BLOCKS_BEYOND_MEMORY],
    ["sweep", "--strategies", "we", "--eta-grid", "0.5", "--seeds", "1",
     "--epsilon", "0.01", "--blocks", BLOCKS_BEYOND_MEMORY],
    ["example-fig4", "--blocks", BLOCKS_BEYOND_MEMORY],
    ["codec", "--bsc", "0.1", "--n", "4", "--delta", "0.5", "--rates", "2",
     "--trials", BLOCKS_BEYOND_MEMORY],
])
def test_count_beyond_memory_is_one_error_line(model_file, tmp_path, capsys, argv):
    if argv[0] in ("simulate", "sweep"):
        argv = [*argv, "--model", model_file]
    assert cli.main([*argv, "--out", str(tmp_path / "out.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


def test_sweep_segments_each_eta_and_seed_once(model_file, monkeypatch, capsys):
    """Every strategy of one (eta, seed) runs on one trace, and we and wd share
    one segmentation; known-joint needs none."""
    calls = []

    def counting(name):
        original = getattr(strategies_mod, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return counted

    for name in ("sample_trace", "_segment"):
        monkeypatch.setattr(strategies_mod, name, counting(name))
    for strategies, etas, seeds in (
        ("we,wd", "0.5,0.25", "1,2"),
        ("we,wd,known-joint", "0.25,0.1", "1"),  # the benchmark's ingest sweep shape
    ):
        calls.clear()
        assert cli.main(["sweep", "--model", model_file, "--strategies", strategies,
                         "--eta-grid", etas, "--epsilon", "0.01", "--blocks", "300",
                         "--seeds", seeds, "--no-timestamp"]) == 0
        runs = len(etas.split(",")) * len(seeds.split(","))
        rows = len(strategies.split(",")) * runs
        assert len(capsys.readouterr().out.strip().splitlines()) == 1 + rows
        assert sorted(calls) == ["_segment"] * runs + ["sample_trace"] * runs


def test_determinism_byte_identical(model_file):
    args = (
        "sweep", "--model", model_file, "--strategies", "wd",
        "--eta-grid", "0.25", "--epsilon", "0.01", "--blocks", "400",
        "--seeds", "7", "--no-timestamp",
    )
    _, out1, _ = run_cli(*args)
    _, out2, _ = run_cli(*args)
    assert out1 == out2


def test_example_fig4_smoke():
    code, out, err = run_cli(
        "example-fig4", "--blocks", "2000", "--seeds", "1,2",
        "--eta-grid", "0.5,0.25", "--no-timestamp",
    )
    assert code == 0
    assert "e_h=4.17" in err
    lines = out.strip().splitlines()
    assert lines[0].startswith("eta,strategy,sim_mean_delay")
    assert all(line.endswith("pass") for line in lines[1:])


def test_example_fig4_exits_2_on_a_failed_bracket(monkeypatch, capsys):
    """A row whose simulated delay lies outside its bounds by more than 3
    standard errors is written as "fail", shown as FAIL, and makes the exit
    code 2; the other rows still pass."""
    report = cli.bounds_mod.bounds_report

    def narrow(stats, eta_grid, epsilon):  # wd's upper bound at eta = 0.25 cut tenfold
        return tuple(dataclasses.replace(r, ub_wd=r.ub_wd / 10) if r.eta == 0.25 else r
                     for r in report(stats, eta_grid, epsilon))

    monkeypatch.setattr(cli.bounds_mod, "bounds_report", narrow)
    argv = ["example-fig4", "--blocks", "300", "--seeds", "1,2", "--eta-grid", "0.5,0.25",
            "--no-timestamp"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    brackets = [(line.split(",")[:2], line.split(",")[-1]) for line in out.splitlines()[1:]]
    assert brackets == [(["0.5", "we"], "pass"), (["0.25", "we"], "pass"),
                        (["0.5", "wd"], "pass"), (["0.25", "wd"], "fail")]
    assert err.count("-> FAIL") == 1 and "eta=0.25 wd: " in err.splitlines()[-1]


def test_example_fig4_refuses_one_seed(monkeypatch, capsys):
    """One seed has no standard error, so its bracket would have no slack:
    the command exits 1 naming --seeds before it builds the model."""
    def never(*args, **kwargs):
        raise AssertionError("the model was built before the seeds were checked")

    monkeypatch.setattr(cli, "demo_model", never)
    argv = ["example-fig4", "--seeds", "1", "--eta-grid", "0.25", "--blocks", "2000",
            "--no-timestamp"]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: --seeds: ") and err.count("\n") == 1


def test_example_fig4_refuses_a_run_that_decoded_nothing(tmp_path, capsys):
    """Five blocks at eta = 0.05 decode none, so there is no mean delay to
    bracket: the command exits 1 naming --blocks, the strategy, eta and the
    seed, before the model line and the CSV, instead of reporting a FAIL."""
    path = tmp_path / "fig4.csv"
    argv = ["example-fig4", "--blocks", "5", "--eta-grid", "0.05", "--seeds", "1,2",
            "--out", path.as_posix()]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --blocks 5: the we run at eta=0.05 seed=1 decoded no block\n"
    assert not path.exists()


def test_codec_cli_csv():
    code, out, _ = run_cli(
        "codec", "--bsc", "0.1", "--n", "8", "--delta", "0.5",
        "--rates", "2,8", "--trials", "100", "--seed", "1", "--no-timestamp",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "rate_bits,err_rate,eps1,eps2,eps3"
    low = float(lines[1].split(",")[1])
    high = float(lines[2].split(",")[1])
    assert low >= high


# the benchmark's two codec commands: kind, n, k, rates and the sequence count
_BENCH_CODEC = [("batch", "12", "1", "6,9,12", 2 ** 12),
                ("sequential", "7", "2", "8,11,14", 2 ** 14)]


def _counting(calls, key, fn):
    def counted(*args, **kwargs):
        calls.append((key, args, kwargs))
        return fn(*args, **kwargs)
    return counted


@pytest.mark.parametrize("kind, n, k, rates, total", _BENCH_CODEC)
def test_codec_command_builds_its_rate_free_work_once(tmp_path, monkeypatch,
                                                     kind, n, k, rates, total):
    """A codec command builds the sequence table, runs the X-typicality of the
    whole table (once per stage) and draws the trials once for all its rates,
    and calls ``codec.run_codec_trials`` once per rate with ``trials`` by
    keyword, the boundary the benchmark's tracer wraps."""
    path = tmp_path / "codec.yaml"
    save_model(uniform_marginal_pair_model(), path)
    argv = ["codec", "--model", path.as_posix(), "--kind", kind, "--n", n, "--k", k,
            "--rates", rates, "--delta", "0.5", "--trials", "20", "--seed", "11",
            "--out", (tmp_path / "out.csv").as_posix(), "--no-timestamp"]
    assert cli.main(argv) == 0
    expected = (tmp_path / "out.csv").read_bytes()
    codec = cli.codec_mod
    calls = []
    monkeypatch.setattr(codec, "_sequence_table",
                        _counting(calls, "table", codec._sequence_table))
    monkeypatch.setattr(codec, "_typical", _counting(calls, "typical", codec._typical))
    monkeypatch.setattr(codec.Codebook, "_sample",
                        _counting(calls, "draw", codec.Codebook._sample))
    monkeypatch.setattr(codec, "run_codec_trials",
                        _counting(calls, "trials", codec.run_codec_trials))
    assert cli.main(argv) == 0
    assert (tmp_path / "out.csv").read_bytes() == expected
    count = {key: sum(c[0] == key for c in calls) for key in ("table", "draw", "trials")}
    assert count == {"table": 1, "draw": 1, "trials": 3}
    stages = int(k) if kind == "sequential" else 1
    assert sum(c[0] == "typical" and c[1][0].shape[0] == total for c in calls) == stages
    assert all(c[2].keys() == {"trials", "seed"} and c[2]["trials"] == 20
               for c in calls if c[0] == "trials")


def test_codec_command_keeps_no_sequence_table(tmp_path, monkeypatch):
    """The tables die with the command's codebooks, the sequence table and
    the symbol masks of every sequence alike: no cache outlives it."""
    refs = []
    for name in ("_sequence_table", "_symbol_masks"):
        def kept(*args, made=getattr(cli.codec_mod, name), name=name):
            out = made(*args)
            refs.append((name, out.shape, weakref.ref(out)))
            return out

        monkeypatch.setattr(cli.codec_mod, name, kept)
    assert cli.main(["codec", "--bsc", "0.1", "--n", "8", "--delta", "0.5",
                     "--rates", "2,8", "--trials", "50", "--out",
                     (tmp_path / "out.csv").as_posix()]) == 0
    tables = [(name, shape) for name, shape, _ in refs if 2 ** 8 in shape]
    assert tables == [("_sequence_table", (2 ** 8, 8)), ("_symbol_masks", (1, 2, 2 ** 8))]
    assert all(ref() is None for _, _, ref in refs)


@pytest.mark.parametrize("flag", ["--joint-levels", "--marginal-levels"])
def test_ingest_refuses_a_level_count_above_2_31(tmp_path, capsys, flag):
    """A count whose int64 cell keys could wrap exits 1 with one error line."""
    trace = synth_trace([PMF_A, PMF_B], [0.5, 0.5], n=20, blocks=40, seed=5)
    trace_path = tmp_path / "trace.csv"
    np.savetxt(trace_path, trace, fmt="%d", delimiter=",")
    model_out = tmp_path / "learned.yaml"
    assert cli.main(["ingest", "--input", trace_path.as_posix(), "--n", "20",
                     flag, "2147483649", "--out", model_out.as_posix()]) == 1
    out, err = capsys.readouterr()
    name = flag[2:].replace("-", "_")
    assert out == "" and err == (f"error: {name} must be between 1 and 2147483648, "
                                 "got 2147483649\n")
    assert not model_out.exists()


def test_ingest_cli_roundtrip(tmp_path):
    trace = synth_trace([PMF_A, PMF_B], [0.5, 0.5], n=200, blocks=60, seed=5)
    trace_path = tmp_path / "trace.csv"
    np.savetxt(trace_path, trace, fmt="%d", delimiter=",")
    model_out = tmp_path / "learned.yaml"
    assign_out = tmp_path / "assign.csv"
    code, _, err = run_cli(
        "ingest", "--input", trace_path.as_posix(), "--n", "200",
        "--joint-levels", "2", "--marginal-levels", "1",
        "--out", model_out.as_posix(), "--assign-out", assign_out.as_posix(),
        "--no-timestamp",
    )
    assert code == 0, err
    assert "model written" in err
    code, out, _ = run_cli("validate", "--model", model_out.as_posix())
    assert code == 0, out
    rows = assign_out.read_text().strip().splitlines()
    assert rows[0] == "t,i,j,d_to_ref"
    assert len(rows) == 61


def test_ingest_one_row_trace(tmp_path, capsys):
    """A trace file of a single pair is one block, not a malformed trace."""
    trace_path = tmp_path / "trace.csv"
    trace_path.write_text("0,1\n")
    model_out = tmp_path / "learned.yaml"
    with pytest.warns(RuntimeWarning, match="joint levels"):
        code = cli.main([
            "ingest", "--input", trace_path.as_posix(), "--n", "1",
            "--out", model_out.as_posix(), "--assign-out", "-", "--no-timestamp",
        ])
    out, err = capsys.readouterr()
    assert code == 0, err
    assert out == "t,i,j,d_to_ref\n1,1,1,0\n"
    model = model_mod.load_model(model_out)
    assert len(model.entries) == 1
    assert np.array_equal(model.entries[0].joint_pmf, [[0.0, 1.0]])


def test_warning_is_one_line(model_file, tmp_path, monkeypatch, capsys):
    """A RuntimeWarning reaches stderr as one `warning: <message>` line, with
    no source path and no code line.  showwarning writes to stderr as Python's
    default does, since pytest records warnings instead of printing them."""
    def show(message, category, filename, lineno, file=None, line=None):
        sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))

    monkeypatch.setattr(warnings, "showwarning", show)
    trace_path = tmp_path / "trace.csv"
    trace_path.write_text("0,1\n")
    ingest = ["ingest", "--input", trace_path.as_posix(), "--n", "1",
              "--out", (tmp_path / "m.yaml").as_posix()]
    simulate = ["simulate", "--model", model_file, "--strategy", "we", "--epsilon", "0.01",
                "--c", "3", "--blocks", "50", "--out", (tmp_path / "o.csv").as_posix()]
    overload = ("warning: channel rate 3.0 does not exceed the mean conditional "
                "entropy 4.17; delay may diverge")
    for argv, line in (
        (ingest, "warning: only 1 of 128 joint levels are occupied; empty levels dropped"),
        (simulate, overload),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            assert cli.main(argv) == 0
        err = capsys.readouterr().err
        assert [x for x in err.splitlines() if x.startswith("warning")] == [line]
        assert err.startswith(line + "\n")
        assert "cli.py" not in err and "Traceback" not in err
    assert warnings.formatwarning is not cli._warning_line  # restored after main
    assert run_cli(*simulate)[::2] == (0, overload + "\n")  # a real process's stderr


def test_warning_raised_as_error_is_one_error_line(model_file, tmp_path, capsys):
    """Under warnings-as-errors a warning ends the command with exit 1 and one
    `error: <message>` line: simulate's overload warning, ingest's joint
    levels warning, and the overload warning in a process run with -W error."""
    trace_path = tmp_path / "trace.csv"
    trace_path.write_text("0,1\n")
    simulate = ["simulate", "--model", model_file, "--strategy", "we", "--epsilon", "0.01",
                "--c", "3", "--blocks", "50", "--out", (tmp_path / "o.csv").as_posix()]
    ingest = ["ingest", "--input", trace_path.as_posix(), "--n", "1",
              "--out", (tmp_path / "m.yaml").as_posix()]
    overload = ("error: channel rate 3.0 does not exceed the mean conditional "
                "entropy 4.17; delay may diverge\n")
    for argv, err in (
        (simulate, overload),
        (ingest, "error: only 1 of 128 joint levels are occupied; empty levels dropped\n"),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == 1
        assert capsys.readouterr() == ("", err)
    assert run_cli(*simulate, options=("-W", "error::RuntimeWarning")) == (1, "", overload)


def test_ingest_reports_the_first_bad_trace_line(tmp_path, capsys):
    trace_path = tmp_path / "trace.csv"
    trace_path.write_text("x,y\n0,1\n0, 1\n")
    code = cli.main(["ingest", "--input", trace_path.as_posix(), "--n", "1",
                     "--skip-header", "1", "--out", (tmp_path / "m.yaml").as_posix()])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: cannot read trace: line 3: expected x,y with 1 to 18 decimal digits "
        "each, got '0, 1'\n")


def test_ingest_slot_seconds_then_sweep_seconds(tmp_path, capsys):
    """A slot of 2.5 ms per symbol and 200 symbols per block: one block is
    0.5 s, so a sweep with --seconds reports every delay at half its value
    in blocks."""
    trace = synth_trace([PMF_A, PMF_B], [0.5, 0.5], n=200, blocks=60, seed=5)
    trace_path = tmp_path / "trace.csv"
    np.savetxt(trace_path, trace, fmt="%d", delimiter=",")
    model_out = tmp_path / "learned.yaml"
    assert cli.main([
        "ingest", "--input", trace_path.as_posix(), "--n", "200",
        "--joint-levels", "2", "--marginal-levels", "1", "--slot-seconds", "0.0025",
        "--out", model_out.as_posix(),
    ]) == 0
    model = model_mod.load_model(model_out)
    assert (model.block_len_n, model.slot_seconds) == (200, 0.0025)
    sweep = ["sweep", "--model", model_out.as_posix(), "--strategies", "we,wd,known-joint",
             "--eta-grid", "0.25,0.1", "--epsilon", "0.01", "--blocks", "400",
             "--seeds", "3", "--no-timestamp"]
    capsys.readouterr()
    assert cli.main(sweep) == 0
    in_blocks = capsys.readouterr().out.strip().splitlines()
    assert cli.main([*sweep, "--seconds"]) == 0
    in_secs = capsys.readouterr().out.strip().splitlines()
    assert in_secs[0] == in_blocks[0] and len(in_secs) == 7
    delay = SWEEP_COLUMNS.index("mean_delay")
    for b, s in zip(in_blocks[1:], in_secs[1:]):
        b, s = b.split(","), s.split(",")
        assert float(s[delay]) == pytest.approx(float(b[delay]) * 0.5, rel=1e-9)
        assert s[delay + 4:] == b[delay + 4:]   # outage, rate and batches unchanged


def test_malformed_yaml_is_usage_error(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("groups: [\n  - {members: [\n")
    code, _, err = run_cli("stats", "--model", bad.as_posix())
    assert code == 1
    assert "malformed YAML" in err and "Traceback" not in err


@pytest.mark.parametrize("text, key, line", [
    ("groups:\n- members:\n  - prob: 1.0\n    cond_entropy: 1.0\n"
     "groups:\n- members:\n  - prob: 0.5\n    cond_entropy: 2.0\n"
     "  - prob: 0.5\n    cond_entropy: 3.0\n", "groups", 5),
    ("groups:\n- members:\n  - prob: 1.0\n    prob: 0.5\n    cond_entropy: 1.0\n"
     "  - prob: 0.5\n    cond_entropy: 1.0\n", "prob", 4),
])
def test_repeated_key_is_malformed_yaml(tmp_path, capsys, text, key, line):
    """A key given twice in one mapping is refused, naming it and its line,
    not read as its last value."""
    path = tmp_path / "dup.yaml"
    path.write_text(text)
    code = cli.main(["stats", "--model", path.as_posix()])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert [x for x in err.splitlines() if x.startswith("error:")] == [
        f"error: cannot load model: malformed YAML: found duplicate key '{key}'"]
    assert f'in "{path.as_posix()}", line {line},' in err and "Traceback" not in err


def test_unwritable_out_is_usage_error(model_file, tmp_path):
    missing = tmp_path / "missing" / "x.csv"
    code, _, err = run_cli(
        "sweep", "--model", model_file, "--strategies", "wd", "--eta-grid", "0.5",
        "--epsilon", "0.01", "--blocks", "20", "--seeds", "1",
        "--out", missing.as_posix(),
    )
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err


def test_unwritable_trace_out_is_usage_error(model_file, tmp_path):
    missing = tmp_path / "missing" / "t.csv"
    code, _, err = run_cli(
        "simulate", "--model", model_file, "--strategy", "wd", "--epsilon", "0.01",
        "--eta", "0.5", "--blocks", "20", "--trace-out", missing.as_posix(),
    )
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--strategies", "wd", "--eta-grid", "0.5", "--epsilon", "0.01",
      "--blocks", "20", "--seeds", "1", "--workers", "-3"], "--workers: must be >= 1"),
    (["example-fig4", "--blocks", "20", "--workers", "0"], "--workers: must be >= 1"),
    (["codec", "--bsc", "0.1", "--n", "4", "--delta", "0.5", "--rates", "2",
      "--trials", "0"], "--trials: must be >= 1"),
    (["stats", "--seed", "3"], "unrecognized arguments: --seed"),
    (["simulate", "--strategy", "wd", "--epsilon", "0.01", "--eta", "0.5",
      "--blocks", "20", "--workers", "2"], "unrecognized arguments: --workers"),
    (["ingest", "--input", "x.csv", "--n", "4", "--workers", "2"],
     "unrecognized arguments: --workers"),
    (["simulate", "--strategy", "accumulate", "--epsilon", "0.01", "--eta", "0.5",
      "--blocks", "20", "--batch-size", "0"], "--batch-size: must be >= 1"),
    (["ingest", "--input", "x.csv", "--n", "0"], "--n: must be >= 1"),
    (["ingest", "--input", "x.csv", "--n", "4", "--joint-levels", "0"],
     "--joint-levels: must be >= 1"),
    (["ingest", "--input", "x.csv", "--n", "4", "--marginal-levels", "0"],
     "--marginal-levels: must be >= 1"),
    (["ingest", "--input", "x.csv", "--n", "4", "--slot-seconds", "0"],
     "--slot-seconds: must be a positive number"),
    (["ingest", "--input", "x.csv", "--n", "4", "--slot-seconds", "-0.5"],
     "--slot-seconds: must be a positive number"),
    (["ingest", "--input", "x.csv", "--n", "4", "--slot-seconds", "nan"],
     "--slot-seconds: must be a positive number"),
    (["ingest", "--input", "x.csv", "--n", "4", "--slot-seconds", "1/60"],
     "--slot-seconds: invalid float value"),
    (["simulate", "--strategy", "wd", "--epsilon", "0.01", "--eta", "0.5",
      "--blocks", "20", "--seed", "-5"], "--seed: must be >= 0, got -5"),
    (["ingest", "--input", "x.csv", "--n", "4", "--random-representative", "-1"],
     "--random-representative: must be >= 0, got -1"),
    (["sweep", "--strategies", "wd", "--eta-grid", "0.5", "--epsilon", "0.01",
      "--blocks", "20", "--seeds", "1,-1", "--workers", "2"], "--seeds: must be >= 0, got -1"),
    (["example-fig4", "--blocks", "20", "--seeds", "-1"], "--seeds: must be >= 0, got -1"),
    (["ingest", "--input", "x.csv", "--n", "4", "--skip-header", "-1"],
     "--skip-header: must be >= 0, got -1"),
])
def test_argument_scope_and_counts(model_file, monkeypatch, capsys, argv, message):
    """Rejected while parsing: exit 1 with a message and no worker process."""
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
    if argv[0] not in ("example-fig4", "ingest"):
        argv = [*argv, "--model", model_file]
    assert cli.main(argv) == 1
    assert message in capsys.readouterr().err


# sha256 of the output bytes, recorded when the five strategies still ran
# their own per-block loops; a changed simulated number changes a digest
FROZEN_SWEEP = "0336c2214fcf5dc49d1c4f19877bf01da33ca46ccb59e1e6196d183df03c9584"
FROZEN_TRACES = {
    ("we", False): "72413708597c726ccdb649c7879b81cccf80ec4f6366896c7a1f31c22349383a",
    ("wd", False): "beb3d9e6764b373a47fb70bd01314610b773bde97b4ab7aa436ae25fe7d8c756",
    # blind runs (--no-marginals), recorded while the per-block delay rows were
    # still written through per-record objects
    ("we", True): "41264b004a551a799ced885dc8d07922490a2747f6ebaed2addd9d85a4ad26c4",
    ("wd", True): "38a2cde4dfe8dda9bf0ae2a9b159be1c59346b92afefc63aec47df40eaa06132",
    # the encoder-side baselines (accumulate with --batch-size 4), recorded while
    # the per-block rows still came from per-block records built in accounting
    ("known-joint", False): "0e7ceeff159f71cc03788c0471d0cd4a7924e43d3008c98f03c95e08e95e5781",
    ("blockwise", False): "74dd28f6f7701d0dbf90ac8a1708d7b353a6b536744cfcc6359faafea0c75fbc",
    ("accumulate", False): "19736c83b09f8899772b7056efb974191e590fe2233c4566c6ff78facf2ffa89",
}


# sha256 of `codec --no-timestamp` on the benchmark's codec model, recorded
# while every trial still ran through the per-sequence encode/decode calls
FROZEN_CODEC = {
    ("batch", "12", "1", "6,9,12"):
        "f9ab88ca85391a7aa8ebcb63db8e85589787fcb2dfd4e522e06fbcde52ae6c9f",
    ("sequential", "7", "2", "8,11,14"):
        "ba844a1b85feb64f18c4e9f040f8ea9771b7e318f7306d12a32ec27bd0ebaac5",
    # recorded while batch and sequential binning still ran as two code paths
    ("batch", "6", "2", "6,9,12"):
        "468bb2379460a715fae3fcbe8da1989190cf8ce37dbef69eb7c14cd6bb67619a",
    ("sequential", "12", "1", "6,9,12"):
        "8e297defe84cb22487ff934f4d869a024779c1ac35143e65a7d8bd5cc8cfb240",
}


# sha256 of `example-fig4 --no-timestamp`, recorded while every we and wd run
# still segmented its own trace
FROZEN_FIG4 = "98ea9b1326af72f8fb46c06a4e80d855ee25642a728ad4991eaa23956ab2c55e"
# and of its stderr (the model line and one bracket line per row), recorded
# while the rows still scanned every sweep result for their strategy and eta
FROZEN_FIG4_STDERR = "b89f0191fb0741dfbd6e24d339cc279be106a5a42804c6fd74b8cca4a8b9f827"

# sha256 of the FROZEN_SWEEP sweep with --no-marginals, recorded while every
# strategy of one (eta, seed) still ran as its own task: blind we/wd run on the
# collapsed model, the baselines on the model as given
FROZEN_BLIND_SWEEP = "1c9010b57fff90bcce2fabc2445efa78509c5f67dc89a6631efadd3a145076c2"


def test_frozen_outputs(model_file, tmp_path):
    for blind, digest in ((False, FROZEN_SWEEP), (True, FROZEN_BLIND_SWEEP)):
        code, out, err = run_cli(
            "sweep", "--model", model_file, "--strategies", ",".join(STRATEGIES),
            "--eta-grid", "0.5,0.2,0.08", "--epsilon", "0.01", "--blocks", "400",
            "--seeds", "1,2", "--batch-size", "4", "--no-timestamp",
            *(["--no-marginals"] if blind else []),
        )
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest, blind
    for (strategy, blind), digest in FROZEN_TRACES.items():
        trace = tmp_path / f"{strategy}.csv"
        code, out, err = run_cli(
            "simulate", "--model", model_file, "--strategy", strategy,
            "--epsilon", "0.01", "--eta", "0.15", "--blocks", "500", "--seed", "4",
            "--trace-out", trace.as_posix(), "--no-timestamp",
            *(["--no-marginals"] if blind else []),
            *(["--batch-size", "4"] if strategy == "accumulate" else []),
        )
        assert code == 0, err
        data = out.encode() + trace.read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, (strategy, blind)
    codec_model = tmp_path / "codec.yaml"
    save_model(SourceModel(tuple(
        CdfEntry(1, j, 0.5, cond_entropy_x_given_y_bits(p), p)
        for j, p in enumerate((np.array([[0.45, 0.05], [0.05, 0.45]]),
                               np.full((2, 2), 0.25)), start=1)
    )), codec_model)
    for (kind, n, k, rates), digest in FROZEN_CODEC.items():
        code, out, err = run_cli(
            "codec", "--model", codec_model.as_posix(), "--kind", kind, "--n", n,
            "--k", k, "--rates", rates, "--delta", "0.5", "--trials", "200",
            "--seed", "11", "--no-timestamp",
        )
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest, kind
    for workers in ((), ("--workers", "2")):
        code, out, err = run_cli("example-fig4", "--blocks", "2000", "--seeds", "1,2",
                                 "--eta-grid", "0.5,0.25,0.1", "--no-timestamp", *workers)
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == FROZEN_FIG4, workers
        assert hashlib.sha256(err.encode()).hexdigest() == FROZEN_FIG4_STDERR, workers


def _frozen_ingest_trace() -> np.ndarray:
    """100 blocks of 100 4-ary pairs: y is x shifted by +-1 with a per-block
    crossover, so the cells (x, x + 2) are empty in every block, and x is
    uniform or skewed per block, so the marginals fall into several groups.
    Block 1 holds every (x, x), (x, x + 1) and (x, x + 3) pair; block 7 alone
    holds a (0, 2) pair, which block 1 lacks, and is quarantined."""
    rng = np.random.default_rng(1)
    blocks, n = 100, 100
    px = np.array([[0.25] * 4, [0.35, 0.25, 0.25, 0.15]])
    which = rng.integers(0, 2, size=blocks)
    x = np.stack([rng.choice(4, size=n, p=px[w]) for w in which])
    crossover = rng.choice([0.2, 0.4], size=blocks)
    crossover[0] = 0.4
    flip = rng.random((blocks, n)) < crossover[:, None]
    y = np.where(flip, (x + np.where(rng.random((blocks, n)) < 0.5, 1, 3)) % 4, x)
    x[0, :12] = np.repeat(np.arange(4), 3)
    y[0, :12] = (x[0, :12] + np.tile([0, 1, 3], 4)) % 4
    x[6, 0], y[6, 0] = 0, 2
    return np.stack([x.ravel(), y.ravel()], axis=1)


# sha256 of the model YAML and of the --assign-out CSV of `ingest` on
# _frozen_ingest_trace, and its stderr summary, per extra argument list: the
# midpoint digests recorded while blockify still looped over blocks and the
# marginal repair fitted one member at a time, the random-representative ones
# (which pin the order of the representative draws) while quantize_model
# still regrouped blocks through per-block records
FROZEN_INGEST = {
    (): (
        "903b0d1526e055768d9812058daa0834c3a1cb0463daf1d0254096e53cb86b99",
        "39b6ac2eb3edc2ca5acf6a3c77cef7e5cd43eb70fdc6cf97f67f7f4af22d016f",
        "model written to MODEL (marginal repair distortion 0.268757051538, "
        "1 blocks quarantined)",
    ),
    ("--random-representative", "5"): (
        "481ed04da3bceefeef175aad3fa7658a6a9da05948f1ba0db171d6866019efca",
        "39b6ac2eb3edc2ca5acf6a3c77cef7e5cd43eb70fdc6cf97f67f7f4af22d016f",
        "model written to MODEL (marginal repair distortion 0.214940679923, "
        "1 blocks quarantined)",
    ),
}


def test_frozen_ingest_outputs(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    np.savetxt(trace, _frozen_ingest_trace(), fmt="%d", delimiter=",")
    model_out, assign_out = tmp_path / "model.yaml", tmp_path / "assign.csv"
    for extra, (model_digest, assign_digest, summary) in FROZEN_INGEST.items():
        code = cli.main([
            "ingest", "--input", trace.as_posix(), "--n", "100",
            "--joint-levels", "8", "--marginal-levels", "2",
            "--out", model_out.as_posix(), "--assign-out", assign_out.as_posix(),
            "--no-timestamp", *extra,
        ])
        assert code == 0, extra
        err = capsys.readouterr().err.strip().replace(model_out.as_posix(), "MODEL")
        assert err == summary, extra
        assert hashlib.sha256(model_out.read_bytes()).hexdigest() == model_digest, extra
        assert hashlib.sha256(assign_out.read_bytes()).hexdigest() == assign_digest, extra


_SIM = ["simulate", "--strategy", "wd", "--epsilon", "0.01", "--eta", "0.5",
        "--blocks", "20"]
_SWEEP = ["sweep", "--eta-grid", "0.5", "--epsilon", "0.01", "--blocks", "20",
          "--seeds", "1"]
_SEED_RULE = "seed must be in [0, 2**64 - K)"


@pytest.mark.parametrize("argv, message", [
    ([*_SWEEP, "--strategies", "we,wd", "--out", "{missing}"], "cannot write"),
    ([*_SWEEP, "--strategies", "we,wd,accumulate", "--out", "{existing}"],
     "needs a batch size"),
    (["example-fig4", "--blocks", "20", "--seeds", "1", "--out", "{missing}"],
     "cannot write"),
    ([*_SIM, "--out", "{missing}"], "cannot write"),
    ([*_SIM, "--out", "{folder}"], "cannot write"),
    ([*_SIM, "--out", "{existing}/x.csv"], "cannot write"),
    ([*_SIM, "--out", "{existing}", "--trace-out", "{missing}"], "cannot write"),
    ([*_SIM, "--trace-out", "{missing}"], "cannot write"),
    (["ingest", "--input", "{trace}", "--n", "4", "--out", "{missing}"], "cannot write"),
    (["ingest", "--input", "{trace}", "--n", "4", "--out", "{existing}",
      "--assign-out", "{missing}"], "cannot write"),
    (["ingest", "--input", "{trace}", "--n", "4"], "output model path is required"),
    ([*_SWEEP, "--strategies", "known-joint,we", "--epsilon", "1.5"],
     "epsilon must be in (0, 1)"),
    (["codec", "--bsc", "0.1", "--n", "12", "--delta", "0.5", "--rates", "9,-1",
      "--trials", "3000"], "rate_bits must be nonnegative"),
    (["codec", "--bsc", "0.1", "--n", "4", "--delta", "0.5", "--rates", "2,4",
      "--trials", "10", "--out", "{missing}"], "cannot write"),
    (["sweep", "--strategies", "we,wd,accumulate", "--eta-grid", "0.1,0.05",
      "--epsilon", "0.01", "--blocks", "100000", "--seeds", "1", "--batch-size", "0"],
     "--batch-size: must be >= 1"),
    ([*_SWEEP, "--strategies", "we,wd", "--eta-grid", ",", "--out", "{existing}"],
     "empty list"),
    (["codec", "--bsc", "0.1", "--n", "4", "--delta", "0.5", "--rates", ",",
      "--trials", "10", "--out", "{existing}"], "empty list"),
    (["bounds", "--epsilon", "0.01", "--eta-grid", ",", "--out", "{existing}"],
     "empty list"),
    (["example-fig4", "--blocks", "20", "--eta-grid", ",", "--out", "{existing}"],
     "empty list"),
    (["codec", "--bsc", "0.1", "--n", "4", "--delta", "0.5", "--rates", "2",
      "--groups", "", "--trials", "10", "--out", "{existing}"], "empty list"),
    (["rate", "--blocks", "100000", "--epsilon", "1.5"], "epsilon must be in (0, 1)"),
    (["simulate", "--strategy", "known-joint", "--epsilon", "2", "--eta", "0.5",
      "--blocks", "20"], "epsilon must be in (0, 1)"),
    # the codec's seed must be in [0, 2**64 - K); these cases keep that rule as their id
    pytest.param(["codec", "--bsc", "0.1", "--n", "4", "--delta", "0.5", "--rates", "2",
                  "--trials", "5", "--seed", "-1"],
                 "seed must be between 0 and 18446744073709551614, got -1",
                 id=f"argv22-{_SEED_RULE}"),
    pytest.param(["codec", "--bsc", "0.1", "--n", "4", "--delta", "0.5", "--rates", "2",
                  "--trials", "5", "--seed", "18446744073709551616"],
                 "seed must be between 0 and 18446744073709551614, got 18446744073709551616",
                 id=f"argv23-{_SEED_RULE}"),
    pytest.param(["codec", "--bsc", "0.1", "--n", "4", "--delta", "0.5", "--rates", "9",
                  "--trials", "5", "--seed", "-1"],
                 "seed must be between 0 and 18446744073709551614, got -1",
                 id=f"argv24-{_SEED_RULE}"),
    # a NaN or an infinity names the quantity, not the float conversion
    ([*_SIM[:5], "--c", "inf", "--blocks", "20"],
     "channel rate must be positive and finite, got c = inf"),
    (["simulate", "--strategy", "known-joint", "--c", "inf", "--blocks", "20"],
     "channel rate must be positive and finite, got c = inf"),
    ([*_SIM[:5], "--c", "nan", "--blocks", "20"],
     "channel rate must be positive and finite, got c = nan"),
    (["codec", "--bsc", "0.1", "--n", "4", "--delta", "0.5", "--rates", "2,nan",
      "--trials", "5"], "rate_bits must be nonnegative and finite, got nan"),
    (["codec", "--bsc", "0.1", "--n", "4", "--delta", "0.5", "--rates", "inf",
      "--trials", "5"], "rate_bits must be nonnegative and finite, got inf"),
    (["codec", "--bsc", "0.1", "--n", "4", "--delta", "nan", "--rates", "2",
      "--trials", "5"], "delta must be positive and finite, got nan"),
    # every output path is checked in one place, before any subcommand's work
    (["stats", "--out", "{missing}"], "--out: cannot write"),
    (["bounds", "--epsilon", "0.01", "--eta-grid", "0.5", "--out", "{missing}"],
     "--out: cannot write"),
    ([*_SIM, "--out", ""], "--out: cannot write ''"),
    ([*_SIM, "--out", "{folder}/missing/../x.csv"], "--out: cannot write"),
    (["ingest", "--input", "{trace}", "--n", "4", "--out", ""], "--out: cannot write ''"),
    ([*_SIM, "--out", "{existing}", "--trace-out", "{existing}"],
     "--out and --trace-out name one file"),
    (["ingest", "--input", "{trace}", "--n", "4", "--out", "{folder}/m.yaml",
      "--assign-out", "{folder}/./m.yaml"], "--out and --assign-out name one file"),
    # a bad later rate stops the command before the first rate's table or trials
    (["codec", "--bsc", "0.1", "--n", "4", "--delta", "0.5", "--rates", "6,inf",
      "--trials", "5"], "rate_bits must be nonnegative and finite, got inf"),
])
def test_fails_before_computing(model_file, tmp_path, monkeypatch, capsys, argv, message):
    """Bad outputs, missing arguments and empty list flags exit 1 before any
    run, and leave an existing output file as it was."""
    calls = []

    def never(*args, **kwargs):
        calls.append(args)
        raise AssertionError("computation started before the arguments were checked")

    # a run checks its arguments first, then computes the model's statistics
    monkeypatch.setattr(strategies_mod, "compute_stats", never)
    monkeypatch.setattr(strategies_mod, "sample_trace", never)
    monkeypatch.setattr(cli, "quantize_model", never)
    monkeypatch.setattr(cli, "compute_stats", never)
    monkeypatch.setattr(cli.bounds_mod, "bounds_report", never)
    monkeypatch.setattr(cli.codec_mod, "run_codec_trials", never)
    monkeypatch.setattr(cli.codec_mod, "_sequence_table", never)
    monkeypatch.setattr(RateAccumulator, "push_block", never)
    existing = tmp_path / "existing.csv"
    existing.write_text("kept\n")
    trace = tmp_path / "trace.csv"
    np.savetxt(trace, np.zeros((8, 2), dtype=int), fmt="%d", delimiter=",")
    paths = dict(missing=(tmp_path / "missing" / "x.csv").as_posix(),
                 existing=existing.as_posix(), folder=tmp_path.as_posix(),
                 trace=trace.as_posix())
    argv = [a.format(**paths) for a in argv]
    if argv[0] in ("simulate", "sweep", "bounds", "rate", "stats"):
        argv += ["--model", model_file]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert message in err and out == ""
    assert not calls
    assert existing.read_text() == "kept\n"


# per subcommand, a valid argv holding each of its comma-list flags
_LISTS = {
    "bounds": ["--epsilon", "0.01", "--eta-grid", "0.5"],
    "sweep": ["--strategies", "we", "--eta-grid", "0.5", "--epsilon", "0.01",
              "--blocks", "20", "--seeds", "1"],
    "example-fig4": ["--blocks", "20", "--eta-grid", "0.5", "--seeds", "1"],
    "codec": ["--n", "4", "--delta", "0.5", "--rates", "2", "--trials", "5",
              "--groups", "1"],
    "rate": ["--epsilon", "0.01", "--groups", "1"],
}
_LIST_FLAGS = [
    ("bounds", "--eta-grid", "bad float list '1,x'"),
    ("sweep", "--eta-grid", "bad float list '1,x'"),
    ("sweep", "--seeds", "bad int list '1,x'"),
    ("sweep", "--strategies", "unknown strategy '1'"),
    ("example-fig4", "--eta-grid", "bad float list '1,x'"),
    ("example-fig4", "--seeds", "bad int list '1,x'"),
    ("codec", "--rates", "bad float list '1,x'"),
    ("codec", "--groups", "bad int list '1,x'"),
    ("rate", "--groups", "bad int list '1,x'"),
]


def test_list_flags_named_above_are_every_list_flag():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    found = {(command, a.option_strings[0]) for command, p in sub.choices.items()
             for a in p._actions
             if getattr(a.type, "__qualname__", "").startswith("_list_of.")}
    assert found == {(command, flag) for command, flag, _ in _LIST_FLAGS}


@pytest.mark.parametrize("value", [",", "1,x"])
@pytest.mark.parametrize("command, flag, bad_item", _LIST_FLAGS)
def test_list_flags_fail_while_parsing(monkeypatch, capsys, command, flag, bad_item, value):
    """A bad comma list exits 1 with argparse's usage line, before any model
    is read: the model file named here does not exist."""
    def never(*args, **kwargs):
        raise AssertionError("a model was read before the arguments were checked")

    monkeypatch.setattr(cli, "load_model", never)
    monkeypatch.setattr(cli, "demo_model", never)
    argv = [command, *_LISTS[command]]
    argv[argv.index(flag) + 1] = value
    if command != "example-fig4":
        argv += ["--model", "missing.yaml"]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"usage: swdelay {command}")
    assert f"argument {flag}: " + ("empty list ','" if value == "," else bad_item) in err


def test_sweep_spec_rejects_empty_grids():
    kw = dict(strategies=("we",), eta_grid=(0.5,), seeds=(1,))
    for field in ("strategies", "eta_grid", "seeds"):
        with pytest.raises(ValueError, match="at least one"):
            run_sweep(demo_model(), **{**kw, field: ()}, epsilon=0.01, T=10)


def test_sweep_refuses_repeated_strategies_etas_and_seeds(model_file, capsys):
    """A repeated value would run one (strategy, eta, seed) twice and count
    the copies as samples: example-fig4's standard error of two copies is 0."""
    kw = dict(strategies=("we", "wd"), eta_grid=(0.5, 0.25), seeds=(1, 2))
    for field, name, repeat in (("strategies", "strategy", ("wd", "we", "wd")),
                                ("eta_grid", "eta", (0.25, 0.25)), ("seeds", "seed", (1, 2, 1))):
        with pytest.raises(ValueError, match=f"a sweep repeats a {name}: "):
            run_sweep(demo_model(), **{**kw, field: repeat}, epsilon=0.01, T=10)
    for argv in (["example-fig4", "--seeds", "1,1", "--eta-grid", "0.25", "--blocks", "200"],
                 ["sweep", "--model", model_file, "--strategies", "we,we", "--eta-grid",
                  "0.25,0.25", "--seeds", "1,1", "--epsilon", "0.01", "--blocks", "200"]):
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: a sweep repeats a ") and err.count("\n") == 1


def test_zero_mean_entropy_has_one_message(tmp_path, capsys):
    """bounds, kc, simulate and sweep check epsilon, then eta or c, then E[H]:
    on the zero-mean model, for each pair of bad values, each prints the same
    single error line, the first bad value's."""
    path = tmp_path / "zero-mean.yaml"
    path.write_text(
        "groups:\n- members:\n  - {prob: 0.5, cond_entropy: 0.0}\n"
        "  - {prob: 0.5, cond_entropy: 0.0}\n"
    )
    zero_mean = ("the mean conditional entropy is 0: c = E[H]/(1 - eta) is 0 at every eta, "
                 "and eta = 1 - E[H]/c is 1 at every c")
    for epsilon, eta, first in (("0.01", "0.5", zero_mean),
                                ("0.01", "1.5", "eta must be in (0, 1), got 1.5"),
                                ("2", "0.5", "epsilon must be in (0, 1), got 2.0"),
                                ("2", "1.5", "epsilon must be in (0, 1), got 2.0")):
        run = ["--model", path.as_posix(), "--epsilon", epsilon]
        sim = ["simulate", *run, "--strategy", "we", "--blocks", "20"]
        runs = [["bounds", *run, "--eta-grid", eta], ["kc", *run, "--eta", eta],
                [*sim, "--eta", eta], ["sweep", *run, "--strategies", "we", "--eta-grid", eta,
                                       "--blocks", "20", "--seeds", "1"]]
        if eta == "0.5":  # a valid eta: the channel given by c gives the same line
            runs += [["kc", *run, "--c", "5"], [*sim, "--c", "5"]]
        for argv in runs:
            assert cli.main(argv) == 1
            assert capsys.readouterr() == ("", f"error: {first}\n"), argv


def test_sweep_refuses_a_zero_mean_model_before_any_task(monkeypatch):
    """Every eta's E[H] check comes before the pool is built or a task runs."""
    def never(*args, **kwargs):
        raise AssertionError("the sweep started work before checking the model")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", never)
    monkeypatch.setattr(cli, "_sweep_task", never)
    model = SourceModel((CdfEntry(1, 1, 0.5, 0.0), CdfEntry(1, 2, 0.5, 0.0)))
    with pytest.raises(model_mod.ModelError, match="mean conditional entropy is 0"):
        run_sweep(model, ("we", "wd"), (0.5, 0.25), (1, 2), workers=2, epsilon=0.01, T=20)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_zero_mean_entropy_with_eta_is_rejected(tmp_path, capsys, recwarn, strategy):
    """E[H] = 0 makes the channel rate E[H]/(1 - eta) zero: every strategy
    exits 1 with the message bounds gives, before any warning."""
    path = tmp_path / "zero-mean.yaml"
    path.write_text(
        "groups:\n- members:\n  - {prob: 0.5, cond_entropy: 0.0}\n"
        "  - {prob: 0.5, cond_entropy: 0.0}\n"
    )
    code = cli.main(["simulate", "--model", path.as_posix(), "--strategy", strategy,
                     "--epsilon", "0.01", "--eta", "0.5", "--blocks", "20",
                     "--batch-size", "2"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert "mean conditional entropy is 0" in err
    assert not recwarn.list


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_zero_mean_entropy_with_c_is_rejected(tmp_path, capsys, recwarn, strategy):
    """E[H] = 0 makes eta = 1 - E[H]/c equal 1 at every channel rate."""
    path = tmp_path / "zero-mean.yaml"
    path.write_text(
        "groups:\n- members:\n  - {prob: 0.5, cond_entropy: 0.0}\n"
        "  - {prob: 0.5, cond_entropy: 0.0}\n"
    )
    code = cli.main(["simulate", "--model", path.as_posix(), "--strategy", strategy,
                     "--epsilon", "0.01", "--c", "5", "--blocks", "20",
                     "--batch-size", "2"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert "mean conditional entropy is 0" in err
    assert not recwarn.list


@pytest.mark.parametrize("argv", [
    *(["simulate", "--strategy", s, "--batch-size", "2", "--blocks", "20"]
      for s in STRATEGIES),
    ["kc"],
])
def test_channel_rate_whose_eta_rounds_to_1_is_rejected(tmp_path, capsys, argv):
    """With every H = 2.5, 1 - E[H]/c rounds to 1.0 at c = 1e308."""
    path = tmp_path / "flat.yaml"
    path.write_text("groups:\n- members:\n  - {prob: 0.5, cond_entropy: 2.5}\n"
                    "  - {prob: 0.5, cond_entropy: 2.5}\n")
    code = cli.main([*argv, "--model", path.as_posix(), "--epsilon", "0.01",
                     "--c", "1e308"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == ("error: channel rate c = 1e+308 is too large for E[H] = 2.5: "
                   "eta = 1 - E[H]/c rounds to 1\n")


@pytest.mark.parametrize("argv", [
    ["kc", "--eta", "1e-160"],
    ["simulate", "--strategy", "we", "--blocks", "20", "--eta", "1e-160"],
    ["sweep", "--strategies", "we", "--eta-grid", "0.5,1e-160", "--blocks", "20",
     "--seeds", "1"],
])
def test_eta_whose_channel_rate_rounds_to_e_h_is_rejected(tmp_path, capsys, argv):
    """With every H = 2.5, c = E[H]/(1 - eta) rounds to 2.5 at eta = 1e-160:
    one error line naming eta, not a run made at eta = 0."""
    path = tmp_path / "flat.yaml"
    path.write_text("groups:\n- members:\n  - {prob: 0.5, cond_entropy: 2.5}\n"
                    "  - {prob: 0.5, cond_entropy: 2.5}\n")
    code = cli.main([*argv, "--model", path.as_posix(), "--epsilon", "0.01"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == ("error: eta = 1e-160 is too small: c = E[H]/(1 - eta) rounds to "
                   "E[H] = 2.5\n")
