import hashlib
import subprocess
import sys

import numpy as np
import pytest

from swdelay import CdfEntry, SourceModel, cli, demo_model, save_model
from swdelay import model as model_mod
from swdelay.entropy import cond_entropy_x_given_y_bits
from swdelay.cli import SweepSpec, run_sweep
from swdelay.rate import RateAccumulator
from swdelay import strategies as strategies_mod
from swdelay.strategies import STRATEGIES

from conftest import two_group_pmf_model
from test_ingest import PMF_A, PMF_B, synth_trace


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.yaml"
    save_model(demo_model(), path)
    return str(path)


def run_cli(*argv) -> tuple[int, str, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "swdelay", *argv],
        capture_output=True,
        text=True,
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


def test_missing_model_is_usage_error():
    code, _, err = run_cli("stats")
    assert code == 1
    assert "model file is required" in err


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


@pytest.mark.parametrize("c", ["0", "-1"])
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
    """Rows come strategy-major in the order asked, also when the we and wd
    runs of one (eta, seed) come from one shared task."""
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
        spec = SweepSpec(
            strategies=strategies, eta_grid=(0.5, 0.25), epsilon=0.01,
            blocks=400, seeds=(1, 2),
        )
        seq = run_sweep(model, spec, workers=1)
        par = run_sweep(model, spec, workers=workers)
        assert seq == par
        assert [r.strategy for r in seq] == [s for s in strategies for _ in range(4)]


def test_sweep_segments_each_eta_and_seed_once(model_file, monkeypatch, capsys):
    """we and wd of one (eta, seed) share one trace and one segmentation."""
    calls = []

    def counting(name):
        original = getattr(strategies_mod, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return counted

    for name in ("sample_trace", "_segment"):
        monkeypatch.setattr(strategies_mod, name, counting(name))
    assert cli.main(["sweep", "--model", model_file, "--strategies", "we,wd",
                     "--eta-grid", "0.5,0.25", "--epsilon", "0.01", "--blocks", "300",
                     "--seeds", "1,2", "--no-timestamp"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 1 + 2 * 2 * 2
    assert sorted(calls) == ["_segment"] * 4 + ["sample_trace"] * 4


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


def test_malformed_yaml_is_usage_error(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("groups: [\n  - {members: [\n")
    code, _, err = run_cli("stats", "--model", bad.as_posix())
    assert code == 1
    assert "malformed YAML" in err and "Traceback" not in err


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
}


# sha256 of `codec --no-timestamp` on the benchmark's codec model, recorded
# while every trial still ran through the per-sequence encode/decode calls
FROZEN_CODEC = {
    ("batch", "12", "1", "6,9,12"):
        "f9ab88ca85391a7aa8ebcb63db8e85589787fcb2dfd4e522e06fbcde52ae6c9f",
    ("sequential", "7", "2", "8,11,14"):
        "ba844a1b85feb64f18c4e9f040f8ea9771b7e318f7306d12a32ec27bd0ebaac5",
}


# sha256 of `example-fig4 --no-timestamp`, recorded while every we and wd run
# still segmented its own trace
FROZEN_FIG4 = "98ea9b1326af72f8fb46c06a4e80d855ee25642a728ad4991eaa23956ab2c55e"


def test_frozen_outputs(model_file, tmp_path):
    code, out, err = run_cli(
        "sweep", "--model", model_file, "--strategies", ",".join(STRATEGIES),
        "--eta-grid", "0.5,0.2,0.08", "--epsilon", "0.01", "--blocks", "400",
        "--seeds", "1,2", "--batch-size", "4", "--no-timestamp",
    )
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == FROZEN_SWEEP
    for (strategy, blind), digest in FROZEN_TRACES.items():
        trace = tmp_path / f"{strategy}.csv"
        code, out, err = run_cli(
            "simulate", "--model", model_file, "--strategy", strategy,
            "--epsilon", "0.01", "--eta", "0.15", "--blocks", "500", "--seed", "4",
            "--trace-out", trace.as_posix(), "--no-timestamp",
            *(["--no-marginals"] if blind else []),
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
    code, out, err = run_cli("example-fig4", "--blocks", "2000", "--seeds", "1,2",
                             "--eta-grid", "0.5,0.25,0.1", "--no-timestamp")
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == FROZEN_FIG4


_SIM = ["simulate", "--strategy", "wd", "--epsilon", "0.01", "--eta", "0.5",
        "--blocks", "20"]
_SWEEP = ["sweep", "--eta-grid", "0.5", "--epsilon", "0.01", "--blocks", "20",
          "--seeds", "1"]


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
])
def test_fails_before_computing(model_file, tmp_path, monkeypatch, capsys, argv, message):
    """Bad outputs, missing arguments and empty list flags exit 1 before any
    run, and leave an existing output file as it was."""
    calls = []

    def never(*args, **kwargs):
        calls.append(args)
        raise AssertionError("computation started before the arguments were checked")

    monkeypatch.setattr(cli, "run_strategy", never)
    monkeypatch.setattr(cli, "run_adaptive", never)
    monkeypatch.setattr(cli, "quantize_model", never)
    monkeypatch.setattr(cli.codec_mod, "run_codec_trials", never)
    monkeypatch.setattr(RateAccumulator, "push_block", never)
    existing = tmp_path / "existing.csv"
    existing.write_text("kept\n")
    trace = tmp_path / "trace.csv"
    np.savetxt(trace, np.zeros((8, 2), dtype=int), fmt="%d", delimiter=",")
    paths = dict(missing=(tmp_path / "missing" / "x.csv").as_posix(),
                 existing=existing.as_posix(), folder=tmp_path.as_posix(),
                 trace=trace.as_posix())
    argv = [a.format(**paths) for a in argv]
    if argv[0] in ("simulate", "sweep", "bounds", "rate"):
        argv += ["--model", model_file]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert message in err and out == ""
    assert not calls
    assert existing.read_text() == "kept\n"


def test_sweep_spec_rejects_empty_grids():
    kw = dict(strategies=("we",), eta_grid=(0.5,), epsilon=0.01, blocks=10, seeds=(1,))
    for field in ("strategies", "eta_grid", "seeds"):
        with pytest.raises(ValueError, match="at least one"):
            SweepSpec(**{**kw, field: ()})


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
