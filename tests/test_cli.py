import hashlib
import subprocess
import sys

import numpy as np
import pytest

from swdelay import cli, demo_model, save_model
from swdelay.cli import SweepSpec, run_sweep
from swdelay.strategies import STRATEGIES

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
    code, out, _ = run_cli(
        "sweep", "--model", model_file, "--strategies", "we,wd",
        "--eta-grid", "0.5,0.25", "--epsilon", "0.01", "--blocks", "300",
        "--seeds", "1,2,3", "--no-timestamp",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 2 * 2 * 3
    strategies = [line.split(",")[0] for line in lines[1:]]
    assert strategies == ["we"] * 6 + ["wd"] * 6


def test_sweep_workers_match_sequential():
    model = demo_model()
    spec = SweepSpec(
        strategies=("we", "wd"), eta_grid=(0.5, 0.25), epsilon=0.01,
        blocks=400, seeds=(1, 2),
    )
    seq = run_sweep(model, spec, workers=1)
    par = run_sweep(model, spec, workers=3)
    assert seq == par


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
    "we": "72413708597c726ccdb649c7879b81cccf80ec4f6366896c7a1f31c22349383a",
    "wd": "beb3d9e6764b373a47fb70bd01314610b773bde97b4ab7aa436ae25fe7d8c756",
}


def test_frozen_outputs(model_file, tmp_path):
    code, out, err = run_cli(
        "sweep", "--model", model_file, "--strategies", ",".join(STRATEGIES),
        "--eta-grid", "0.5,0.2,0.08", "--epsilon", "0.01", "--blocks", "400",
        "--seeds", "1,2", "--batch-size", "4", "--no-timestamp",
    )
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == FROZEN_SWEEP
    for strategy, digest in FROZEN_TRACES.items():
        trace = tmp_path / f"{strategy}.csv"
        code, out, err = run_cli(
            "simulate", "--model", model_file, "--strategy", strategy,
            "--epsilon", "0.01", "--eta", "0.15", "--blocks", "500", "--seed", "4",
            "--trace-out", trace.as_posix(), "--no-timestamp",
        )
        assert code == 0, err
        data = out.encode() + trace.read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, strategy


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
])
def test_fails_before_computing(model_file, tmp_path, monkeypatch, capsys, argv, message):
    """Bad outputs and missing arguments exit 1 before any run, and leave an
    existing output file as it was."""
    calls = []

    def never(*args, **kwargs):
        calls.append(args)
        raise AssertionError("computation started before the arguments were checked")

    monkeypatch.setattr(cli, "run_strategy", never)
    monkeypatch.setattr(cli, "quantize_model", never)
    existing = tmp_path / "existing.csv"
    existing.write_text("kept\n")
    trace = tmp_path / "trace.csv"
    np.savetxt(trace, np.zeros((8, 2), dtype=int), fmt="%d", delimiter=",")
    paths = dict(missing=(tmp_path / "missing" / "x.csv").as_posix(),
                 existing=existing.as_posix(), folder=tmp_path.as_posix(),
                 trace=trace.as_posix())
    argv = [a.format(**paths) for a in argv]
    if argv[0] in ("simulate", "sweep"):
        argv += ["--model", model_file]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert message in err and out == ""
    assert not calls
    assert existing.read_text() == "kept\n"
