"""The CLI contract: every option a subcommand defines is read by its handler,
and no argument list ends in a traceback."""

import argparse
import contextlib
import io
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from swdelay import cli, demo_model, save_model


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    """The demo model and a 40-line trace; the working directory is tmp_path,
    so an output path drawn as text lands there."""
    monkeypatch.chdir(tmp_path)
    save_model(demo_model(), tmp_path / "model.yaml")
    rng = np.random.default_rng(0)
    np.savetxt(tmp_path / "trace.csv", rng.integers(0, 3, size=(40, 2)), fmt="%d",
               delimiter=",")
    return dict(model="model.yaml", trace="trace.csv")


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = cli.build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return dict(action.choices)


# ---------------------------------------------------------------------------
# every option is read
# ---------------------------------------------------------------------------

class _ReadRecorder(argparse.Namespace):
    """A parsed namespace that records the name of every attribute read."""

    def __init__(self, parsed: argparse.Namespace):
        super().__init__(**vars(parsed))
        self._read = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_read").add(name)
        return object.__getattribute__(self, name)


_VALID = {
    "validate": ["--model", "{model}"],
    "stats": ["--model", "{model}", "--out", "stats.csv", "--no-timestamp"],
    "rate": ["--model", "{model}", "--epsilon", "0.01", "--groups", "2,2"],
    "kc": ["--model", "{model}", "--epsilon", "0.01", "--eta", "0.25"],
    "bounds": ["--model", "{model}", "--epsilon", "0.01", "--eta-grid", "0.5",
               "--out", "bounds.csv"],
    "simulate": ["--model", "{model}", "--strategy", "wd", "--epsilon", "0.01",
                 "--eta", "0.5", "--blocks", "50", "--out", "run.csv",
                 "--trace-out", "trace-out.csv"],
    "sweep": ["--model", "{model}", "--strategies", "we,wd", "--eta-grid", "0.5",
              "--epsilon", "0.01", "--blocks", "50", "--seeds", "1", "--out", "sweep.csv"],
    "example-fig4": ["--blocks", "50", "--seeds", "1,2", "--eta-grid", "0.5",
                     "--out", "fig4.csv"],
    "codec": ["--bsc", "0.1", "--n", "3", "--delta", "0.5", "--rates", "2",
              "--trials", "5", "--out", "codec.csv"],
    "ingest": ["--input", "{trace}", "--n", "4", "--out", "learned.yaml",
               "--assign-out", "assign.csv"],
}


def test_valid_argv_covers_every_subcommand():
    assert set(_VALID) == set(_subcommands())


@pytest.mark.parametrize("command", sorted(_VALID))
def test_handler_reads_every_option(inputs, command):
    """An option its handler never reads would be accepted and ignored."""
    parser = cli.build_parser()
    parsed = parser.parse_args([command, *(a.format(**inputs) for a in _VALID[command])])
    recorder = _ReadRecorder(parsed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert parsed.func(recorder) in (0, 2)
    options = {a.dest for a in _subcommands()[command]._actions
               if not isinstance(a, argparse._HelpAction)}
    assert options - recorder._read == set()


# ---------------------------------------------------------------------------
# no argument list ends in a traceback
# ---------------------------------------------------------------------------

_BAD = ("0", "-1", "nan", "inf", "-inf", "1e308", "", "text")
_FLAG = None  # a store_true option: present or absent

# per subcommand, (options always given, options that may be left out), each
# with its valid value; the work-size options (--blocks, --trials and ingest's
# --n) are always given, so a valid run stays small
_GRAMMAR = {
    "validate": ({"--model": "{model}"}, {}),
    "stats": ({"--model": "{model}"}, {"--out": "o.csv", "--no-timestamp": _FLAG}),
    "rate": ({"--model": "{model}", "--epsilon": "0.01", "--blocks": "4"},
             {"--groups": "2,2"}),
    "kc": ({"--model": "{model}", "--epsilon": "0.01"}, {"--eta": "0.25", "--c": "5"}),
    "bounds": ({"--model": "{model}", "--epsilon": "0.01", "--eta-grid": "0.5,0.1"},
               {"--out": "o.csv", "--no-timestamp": _FLAG}),
    "simulate": ({"--model": "{model}", "--strategy": "wd", "--blocks": "30"},
                 {"--epsilon": "0.01", "--eta": "0.25", "--c": "5", "--seed": "1",
                  "--batch-size": "2", "--no-marginals": _FLAG, "--seconds": _FLAG,
                  "--trace-out": "t.csv", "--out": "o.csv", "--no-timestamp": _FLAG}),
    "sweep": ({"--model": "{model}", "--strategies": "we,wd,known-joint",
               "--eta-grid": "0.5,0.25", "--epsilon": "0.01", "--blocks": "30",
               "--seeds": "1,2"},
              {"--batch-size": "2", "--no-marginals": _FLAG, "--seconds": _FLAG,
               "--workers": "1", "--out": "o.csv", "--no-timestamp": _FLAG}),
    "example-fig4": ({"--blocks": "30"},
                     {"--eta-grid": "0.5,0.25", "--seeds": "1,2", "--workers": "1",
                      "--out": "o.csv", "--no-timestamp": _FLAG}),
    "codec": ({"--bsc": "0.1", "--n": "3", "--delta": "0.5", "--rates": "2,4",
               "--trials": "5"},
              {"--model": "{model}", "--k": "1", "--groups": "1",
               "--kind": "sequential", "--seed": "1", "--out": "o.csv",
               "--no-timestamp": _FLAG}),
    "ingest": ({"--input": "{trace}", "--n": "4", "--out": "m.yaml"},
               {"--joint-levels": "4", "--marginal-levels": "2", "--skip-header": "1",
                "--slot-seconds": "0.001", "--random-representative": _FLAG,
                "--seed": "3", "--assign-out": "a.csv", "--no-timestamp": _FLAG}),
}


@st.composite
def _argv(draw, command: str) -> list[str]:
    """The always-given options, a drawn subset of the others, and valid
    values except on up to two options, which get one of the bad values."""
    always, maybe = _GRAMMAR[command]
    values = {**always, **maybe}
    given = [*always, *(f for f in maybe if draw(st.booleans()))]
    valued = [f for f in given if values[f] is not _FLAG]
    bad = draw(st.sets(st.sampled_from(valued), max_size=2)) if valued else set()
    argv = [command]
    for flag in given:
        argv.append(flag)
        if flag == "--workers":  # never a large worker count
            argv.append(draw(st.sampled_from(("1", "2", "0", "-1"))))
        elif flag in bad:
            argv.append(draw(st.sampled_from(_BAD)))
        elif values[flag] is not _FLAG:
            argv.append(values[flag])
    return argv


def _quiet_main(argv: list[str]) -> tuple[int, str]:
    """``cli.main(argv)`` with its output captured and warnings ignored: the
    exit code and the stderr text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = cli.main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("command", sorted(_GRAMMAR))
def test_no_single_bad_value_ends_in_a_traceback(inputs, command):
    """The valid argv with one option, given or added, set to each bad value."""
    always, maybe = _GRAMMAR[command]
    valid = [a.format(**inputs) for a in _VALID[command]]
    for flag, value in {**always, **maybe}.items():
        if value is _FLAG:
            continue
        for bad in (("0", "-1") if flag == "--workers" else _BAD):
            argv = [command, *valid]
            if flag in valid:
                argv[argv.index(flag) + 1] = bad
            else:
                argv += [flag, bad]
            code, err = _quiet_main(argv)
            assert code in (0, 1, 2) and "Traceback" not in err, argv


def test_grammar_names_every_option():
    for command, sub in _subcommands().items():
        always, maybe = _GRAMMAR[command]
        flags = {s for a in sub._actions for s in a.option_strings
                 if not isinstance(a, argparse._HelpAction)}
        assert flags == set(always) | set(maybe), command


@pytest.mark.parametrize("command", sorted(_GRAMMAR))
@settings(derandomize=True, max_examples=30, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_no_argv_ends_in_a_traceback(inputs, command, data):
    argv = [a.format(**inputs) for a in data.draw(_argv(command), label="argv")]
    code, err = _quiet_main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, argv
