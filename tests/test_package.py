"""The package namespace: what ``from swdelay import *`` binds."""

import ast
import re
import types
from pathlib import Path

import swdelay
from swdelay import channel, codec, strategies

ROOT = Path(__file__).resolve().parent.parent


def test_star_import_binds_no_submodule():
    assert not [name for name in swdelay.__all__
                if isinstance(getattr(swdelay, name), types.ModuleType)]
    ns = {}
    exec("model = 5\nfrom swdelay import *", ns)
    assert ns["model"] == 5
    assert "simulate" in ns and "SourceModel" in ns


def test_one_message_for_a_bad_group_index():
    """Every bad group index is refused by ``SourceModel.group_entries``'s
    count check; no module keeps a message of its own."""
    for path in sorted((ROOT / "src").rglob("*.py")):
        assert "unknown group index" not in path.read_text(), path


def test_codec_exports_only_the_batched_decoder():
    """The codec's one decoder is ``run_codec_trials``; ``encode`` and
    ``jointly_typical`` stay in ``swdelay.codec`` only because the benchmark's
    tracer wraps them there by name."""
    from swdelay import codec

    for name in ("decode", "is_typical", "encode", "jointly_typical"):
        assert name not in swdelay.__all__ and not hasattr(swdelay, name), name
    assert not hasattr(codec, "decode") and not hasattr(codec, "is_typical")
    assert not hasattr(codec.Codebook, "bin_of")
    assert not hasattr(codec, "_SequenceSpace") and not hasattr(codec.Codebook, "at_rate")
    assert "CodecConfig" not in swdelay.__all__ and not hasattr(swdelay, "CodecConfig")
    assert not hasattr(codec, "CodecConfig")
    assert "CodecConfig" not in (ROOT / "README.md").read_text()
    for name in ("typical_stages", "marginals", "_log_x"):  # one X-typicality table
        assert not hasattr(codec.Codebook, name), name
    assert callable(codec.encode) and callable(codec.jointly_typical)


# public names kept only because the benchmark imports or wraps them
BENCH_ONLY = [(strategies, "run_wait_to_encode"), (strategies, "run_wait_to_decode"),
              (strategies, "run_strategy"), (codec, "encode"), (codec, "jointly_typical"),
              (channel.ChannelQueue, "enqueue")]


def test_bench_only_names_have_no_caller_in_src():
    """Each name README lists as kept for the benchmark is named in bench/,
    listed there, and neither called nor referenced in src/ apart from its own
    definition (an import or a mention in a docstring is not a use)."""
    names = [name for _, name in BENCH_ONLY]
    bench = "".join(p.read_text() for p in sorted((ROOT / "bench").glob("*.py")))
    readme = (ROOT / "README.md").read_text()
    kept = readme.split("### Names kept without a caller in `src/`\n\n")[1].split("\n\n")[0]
    mentioned = re.compile(r"\b(%s)\b" % "|".join(names))
    used = set()
    for path in sorted((ROOT / "src" / "swdelay").glob("*.py")):
        text = path.read_text()
        if mentioned.search(text):  # parse only the files that could use one
            for node in ast.walk(ast.parse(text)):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    for owner, name in BENCH_ONLY:
        assert callable(getattr(owner, name)), name
        assert re.search(rf"\b{name}\b", bench), name
        assert f"{name}`" in kept, name
        assert name not in used, name


def test_model_check_count_is_the_one_count_check():
    """``model.check_count`` replaced ``model.check_blocks`` and
    ``codec._integer``, and only model.py asks whether a value is a bool."""
    from swdelay import model

    assert callable(model.check_count) and callable(model.is_real)
    assert not hasattr(model, "check_blocks") and not hasattr(codec, "_integer")
    asks = set()
    for path in sorted((ROOT / "src" / "swdelay").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2
                    and any(isinstance(n, ast.Name) and n.id == "bool"
                            for n in ast.walk(node.args[1]))):
                asks.add(path.name)
    assert asks == {"model.py"}
