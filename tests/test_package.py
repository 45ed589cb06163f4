"""The package namespace: what ``from swdelay import *`` binds."""

import types

import swdelay


def test_star_import_binds_no_submodule():
    assert not [name for name in swdelay.__all__
                if isinstance(getattr(swdelay, name), types.ModuleType)]
    ns = {}
    exec("model = 5\nfrom swdelay import *", ns)
    assert ns["model"] == 5
    assert "simulate" in ns and "SourceModel" in ns


def test_codec_exports_only_the_batched_decoder():
    """The codec's one decoder is ``run_codec_trials``; ``encode`` and
    ``jointly_typical`` stay in ``swdelay.codec`` only because the benchmark's
    tracer wraps them there by name."""
    from swdelay import codec

    for name in ("decode", "is_typical", "encode", "jointly_typical"):
        assert name not in swdelay.__all__ and not hasattr(swdelay, name), name
    assert not hasattr(codec, "decode") and not hasattr(codec, "is_typical")
    assert not hasattr(codec.Codebook, "bin_of")
    assert callable(codec.encode) and callable(codec.jointly_typical)
