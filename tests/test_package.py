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
