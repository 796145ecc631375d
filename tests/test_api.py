"""The package's public names."""

import types

import serpbias


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from serpbias import *", namespace)
    del namespace["__builtins__"]
    public = {
        name
        for name, value in vars(serpbias).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(serpbias.__all__) == len(set(serpbias.__all__))
    assert set(serpbias.__all__) == set(namespace) == public
