"""The package's public surface: __all__ and the names it binds agree."""

import types

import catoptrix


def test_all_lists_exactly_the_public_names():
    assert len(set(catoptrix.__all__)) == len(catoptrix.__all__)
    missing = [name for name in catoptrix.__all__ if not hasattr(catoptrix, name)]
    assert missing == []
    public = {
        name
        for name, value in vars(catoptrix).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(catoptrix.__all__)
