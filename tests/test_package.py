import types

import heraldsim


def test_all_lists_exactly_the_public_bindings():
    public = {
        name
        for name, value in vars(heraldsim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(heraldsim.__all__) == sorted(public)
    for name in heraldsim.__all__:
        assert getattr(heraldsim, name) is not None
