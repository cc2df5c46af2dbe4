"""The package namespace exports exactly what __all__ lists."""

import types

import mwmatch


def test_all_lists_every_public_name_once():
    bound = {name for name, value in vars(mwmatch).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(mwmatch.__all__) == len(set(mwmatch.__all__))
    assert bound == set(mwmatch.__all__)
