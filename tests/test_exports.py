"""Every name a package advertises in ``__all__`` resolves."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["repro", "repro.sim"])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)
