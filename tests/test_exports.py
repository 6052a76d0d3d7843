"""Every name a package advertises in ``__all__`` resolves.

The package roots are PEP 562 lazy roots (DESIGN.md, "Import
discipline"): a name's module is imported on first access, so these
tests resolve each name, check ``dir()`` lists it, and check an unknown
name still raises :class:`AttributeError`.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]

PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
)


@pytest.mark.parametrize("module", PACKAGES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)
    # a name shared with a submodule must still be the export, not the
    # module the import system binds on the package
    modules = [
        name for name in mod.__all__
        if isinstance(getattr(mod, name), types.ModuleType)
    ]
    assert modules == []


@pytest.mark.parametrize("module", PACKAGES)
def test_dir_lists_every_export(module):
    mod = importlib.import_module(module)
    assert set(mod.__all__) <= set(dir(mod))


@pytest.mark.parametrize("module", PACKAGES)
def test_unknown_name_raises_attribute_error(module):
    mod = importlib.import_module(module)
    with pytest.raises(AttributeError, match="no_such_export"):
        mod.no_such_export
    assert not hasattr(mod, "no_such_export")
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert set(mod.__all__) <= set(namespace)


_RESOLVE = """
import importlib, json, sys
mod = importlib.import_module(sys.argv[1])
print(json.dumps([n for n in mod.__all__ if not hasattr(mod, n)]))
"""


@pytest.mark.parametrize("module", PACKAGES)
def test_all_names_resolve_from_a_cold_start(module):
    """Resolving in a fresh interpreter, first access loads each module
    in the order ``__all__`` asks for it: no import cycle may break."""
    proc = subprocess.run(
        [sys.executable, "-c", _RESOLVE, module],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
