"""PEP 562 lazy package roots.

Every package root under :mod:`repro` declares its public names as one
table from name to the module that defines it, and hands that table to
:func:`lazy_exports`.  A name's module is imported on its first access,
so ``import repro.cli`` or ``from repro.core.model import X`` loads only
the modules on that path — numpy included (DESIGN.md, "Import
discipline").
"""

from __future__ import annotations

import sys
from typing import Any, Callable, List, Mapping, Tuple


def lazy_exports(
    namespace: dict, exports: Mapping[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The module-level ``__getattr__`` and ``__dir__`` of a package root.

    *namespace* is the package's ``globals()``; *exports* maps each
    public name to the module defining it.  A resolved name is cached in
    *namespace*, so ``__getattr__`` runs at most once per name.  An
    unknown name raises :class:`AttributeError`, which keeps ``hasattr``
    and ``from package import *`` working.

    A name that is also one of the package's own submodules (``metrics``
    in :mod:`repro.obs`) is bound at once: importing that submodule later
    would otherwise rebind the package attribute to the module object.
    """
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        # the import statement's machinery, unlike importlib.import_module,
        # reports the module in ``python -X importtime``
        __import__(module)
        value = getattr(sys.modules[module], name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    for name, module in exports.items():
        if module == f"{package}.{name}":
            __getattr__(name)
    return __getattr__, __dir__
