"""Lazy package exports (PEP 562).

Every ``repro`` package keeps its public ``__all__`` but imports the
submodule behind a name only when that name is first looked up, so
``import repro.cli`` (or any other entry point) compiles and runs just the
modules its code path touches.  A resolved name is cached in the package
namespace, so later lookups are ordinary attribute reads.
"""

from __future__ import annotations

import sys
from types import ModuleType
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


def load_module(name: str) -> ModuleType:
    """Import the module with absolute ``name`` and return it.

    Goes through ``__import__`` rather than ``importlib.import_module`` so
    the import takes the interpreter's own path, which ``python -X
    importtime`` reports; the import system's Python-level path does not.
    """
    __import__(name)
    return sys.modules[name]


def lazy_exports(
    package: str,
    exports: Mapping[str, Sequence[str]],
    submodules: Sequence[str] = (),
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package``.

    ``exports`` maps a relative module path (``".context"``) to the names
    the package re-exports from it; ``submodules`` names submodules the
    package exports as themselves (``repro.sil.ast``).
    """
    where: Dict[str, str] = {
        name: package + module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> object:
        if name in submodules:
            value = load_module(f"{package}.{name}")
        elif name in where:
            value = getattr(load_module(where[name]), name)
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(where) | set(submodules))

    return __getattr__, __dir__
