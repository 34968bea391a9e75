"""Lazy re-exports for package ``__init__`` modules (PEP 562).

A package lists, per submodule, the public names it re-exports.  Importing
the package then loads none of those submodules: a name's submodule is
imported when the name is first read, as an attribute or by
``from package import name``, and the value is kept in the package's
namespace, so later reads are plain attribute lookups.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Sequence, Tuple


def exports(package: str, submodules: Dict[str, Sequence[str]]
            ) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """``__getattr__``, ``__dir__`` and ``__all__`` of ``package``, which
    re-exports ``submodules[name]`` from each ``package.name``."""
    origin = {export: f"{package}.{submodule}"
              for submodule, names in submodules.items() for export in names}

    def __getattr__(name: str) -> Any:
        if name not in origin:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(origin[name]), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__, list(origin)
