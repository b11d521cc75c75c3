"""Lazy package re-exports (PEP 562).

A package ``__init__`` that only re-exports names declares them once,
as a ``{module: (name, ...)}`` table, and hands the table to
:func:`lazy_exports`.  Nothing is imported until a name is first used,
so a caller pays the import cost of the modules it touches and no
others.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, MutableMapping, Sequence, Tuple


def lazy_exports(
    namespace: MutableMapping[str, Any],
    table: Dict[str, Sequence[str]],
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """Build ``(__all__, __getattr__, __dir__)`` for a package namespace.

    ``namespace`` is the package's ``globals()``; ``table`` maps a
    module name, relative to the package (``".graph"``) or absolute
    (``"repro.wire"``), to the names it defines.  A name is resolved on
    first access and stored in ``namespace``, so every later lookup is
    a plain module-dict hit that never reaches ``__getattr__`` again.
    """
    package = namespace["__name__"]
    owners = {
        name: module for module, names in table.items() for name in names
    }

    def __getattr__(name: str) -> Any:
        module = owners.get(name)
        if module is None:
            raise AttributeError(
                "module {!r} has no attribute {!r}".format(package, name)
            )
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(namespace.keys() | owners.keys())

    return list(owners), __getattr__, __dir__
