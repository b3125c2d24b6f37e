"""PEP 562 lazy exports for the package ``__init__``s.

A package ``__init__`` that imports every submodule makes ``import
repro.workload`` load the whole package, and through it the simulator.
Instead each package ``__init__`` declares which submodule defines each
exported name and calls :func:`lazy_exports`::

    __getattr__, __dir__ = lazy_exports(__name__, globals(), {
        "job": ("Job", "Workload"),
        "transforms": ("scale_load",),
    })

``repro.workload.Job`` (and ``from repro.workload import Job``) then
imports :mod:`repro.workload.job` on first access and caches the name in
the package's globals, so the second access is a plain attribute read.
A submodule is an attribute too: ``import repro.sim`` followed by
``repro.sim.analysis.queue_stats`` imports :mod:`repro.sim.analysis`.
``__all__`` stays the package's public list; ``from pkg import *`` binds
every name in it.

Library code imports a name from the submodule that defines it, not from
the package, so loading one module pulls in only what it uses.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, Iterable, List, Mapping, Tuple


def lazy_exports(
    package: str,
    namespace: Dict[str, object],
    table: Mapping[str, Iterable[str]],
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair for ``package``.

    ``namespace`` is the package's ``globals()``; ``table`` maps each
    submodule, relative to ``package`` (``"analysis"``, or ``"core.base"``
    one level down), to the names it defines that the package exports.
    """
    where = {name: f"{package}.{module}" for module, names in table.items() for name in names}

    def __getattr__(name: str) -> object:
        module = where.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module), name)
        elif name.startswith("__"):
            # A dunder is never an export, and resolving one as a submodule
            # would run ``repro/__main__.py`` (the CLI) on ``repro.__main__``.
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        else:
            try:
                value = importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(where))

    return __getattr__, __dir__
