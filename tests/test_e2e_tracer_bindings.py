"""Every name the end-to-end benchmark's tracer wraps still exists.

``benchmarks/e2e/tracing.py`` patches functions and methods across
``repro.sim``, ``repro.experiments`` and ``repro.service`` by attribute
name, and ``make test`` does not collect ``benchmarks/``.  Renaming or
moving one of them would otherwise first fail in a traced benchmark run.
This test reads the tracer and changes nothing in it.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e" / "tracing.py"


def _boundaries() -> list:
    spec = importlib.util.spec_from_file_location("e2e_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing._boundaries()


def test_every_traced_binding_exists_and_is_callable():
    boundaries = _boundaries()
    assert boundaries
    missing = []
    for owner, attr, name, _attrs, _unit in boundaries:
        # The tracer reads a class's own attribute, a module's by getattr.
        found = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if not callable(found):
            missing.append(f"{getattr(owner, '__name__', owner)}.{attr} ({name})")
    assert not missing, "traced names gone: " + ", ".join(missing)
