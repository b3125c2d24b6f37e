"""No module under ``src/repro`` imports a name it never uses.

An unused import reads as a live dependency: a reader looks for the use,
and a later refactor keeps the module importing what it no longer needs.
The check is a standard-library AST scan (no lint package is installed):
a name an ``import`` binds counts as used when the module reads it
anywhere — in code, in an annotation (string annotations included, so a
``TYPE_CHECKING`` import used only as ``"Workload"`` counts), or in
``__all__`` (a re-export).  ``from __future__`` imports bind nothing.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Set, Tuple

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Imports kept although the module never reads them, keyed by the module's
#: path under ``src/repro`` and the bound name, each with its reason.
ALLOWED = {
    # benchmarks/e2e/tracing.py patches the name where the sweep executor
    # looks it up, to time batches run through the executor.
    ("experiments/parallel.py", "simulate_batch"): "patched by the e2e tracer",
}


def _annotation_names(node: ast.AST) -> Iterator[str]:
    """Names read inside the string parts of an annotation."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                expr = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            for name in ast.walk(expr):
                if isinstance(name, ast.Name):
                    yield name.id


def _annotations(tree: ast.AST) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _exported(tree: ast.AST) -> Iterator[str]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ) and isinstance(node.value, (ast.List, ast.Tuple)):
            for elt in node.value.elts:
                if isinstance(elt, ast.Constant):
                    yield elt.value


def unused_imports(source: str) -> List[Tuple[int, str]]:
    """``(line, name)`` of each name ``source`` imports and never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    used: Set[str] = {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
    }
    for annotation in _annotations(tree):
        used.update(_annotation_names(annotation))
    used.update(_exported(tree))
    return sorted(
        (line, name) for name, line in bound.items() if name not in used
    )


def _modules() -> List[Path]:
    return sorted(SRC.rglob("*.py"))


def test_src_imports_only_what_it_uses():
    found = [
        f"{path.relative_to(SRC).as_posix()}:{line}: {name}"
        for path in _modules()
        for line, name in unused_imports(path.read_text())
        if (path.relative_to(SRC).as_posix(), name) not in ALLOWED
    ]
    assert found == [], "unused imports:\n" + "\n".join(found)


@pytest.mark.parametrize("module, name", sorted(ALLOWED))
def test_allowlist_holds_only_unused_imports(module, name):
    """An allowed import the module has started to use, or no longer
    imports, leaves the list."""
    unused = {n for _, n in unused_imports((SRC / module).read_text())}
    assert name in unused


def test_the_scan_reads_every_kind_of_use():
    source = '''
from __future__ import annotations

import json
import os.path
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:
    from collections import OrderedDict
    from decimal import Decimal
    from fractions import Fraction

__all__ = ["List"]


def f(x: "Optional[OrderedDict]") -> Dict[str, "Decimal"]:
    return os.path.join(x)
'''
    assert unused_imports(source) == [(4, "json"), (11, "Fraction")]
