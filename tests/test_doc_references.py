"""The docs name only code that exists.

README.md, DESIGN.md and EXPERIMENTS.md cite the package by dotted name
(``repro.sim.engine.simulate``), by package-relative name in backticks
(`` `sim.metrics.mean_slowdown` ``) and by ``python -m`` command line.  A
deleted module or function leaves such a line behind; these tests find it.
"""

import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")

SUBPACKAGES = sorted(m.name for m in pkgutil.iter_modules(repro.__path__) if m.ispkg)
DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")
RELATIVE = re.compile(
    r"`((?:%s)(?:\.[A-Za-z_]\w*)+)(?:\(\))?`" % "|".join(SUBPACKAGES)
)
RUN_MODULE = re.compile(r"python -m (repro[\w.]*)")


def cited(pattern):
    """Each distinct ``(doc, name)`` that ``pattern`` finds in the docs."""
    found = set()
    for doc in DOCS:
        text = (ROOT / doc).read_text(encoding="utf-8")
        for match in pattern.finditer(text):
            found.add((doc, match.group(match.lastindex or 0)))
    return sorted(found)


def resolves(dotted):
    """Whether ``dotted`` names a module, or an attribute reached from one."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


@pytest.mark.parametrize("doc,name", cited(DOTTED))
def test_dotted_name_resolves(doc, name):
    assert resolves(name), f"{doc} names {name}, which does not exist"


@pytest.mark.parametrize("doc,name", cited(RELATIVE))
def test_package_relative_name_resolves(doc, name):
    assert resolves(f"repro.{name}"), f"{doc} names `{name}`, which does not exist"


@pytest.mark.parametrize("doc,target", cited(RUN_MODULE))
def test_run_module_target_runs(doc, target):
    spec = importlib.util.find_spec(target)
    assert spec is not None, f"{doc} runs python -m {target}: no such module"
    if spec.submodule_search_locations:
        runnable = any(
            (Path(location) / "__main__.py").exists()
            for location in spec.submodule_search_locations
        )
    else:
        source = Path(spec.origin).read_text(encoding="utf-8")
        runnable = re.search(r"""^if __name__ == ['"]__main__['"]:""", source, re.M)
    assert runnable, f"{doc} runs python -m {target}, which has no __main__"
