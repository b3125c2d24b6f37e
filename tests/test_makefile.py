"""The Makefile's Python commands run from a plain checkout.

Every recipe that starts Python on the repo's code (pytest, a
``benchmarks/`` script, an example) must put ``src`` on ``PYTHONPATH``
itself, keeping any path already set, so that it runs the same whether or
not the package is pip-installed.  Every ``tests/`` or ``benchmarks/`` path
a recipe names must exist, so a renamed or deleted test file cannot leave
a target pointing at nothing.  Likewise every result artifact under
``benchmarks/results/`` must have a benchmark that writes it, so a deleted
benchmark cannot leave its last numbers behind.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MAKEFILE = ROOT / "Makefile"

PREFIX = "PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} "

#: ``$(PYTHON)`` running pytest, a benchmark script or an example.
COMMAND = re.compile(r"\$\(PYTHON\) (?:-m pytest|benchmarks/|\$\$ex\b)")

#: A ``tests/...`` or ``benchmarks/...`` path as a recipe word.
REPO_PATH = re.compile(r"(?<![\w./$-])(?:tests|benchmarks)/[\w./-]*")


def _recipes(text: str) -> dict:
    """Each target's recipe lines, backslash continuations joined."""
    recipes: dict = {}
    target = None
    for line in text.replace("\\\n", " ").splitlines():
        if line.startswith("\t"):
            recipes.setdefault(target, []).append(line.strip())
            continue
        rule = re.match(r"([\w.-]+):(?!=)", line)
        if rule:
            target = rule.group(1)
    return recipes


def test_python_recipes_put_src_on_the_path():
    recipes = _recipes(MAKEFILE.read_text())
    checked, missing = set(), []
    for target, lines in recipes.items():
        for line in lines:
            for command in COMMAND.finditer(line):
                checked.add(target)
                if not line[:command.start()].endswith(PREFIX):
                    missing.append(f"{target}: {line}")
    assert not missing, "recipes without " + PREFIX + ":\n" + "\n".join(missing)
    assert {"test", "bench", "examples", "obs-bench", "faults-bench"} <= checked


def test_recipe_paths_exist():
    recipes = _recipes(MAKEFILE.read_text())
    named, missing = set(), []
    for target, lines in recipes.items():
        for line in lines:
            for path in REPO_PATH.findall(line):
                named.add(path)
                if not (ROOT / path).exists():
                    missing.append(f"{target}: {path}")
    assert not missing, "recipes name missing paths:\n" + "\n".join(missing)
    assert "tests/experiments/test_resilience.py" in named


def _saved_artifacts(source: str) -> set:
    """Names passed as the first argument of ``save_artifact(...)`` calls."""
    return {
        node.args[0].value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "save_artifact"
        and node.args
        and isinstance(node.args[0], ast.Constant)
    }


def test_every_result_artifact_has_a_producer():
    produced = set()
    for bench in sorted((ROOT / "benchmarks").glob("test_*.py")):
        produced |= _saved_artifacts(bench.read_text())
    results = sorted((ROOT / "benchmarks" / "results").glob("*.txt"))
    orphans = [path.name for path in results if path.stem not in produced]
    assert results and produced
    assert not orphans, "no benchmark writes these artifacts: " + ", ".join(orphans)
