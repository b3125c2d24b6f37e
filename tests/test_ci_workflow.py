"""The CI workflow parses, and byte-compiles under the oldest Python the
package declares.

GitHub runs no job of a workflow file that is not valid YAML, so a parse
error silently switches CI off.  Skipped where PyYAML is not installed.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"


def _jobs() -> dict:
    yaml = pytest.importorskip("yaml")
    return yaml.safe_load(WORKFLOW.read_text())["jobs"]


def test_every_job_has_steps():
    jobs = _jobs()
    assert jobs
    for name, job in jobs.items():
        assert job["steps"], name


def test_the_oldest_supported_python_compiles_every_source():
    floor = re.search(
        r'requires-python\s*=\s*">=\s*([\d.]+)"',
        (ROOT / "pyproject.toml").read_text(),
    ).group(1)
    for job in _jobs().values():
        steps = job["steps"]
        versions = [
            str(step.get("with", {}).get("python-version"))
            for step in steps if "setup-python" in step.get("uses", "")
        ]
        runs = " ".join(step.get("run", "") for step in steps)
        if versions == [floor] and "compileall" in runs:
            assert "src tests benchmarks examples" in runs
            return
    pytest.fail(f"no CI job byte-compiles the sources under Python {floor}")
