"""The declared dependencies match what the code imports.

numpy is the one runtime dependency; scipy is an oracle for the tests
only, and importing the command line must not load it.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _third_party_imports(top: Path) -> set[str]:
    """Top-level names of every absolute import under ``top`` that is not
    the standard library or the package itself."""
    names = set()
    for path in top.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"vidtriage"}


def _requirement_names(requirements) -> set[str]:
    return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower()
            for r in requirements}


@pytest.fixture(scope="module")
def project():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]


def test_src_imports_are_the_runtime_dependencies(project):
    runtime = _requirement_names(project["dependencies"])
    assert _third_party_imports(ROOT / "src") == runtime == {"numpy"}
    assert _third_party_imports(ROOT / "demos") <= runtime


def test_test_imports_lie_within_runtime_and_test_extras(project):
    declared = _requirement_names(project["dependencies"]
                                  + project["optional-dependencies"]["test"])
    assert _third_party_imports(ROOT / "tests") <= declared


def test_cli_import_loads_no_scipy():
    code = ("import sys, vidtriage.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120,
                            check=True)
    assert result.stdout.strip() == "[]"
