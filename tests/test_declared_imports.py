"""Every import the repository makes is stdlib, ``repro``, local, or declared.

CI installs exactly what ``pyproject.toml`` declares, so an import of an
undeclared distribution passes on a developer machine that happens to
have it and fails on a clean runner.  This walks every absolute
``import`` (function-local ones included) under ``src/``, ``tests/``,
``benchmarks/`` and ``examples/`` with the stdlib :mod:`ast` module.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "benchmarks", "examples")
#: Sibling modules imported by bare name: the pytest conftest, the
#: end-to-end harness modules, and this test package.
LOCAL = {"conftest", "harness", "workloads", "tests"}
#: Distributions ``pyproject.toml`` declares (runtime deps plus the
#: ``test`` extra), mapped to the module each one installs.
DECLARED = {"numpy": "numpy", "scipy": "scipy", "pytest": "pytest",
            "pytest-benchmark": "pytest_benchmark",
            "hypothesis": "hypothesis"}


def _absolute_imports(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_every_import_is_stdlib_local_or_declared():
    allowed = (set(sys.stdlib_module_names) | {"repro"} | LOCAL
               | set(DECLARED.values()))
    undeclared = []
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            for lineno, module in _absolute_imports(path):
                if module not in allowed:
                    undeclared.append(
                        f"{path.relative_to(ROOT)}:{lineno}: {module}")
    assert not undeclared, "undeclared imports:\n" + "\n".join(undeclared)


def test_declared_set_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(
        (ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    requirements = (project["dependencies"]
                    + project["optional-dependencies"]["test"])
    names = {req.split(">")[0].split("=")[0].split("<")[0].strip()
             for req in requirements}
    assert names == set(DECLARED)
