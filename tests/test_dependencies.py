"""``src/termeval`` runs on the standard library plus click, PyYAML and
requests, and ``pyproject.toml`` declares exactly those three."""

import ast
import re
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "termeval"

# import name -> distribution name
THIRD_PARTY = {"click": "click", "yaml": "pyyaml", "requests": "requests"}


def _imports():
    """(file name, top-level module) for every absolute import in src."""
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield path.name, alias.name.split(".")[0]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                yield path.name, node.module.split(".")[0]


def test_imports_are_stdlib_or_declared():
    imports = list(_imports())
    assert {module for _, module in imports} >= set(THIRD_PARTY)
    stray = [(name, module) for name, module in imports
             if module not in sys.stdlib_module_names
             and module not in THIRD_PARTY]
    assert not stray


def test_pyproject_declares_exactly_the_allowed_dependencies():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(
        encoding="utf-8"))["project"]
    names = {re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower()
             for spec in project["dependencies"]}
    assert names == set(THIRD_PARTY.values())
