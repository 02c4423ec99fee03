"""The package runs on the standard library alone.

Every import in ``src/discatlas`` must name a standard-library module or
the package itself, and ``pyproject.toml`` must declare no runtime
dependency.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "discatlas"


def _imported_roots(path: Path) -> set[str]:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            roots.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_package_imports_only_stdlib_and_itself():
    allowed = set(sys.stdlib_module_names) | {"discatlas"}
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for path in sources:
        assert _imported_roots(path) <= allowed, path.name


def test_pyproject_declares_no_runtime_dependency():
    lines = (ROOT / "pyproject.toml").read_text().splitlines()
    assert "dependencies = []" in lines
