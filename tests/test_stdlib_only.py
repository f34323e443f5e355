"""The runtime imports nothing outside the standard library and the package itself."""

import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "cubecat"


def imported_modules(path):
    """(line, top-level module name) of every absolute import in one source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_every_module_imports_only_the_standard_library_and_cubecat():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 10
    foreign = [f"{path.relative_to(PACKAGE)}:{line}: {name}"
               for path in modules for line, name in imported_modules(path)
               if name != "cubecat" and name not in sys.stdlib_module_names]
    assert foreign == []


def test_the_guard_sees_a_foreign_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os\nfrom . import core\nimport numpy.linalg\n"
                      "def f():\n    from hypothesis import given\n", encoding="utf-8")
    assert [name for _, name in imported_modules(module)] == ["os", "numpy", "hypothesis"]
