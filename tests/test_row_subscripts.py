"""The composites are read in row form, ``composites[i][x][y]``, everywhere in the package.

A tuple subscript such as ``composites[x, y, i]`` is the retired key form:
the direction table refuses it at run time, and this guard refuses it in
the source, on any name or attribute called ``composites`` or ``compose``.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "cubecat"
NAMES = {"composites", "compose"}


def tuple_subscripts(path):
    """(line, name) of every tuple subscript of a name or attribute in ``NAMES``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple):
            target = node.value
            name = target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)
            if name in NAMES:
                yield node.lineno, name


def test_no_module_reads_the_composites_by_a_tuple_key():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 10
    found = [f"{path.relative_to(PACKAGE)}:{line}: {name}"
             for path in modules for line, name in tuple_subscripts(path)]
    assert found == []


def test_the_guard_sees_a_tuple_key(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("def f(view, compose, x, y):\n"
                      "    a = view.composites[x, y, 1]\n"
                      "    b = compose[x, y, 2]\n"
                      "    return view.composites[1][x][y], view.faces[1, '-'][x], a, b\n",
                      encoding="utf-8")
    assert list(tuple_subscripts(module)) == [(2, "composites"), (3, "compose")]
