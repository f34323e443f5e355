"""Seeded document fuzzing of the command line, in process.

Valid cube and category documents are mutated a few nodes at a time, and
each mutant is fed to ``cli.main``: every call must return 0, 1 or 2 and
must not raise.  The checks that refuse a bad call live in the model
parsers and in the misses of the id tables, so this guards both.  About
1,100 calls, about a second in all on a 2-core VM.
"""

import contextlib
import copy
import io
import json
import random
import sys

import pytest

from cubecat import bundled_category, nerve, shell_tower
from cubecat.cli import main
from cubecat.models import BUNDLED

DEEP = "[" * 2000 + "]" * 2000  # deeper than the JSON parser's recursion limit
ODD_VALUES = (2 ** 70, -1, 0, 1, 7, 2.5, float("nan"), float("inf"), "", "x", "1-", "00",
              True, False, None, [], {}, [1, 2], {"dim": 1}, "DEEP")
MUTANTS_PER_DOCUMENT = 30


def nodes(doc, path=()):
    """(path, node) of every node of a JSON tree, the root first."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, child in items:
        yield from nodes(child, path + (key,))


def replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def mutate(doc, rng: random.Random):
    """One seeded mutation: a node replaced or copied over another, or in a
    container two entries swapped, one dropped or one added."""
    move = rng.randrange(5)
    containers = [(p, n) for p, n in nodes(doc) if isinstance(n, (dict, list)) and n]
    path, node = rng.choice(list(nodes(doc)) if move < 2 or not containers else containers)
    if move == 0:
        return replaced(doc, path, copy.deepcopy(rng.choice(ODD_VALUES)))
    if move == 1 or not containers:
        return replaced(doc, path, copy.deepcopy(rng.choice(list(nodes(doc)))[1]))
    node = copy.deepcopy(node)
    keys = sorted(node) if isinstance(node, dict) else list(range(len(node)))
    a, b = rng.choice(keys), rng.choice(keys)
    if move == 2:
        node[a], node[b] = node[b], node[a]
    elif move == 3:
        del node[a]
    elif isinstance(node, dict):
        node[a + rng.choice(("", "x", "+"))] = copy.deepcopy(rng.choice(ODD_VALUES))
    else:
        node.insert(a, copy.deepcopy(node[b]))
    return replaced(doc, path, node)


def text(doc) -> str:
    """The document as JSON, with a "DEEP" string standing for a too-deep nesting."""
    return json.dumps(doc).replace('"DEEP"', DEEP)


def mutants(doc, rng: random.Random, count: int):
    for _ in range(count):
        out = doc
        for _ in range(rng.randint(0, 3)):  # now and then the valid document itself
            out = mutate(out, rng)
        yield text(out)


def call(argv, stdin: str = "") -> int:
    """The exit code of one in-process ``main`` call; it must not raise."""
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main(argv)
    finally:
        sys.stdin = saved


def cube_documents(model: str) -> list:
    """Described cubes of dimensions 1-3 of the poset22 nerve, or 2-3 of its tower."""
    if model == "nerve":
        system, dims = nerve(bundled_category("poset22"), 3), (1, 2, 3)
    else:
        system, dims = shell_tower(nerve(bundled_category("poset22"), 1), 2), (2, 3)
    rng = random.Random(model)
    return [system.describe(rng.choice(system.cubes(n))) for n in dims for _ in range(2)]


@pytest.mark.parametrize("model", ["nerve", "tower"])
def test_mutated_cube_documents_exit_0_1_or_2(model):
    rng = random.Random(f"cubes-{model}")
    docs = cube_documents(model)
    commands = [["fold"], ["decompose"]] + [
        ["render", "--kind", kind, "--dir", str(d)] for kind in ("psi", "unfold", "identity")
        for d in (1, 2)]
    codes = []
    for doc in docs:
        for stdin in mutants(doc, rng, MUTANTS_PER_DOCUMENT):
            argv = rng.choice(commands) + ["--model", model, "--cat", "poset22", "--dim", "3", "-"]
            codes.append(call(argv, stdin))
        pair = [doc, rng.choice(docs)]
        for stdin in mutants(pair, rng, MUTANTS_PER_DOCUMENT):
            argv = ["render", "--kind", "transport", "--dir", str(rng.randint(1, 3)),
                    "--model", model, "--cat", "poset22", "--dim", "3", "-"]
            codes.append(call(argv, stdin))
    assert {0, 2} <= set(codes) <= {0, 1, 2}
    assert len(codes) == 2 * len(docs) * MUTANTS_PER_DOCUMENT


def test_mutated_category_documents_exit_0_1_or_2(tmp_path):
    from importlib import resources

    rng = random.Random("categories")
    path = tmp_path / "cat.json"
    codes = []
    for name in BUNDLED:
        doc = json.loads(resources.files("cubecat.data").joinpath(f"{name}.json").read_text("utf-8"))
        for stdin in mutants(doc, rng, 4 * MUTANTS_PER_DOCUMENT):
            path.write_text(stdin, encoding="utf-8")
            model = rng.choice(("nerve", "broken"))
            codes.append(call(["axioms", "--model", model, "--cat", str(path), "--dim", "2",
                               "--exhaustive-dim", "1", "--samples", "5"]))
    assert {0, 1, 2} == set(codes)
