"""Shared model builders; systems are cached so pools and id tables are reused."""

import pytest

from cubecat import MINUS, PLUS, bundled_category, nerve, shell_tower
from cubecat.core import composable_pairs

_CACHE = {}


def nerve_of(name: str, max_dim: int = 3):
    key = ("nerve", name, max_dim)
    if key not in _CACHE:
        _CACHE[key] = nerve(bundled_category(name), max_dim)
    return _CACHE[key]


def tower_of(name: str, top: int, base_dim: int = 1):
    key = ("tower", name, top, base_dim)
    if key not in _CACHE:
        _CACHE[key] = shell_tower(nerve(bundled_category(name), base_dim), top - base_dim)
    return _CACHE[key]


@pytest.fixture(scope="session")
def poset_nerve():
    return nerve_of("poset22", 3)


@pytest.fixture(scope="session")
def square_nerve():
    return nerve_of("free_square", 3)


@pytest.fixture(scope="session")
def parallel_nerve():
    return nerve_of("parallel_pair", 3)


@pytest.fixture(scope="session")
def square_tower():
    return tower_of("free_square", 3)


@pytest.fixture(scope="session")
def poset_tower():
    return tower_of("poset22", 3)


def element_pairs(system, elements, i: int):
    """``core.composable_pairs`` on elements rather than ids."""
    view = system.id_view
    for x, y in composable_pairs(view, [view.id(e) for e in elements], i):
        yield view.elements[x], view.elements[y]


class Spy(dict):
    """Stands in for an id table of a view: ``answer(key)`` answers each
    subscript, and ``calls`` lists the keys asked for, in order."""

    def __init__(self, answer):
        super().__init__()
        self.answer, self.calls = answer, []

    def __getitem__(self, key):
        self.calls.append(key)
        return self.answer(key)


class CompositeSpy:
    """Stands in for the composites of a view: ``answer((x, y, i))`` answers
    each read ``[i][x][y]``, and ``calls`` lists the (x, y, i) read, in order."""

    def __init__(self, answer):
        self.answer, self.calls = answer, []

    def __getitem__(self, i):
        return Spy(lambda x: Spy(lambda y: self._read((x, y, i))))

    def _read(self, key):
        self.calls.append(key)
        return self.answer(key)


def composite(composites, key):
    """The entry (x, y, i) of a view's composites."""
    x, y, i = key
    return composites[i][x][y]


def edge_cube(system, name: str):
    """The 1-cube of a nerve carrying the named morphism."""
    for c in system.cubes(1):
        if c.edges[0] == name:
            return c
    raise AssertionError(f"no edge {name!r}")


def reference_bindings(view, kind: str, n: int):
    """Pair, triple or grid bindings of ``view.pool(n)`` by plain nested loops.

    The order is the one the exhaustive runner documents: directions
    ascending, i before j; pairs and triples grouped by x's upper i-face,
    the faces in the order the pool first shows them; grids by x in pool
    order; every other element in pool order.
    """
    pool, faces = view.pool(n), view.faces

    def face(x, i, sign):
        return faces[i, sign][x]

    def composes(x, y, i):
        return face(x, i, PLUS) == face(y, i, MINUS)

    for i in range(1, n + 1):
        if kind == "grid":
            for j in range(1, n + 1):
                if i == j:
                    continue
                for x in pool:
                    for y in pool:
                        if not composes(x, y, i):
                            continue
                        for z in pool:
                            if not composes(x, z, j):
                                continue
                            for w in pool:
                                if composes(z, w, i) and composes(y, w, j):
                                    yield x, y, z, w, i, j
            continue
        for f in dict.fromkeys(face(x, i, PLUS) for x in pool):
            for x in pool:
                if face(x, i, PLUS) != f:
                    continue
                for y in pool:
                    if not composes(x, y, i):
                        continue
                    if kind == "pair":
                        yield x, y, i
                        continue
                    for z in pool:
                        if composes(y, z, i):
                            yield x, y, z, i
