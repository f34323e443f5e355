"""Shared model builders; systems are cached so pools and id tables are reused."""

import pytest

from cubecat import bundled_category, nerve, shell_tower

_CACHE = {}


def nerve_of(name: str, max_dim: int = 3):
    key = ("nerve", name, max_dim)
    if key not in _CACHE:
        _CACHE[key] = nerve(bundled_category(name), max_dim)
    return _CACHE[key]


def tower_of(name: str, top: int, base_dim: int = 1):
    key = ("tower", name, top, base_dim)
    if key not in _CACHE:
        _CACHE[key] = shell_tower(bundled_category(name), base_dim, top - base_dim)
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


def edge_cube(system, name: str):
    """The 1-cube of a nerve carrying the named morphism."""
    for c in system.cubes(1):
        if c.edges[0] == name:
            return c
    raise AssertionError(f"no edge {name!r}")
