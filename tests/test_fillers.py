"""Unique fillers, thin fillers, and decomposition into generators."""

import pytest

from cubecat import (
    MINUS,
    PLUS,
    Base,
    Compose,
    Eps,
    big_psi,
    boundary,
    compose_partition,
    enumerate_shells,
    evaluate,
    expression_from_doc,
    expression_to_doc,
    filler_from_fold,
    is_base_free,
    is_thin,
    psi,
    shell_system,
    thin_decompose,
    thin_filler,
    unfold_step,
)
from cubecat.cli import unfold_partition
from cubecat.errors import NotCommutative, NotThin, ParseError, PreconditionFailed
from conftest import edge_cube, nerve_of, tower_of


def test_unfold_inverts_one_folding(poset_nerve):
    for x in poset_nerve.cubes(2):
        assert unfold_step(poset_nerve, psi(poset_nerve, x, 1), boundary(poset_nerve, x), 1) == x
    for x in poset_nerve.cubes(3)[:60]:
        b = boundary(poset_nerve, x)
        for j in (1, 2):
            assert unfold_step(poset_nerve, psi(poset_nerve, x, j), b, j) == x


def test_unfold_diagram_is_the_unfold_step(poset_nerve, poset_tower):
    # the cells render --kind unfold draws compose to what unfold_step builds
    cases = [(poset_nerve, x) for n in (2, 3) for x in poset_nerve.cubes(n)]
    cases += [(poset_tower, x) for x in poset_tower.cubes(3)]
    for system, x in cases:
        b = boundary(system, x)
        for j in range(1, system.dim(x)):
            partition = unfold_partition(system, x, j)
            assert [c.label for c in partition.cells] == ["e-", "G+", "fold", "G-", "e+"]
            assert compose_partition(partition) == x
            assert unfold_step(system, psi(system, x, j), b, j) == x


def test_unfold_rejects_mismatched_inputs(poset_nerve):
    squares = poset_nerve.cubes(2)
    x, y = squares[0], squares[1]
    with pytest.raises(PreconditionFailed):
        unfold_step(poset_nerve, psi(poset_nerve, x, 1), boundary(poset_nerve, y), 1)


def test_unfold_fixes_degenerate_input(poset_nerve):
    for z in poset_nerve.cubes(1)[:4]:
        e = poset_nerve.degeneracy(z, 1)
        s = boundary(poset_nerve, e)
        assert unfold_step(poset_nerve, psi(poset_nerve, e, 1), s, 1) == e


def test_filler_round_trip(poset_nerve, square_tower):
    for system, cap in ((poset_nerve, 3), (square_tower, 3)):
        for n in range(1, cap + 1):
            for x in system.cubes(n):
                result = big_psi(system, x)
                assert filler_from_fold(system, result.folded, boundary(system, x)) == x


def test_filler_dimension_one(poset_nerve):
    for a in poset_nerve.cubes(1):
        assert filler_from_fold(poset_nerve, a, boundary(poset_nerve, a)) == a


def test_filler_requires_matching_fold(poset_nerve):
    squares = poset_nerve.cubes(2)
    x, y = squares[0], squares[3]
    with pytest.raises(PreconditionFailed):
        filler_from_fold(poset_nerve, big_psi(poset_nerve, x).folded,
                         boundary(poset_nerve, y))


def test_uniqueness_by_enumeration(poset_nerve):
    # brute force: for every (boundary, fold) pair, count solutions directly
    for n in (1, 2):
        elements = poset_nerve.cubes(n)
        realized = {}
        for x in elements:
            key = (boundary(poset_nerve, x), big_psi(poset_nerve, x).folded)
            assert key not in realized, "two elements share boundary and fold"
            realized[key] = x
        shells = shell_system(poset_nerve, n)
        for s in enumerate_shells(poset_nerve, n):
            folded_shell = big_psi(shells, s).folded if n >= 2 else s
            for a in elements:
                valid = boundary(poset_nerve, a) == folded_shell
                solutions = [
                    x for x in elements
                    if boundary(poset_nerve, x) == s
                    and big_psi(poset_nerve, x).folded == a
                ]
                assert len(solutions) == (1 if valid else 0)


def test_thin_filler_of_connection_boundary(square_nerve):
    for c in square_nerve.cubes(1)[:6]:
        for sign in (MINUS, PLUS):
            g = square_nerve.connection(c, 1, sign)
            assert thin_filler(square_nerve, boundary(square_nerve, g)) == g


def test_thin_filler_of_degenerate_shell(square_nerve):
    ext = shell_system(square_nerve, 2)
    for u in square_nerve.cubes(1)[:6]:
        s = ext.degeneracy(u, 1)
        assert thin_filler(square_nerve, s) == square_nerve.degeneracy(u, 1)


def test_thin_filler_of_poset_square(poset_nerve):
    # a commuting square boundary has exactly its nerve square as filler
    for s in enumerate_shells(poset_nerve, 2):
        filler = thin_filler(poset_nerve, s)
        assert boundary(poset_nerve, filler) == s
        assert is_thin(poset_nerve, filler)


def test_thin_filler_rejects_noncommutative(square_nerve):
    from cubecat import make_shell

    s = make_shell(square_nerve, 2, {
        (1, MINUS): edge_cube(square_nerve, "f"),
        (1, PLUS): edge_cube(square_nerve, "k"),
        (2, MINUS): edge_cube(square_nerve, "h"),
        (2, PLUS): edge_cube(square_nerve, "g"),
    })
    with pytest.raises(NotCommutative):
        thin_filler(square_nerve, s)


def test_decompose_round_trips_generators(square_nerve):
    for c in square_nerve.cubes(1)[:6]:
        for i in (1, 2):
            e = square_nerve.degeneracy(c, i)
            expr = thin_decompose(square_nerve, e)
            assert is_base_free(expr)
            assert evaluate(square_nerve, expr) == e
        for sign in (MINUS, PLUS):
            g = square_nerve.connection(c, 1, sign)
            expr = thin_decompose(square_nerve, g)
            assert is_base_free(expr)
            assert evaluate(square_nerve, expr) == g


def test_decompose_cancellation_composite(square_nerve):
    # the composite of a positive against a negative connection is the
    # first degeneracy, and its decomposition evaluates right back to it
    for a in square_nerve.cubes(1)[:6]:
        composite = square_nerve.compose(
            square_nerve.connection(a, 1, PLUS),
            square_nerve.connection(a, 1, MINUS),
            2,
        )
        assert composite == square_nerve.degeneracy(a, 1)
        expr = thin_decompose(square_nerve, composite)
        assert evaluate(square_nerve, expr) == square_nerve.degeneracy(a, 1)


def test_decompose_rejects_non_thin(square_nerve, square_tower):
    f = edge_cube(square_nerve, "f")
    with pytest.raises(NotThin):
        thin_decompose(square_nerve, f)
    bad = next(x for x in square_tower.cubes(2) if not is_thin(square_tower, x))
    with pytest.raises(NotThin):
        thin_decompose(square_tower, bad)


def test_decompose_every_thin_tower_element(square_tower):
    for n in (2, 3):
        for s in square_tower.cubes(n):
            if not is_thin(square_tower, s):
                continue
            expr = thin_decompose(square_tower, s)
            assert is_base_free(expr)
            assert evaluate(square_tower, expr) == s


def test_expression_documents_round_trip(poset_nerve):
    x = poset_nerve.cubes(3)[17]
    expr = thin_decompose(poset_nerve, x)
    doc = expression_to_doc(poset_nerve, expr)
    back = expression_from_doc(poset_nerve, doc)
    assert evaluate(poset_nerve, back) == x
    # signs are emitted as "+" and unicode minus; ascii minus parses too
    import json

    text = json.dumps(doc)
    assert "\\u2212" in text or "−" in text
    swapped = json.loads(text.replace("\\u2212", "-"))
    assert evaluate(poset_nerve, expression_from_doc(poset_nerve, swapped)) == x


@pytest.mark.parametrize("bad", ["x", 1e999, 1.0, "1", True],
                         ids=["word", "inf", "float", "string", "bool"])
@pytest.mark.parametrize("kind", ["eps", "gamma", "compose"])
def test_expression_documents_with_a_bad_dir_are_parse_errors(poset_nerve, kind, bad):
    cube = poset_nerve.describe(poset_nerve.cubes(1)[0])
    leaf = {"kind": "eps", "dir": 1, "cube": cube}
    doc = {
        "eps": {"kind": "eps", "dir": bad, "cube": cube},
        "gamma": {"kind": "gamma", "dir": bad, "sign": "+", "cube": cube},
        "compose": {"kind": "compose", "dir": bad, "left": leaf, "right": leaf},
    }[kind]
    with pytest.raises(ParseError, match="malformed expression document"):
        expression_from_doc(poset_nerve, doc)


def test_base_leaves_detected(poset_nerve):
    x = poset_nerve.cubes(2)[0]
    expr = Compose(1, Base(x), Eps(1, poset_nerve.face(x, 1, PLUS)))
    assert not is_base_free(expr)


def test_single_step_uniqueness_in_tower():
    # at each direction, (boundary, one-step fold) determines the element
    system = tower_of("poset22", 3)
    for j in (1, 2):
        seen = {}
        for x in system.cubes(3):
            key = (boundary(system, x), psi(system, x, j))
            assert key not in seen
            seen[key] = x
            assert unfold_step(system, key[1], key[0], j) == x


def test_filler_round_trip_sampled_dimension_four():
    import random

    system = nerve_of("free_square", 4)
    rng = random.Random(3)
    for x in rng.sample(system.cubes(4), 30):
        result = big_psi(system, x)
        assert filler_from_fold(system, result.folded, boundary(system, x)) == x
