"""Elementary and full folding, thinness, and the folded-shell reconstruction."""

import pytest
from hypothesis import given, settings, strategies as st

from cubecat import (
    MINUS,
    PLUS,
    big_psi,
    boundary,
    enumerate_shells,
    fold_chain,
    is_commutative,
    is_j_thin,
    is_thin,
    psi,
    reconstruct_folded_shell,
)
from cubecat.errors import BoundaryMismatch, IndexOutOfRange
from conftest import tower_of


def test_psi_of_degeneracy_drops_the_index(poset_nerve):
    # folding the (i+1)-st degeneracy in direction i gives the i-th degeneracy
    for y in poset_nerve.cubes(1):
        assert psi(poset_nerve, poset_nerve.degeneracy(y, 2), 1) == \
            poset_nerve.degeneracy(y, 1)
    for y in poset_nerve.cubes(2):
        for i in (1, 2):
            assert psi(poset_nerve, poset_nerve.degeneracy(y, i + 1), i) == \
                poset_nerve.degeneracy(y, i)


def test_psi_of_connection_is_degeneracy(poset_nerve):
    for c in poset_nerve.cubes(1):
        for sign in (MINUS, PLUS):
            assert psi(poset_nerve, poset_nerve.connection(c, 1, sign), 1) == \
                poset_nerve.degeneracy(c, 1)


def test_psi_index_errors(poset_nerve):
    edge = poset_nerve.cubes(1)[0]
    with pytest.raises(IndexOutOfRange):
        psi(poset_nerve, edge, 1)
    square = poset_nerve.cubes(2)[0]
    with pytest.raises(IndexOutOfRange):
        psi(poset_nerve, square, 2)


def path_composite(system, faces):
    """Oracle: compose a chain of nerve edges directly in the category."""
    cat = system.cat
    out = faces[0].edges[0]
    for f in faces[1:]:
        out = cat.compose(f.edges[0], out)
    return out


def test_fold_composes_boundary_paths(poset_nerve, square_nerve):
    # N is the (lower-1, upper-2) path, P the (lower-2, upper-1) path
    for system in (poset_nerve, square_nerve):
        for x in system.cubes(2):
            result = big_psi(system, x)
            n_expected = path_composite(
                system, [system.face(x, 1, MINUS), system.face(x, 2, PLUS)]
            )
            p_expected = path_composite(
                system, [system.face(x, 2, MINUS), system.face(x, 1, PLUS)]
            )
            assert result.n_face.edges[0] == n_expected
            assert result.p_face.edges[0] == p_expected
            assert result.n_face == result.p_face


def test_fold_dimension_one_is_identity(poset_nerve):
    for x in poset_nerve.cubes(1):
        result = big_psi(poset_nerve, x)
        assert result.folded == x
        assert result.n_face == poset_nerve.face(x, 1, MINUS)
        assert result.p_face == poset_nerve.face(x, 1, PLUS)


def test_every_nerve_square_and_above_is_thin(poset_nerve, square_nerve):
    # commuting diagrams fold to degeneracies; at dimension 1 thinness
    # instead picks out exactly the identity edges
    for system in (poset_nerve, square_nerve):
        for n in (2, 3):
            assert all(is_thin(system, x) for x in system.cubes(n))
        for x in system.cubes(1):
            assert is_thin(system, x) == (x == system.degeneracy(system.face(x, 1, MINUS), 1))


def test_degeneracies_and_connections_are_thin(square_nerve):
    for c in square_nerve.cubes(1):
        for i in (1, 2):
            assert is_thin(square_nerve, square_nerve.degeneracy(c, i))
        for sign in (MINUS, PLUS):
            assert is_thin(square_nerve, square_nerve.connection(c, 1, sign))


def test_tower_has_non_thin_elements(square_tower):
    flags = [is_thin(square_tower, x) for x in square_tower.cubes(2)]
    assert not all(flags)
    assert any(flags)


def test_zero_thin_is_first_degeneracy_membership(poset_nerve):
    for z in poset_nerve.cubes(1):
        e = poset_nerve.degeneracy(z, 1)
        assert is_j_thin(poset_nerve, e, 0)
    for x in poset_nerve.cubes(2):
        folded = psi(poset_nerve, x, 1)
        assert is_j_thin(poset_nerve, x, 1) == is_j_thin(poset_nerve, folded, 0)


def test_kth_degeneracy_is_partially_thin(poset_nerve):
    for y in poset_nerve.cubes(2):
        for k in (1, 2, 3):
            assert is_j_thin(poset_nerve, poset_nerve.degeneracy(y, k), k - 1)


def test_folded_faces_are_first_degenerate(square_nerve):
    for x in square_nerve.cubes(3):
        result = big_psi(square_nerve, x)
        for i in (2, 3):
            for sign in (MINUS, PLUS):
                face = square_nerve.face(result.folded, i, sign)
                rebuilt = square_nerve.degeneracy(
                    square_nerve.face(face, 1, MINUS), 1
                )
                assert face == rebuilt


def test_reconstruct_folded_shell_matches_fold(poset_nerve):
    for x in poset_nerve.cubes(2)[:12]:
        result = big_psi(poset_nerve, x)
        rebuilt = reconstruct_folded_shell(poset_nerve, result.n_face, result.p_face)
        assert rebuilt == boundary(poset_nerve, result.folded)


def test_reconstruct_degenerate_pair(poset_nerve):
    for z in poset_nerve.cubes(1)[:5]:
        shell = reconstruct_folded_shell(poset_nerve, z, z)
        assert shell == boundary(poset_nerve, poset_nerve.degeneracy(z, 1))


def test_reconstruct_rejects_mismatched_boundaries(poset_nerve):
    edges = poset_nerve.cubes(1)
    a = next(c for c in edges if c.vertices == ("00", "01"))
    b = next(c for c in edges if c.vertices == ("10", "11"))
    with pytest.raises(BoundaryMismatch):
        reconstruct_folded_shell(poset_nerve, a, b)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_thin_composites_stay_thin(data):
    system = tower_of("free_square", 3)
    pool = [x for x in system.cubes(3) if is_thin(system, x)]
    i = data.draw(st.integers(min_value=1, max_value=3))
    a = data.draw(st.sampled_from(pool))
    mates = [b for b in pool if b.face(i, MINUS) == a.face(i, PLUS)]
    if not mates:
        return
    b = data.draw(st.sampled_from(mates))
    assert is_thin(system, system.compose(a, b, i))


def test_psi_makes_transverse_faces_degenerate(poset_nerve):
    # after folding, both direction-2 faces are composition identities
    for x in poset_nerve.cubes(2)[:10]:
        folded = psi(poset_nerve, x, 1)
        for sign in (MINUS, PLUS):
            face = poset_nerve.face(folded, 2, sign)
            assert face == poset_nerve.degeneracy(
                poset_nerve.face(face, 1, MINUS), 1
            )


# ---------------------------------------------------------------------------
# the fold chain, and what reads it


@pytest.mark.parametrize("model", ["poset_nerve", "square_tower"])
def test_fold_chain_is_the_successive_foldings(request, model):
    system = request.getfixturevalue(model)
    for n in (1, 2, 3):
        for x in system.cubes(n):
            steps = [x]
            for i in range(n - 1, 0, -1):
                steps.append(psi(system, steps[-1], i))
            chain = fold_chain(system, x)
            assert chain == steps
            assert chain[-1] == big_psi(system, x).folded


@pytest.mark.parametrize("model", ["poset_nerve", "square_tower"])
def test_thin_is_the_last_partial_thinness(request, model):
    system = request.getfixturevalue(model)
    for n in (1, 2, 3):
        for x in system.cubes(n):
            assert is_thin(system, x) == is_j_thin(system, x, n - 1)


def test_one_shell_commutes_when_its_faces_agree(poset_nerve):
    shells = list(enumerate_shells(poset_nerve, 1))
    assert {is_commutative(poset_nerve, s) for s in shells} == {True, False}
    for s in shells:
        assert is_commutative(poset_nerve, s) == (s.face(1, MINUS) == s.face(1, PLUS))


def test_is_thin_refuses_a_zero_cube(poset_nerve):
    with pytest.raises(IndexOutOfRange) as err:
        is_thin(poset_nerve, poset_nerve.cubes(0)[0])
    assert err.value.op == "is_thin"
